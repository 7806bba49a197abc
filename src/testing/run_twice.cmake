# Run a command twice and byte-diff its two reports, invoked by the
# fuzz_smoke, model_smoke and recovery_smoke ctest targets:
#
#   cmake -DNAME=<test> -DCMD="<bin>|<arg>|...|<report>|..." -DOUT_DIR=<scratch> -P run_twice.cmake
#
# CMD is the command line with its arguments joined by "|" (add_test
# does not pass a ";" inside one argument through intact); <report>
# stands for each run's report path. Fails unless both runs exit 0 and
# write byte-identical reports: the determinism contract the replay
# workflow depends on.

if(NOT DEFINED NAME OR NOT DEFINED CMD OR NOT DEFINED OUT_DIR)
    message(FATAL_ERROR "usage: cmake -DNAME=... -DCMD=... -DOUT_DIR=... -P run_twice.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(run a b)
    string(REPLACE "|" ";" cmd "${CMD}")
    string(REPLACE "<report>" "${OUT_DIR}/report_${run}.json" cmd "${cmd}")
    message(STATUS "${NAME}: run ${run}")
    execute_process(COMMAND ${cmd}
        WORKING_DIRECTORY "${OUT_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${NAME}: run ${run} exited ${rc}\n${out}\n${err}")
    endif()
endforeach()

file(READ "${OUT_DIR}/report_a.json" report_a)
file(READ "${OUT_DIR}/report_b.json" report_b)
if(NOT report_a STREQUAL report_b)
    message(FATAL_ERROR "${NAME}: reports differ between identical runs")
endif()

message(STATUS "${NAME}: both runs passed, byte-identical reports")
