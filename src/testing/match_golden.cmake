# Run a command once and byte-compare its report with a committed golden,
# invoked by the fuzz_smoke, model_smoke and recovery_smoke ctest targets:
#
#   cmake -DNAME=<test> -DCMD="<bin>|<arg>|...|<report>|..."
#         -DGOLDEN=<file> -DOUT_DIR=<scratch> -P match_golden.cmake
#
# CMD is the command line with its arguments joined by "|" (add_test
# does not pass a ";" inside one argument through intact); <report>
# stands for the run's report path. Fails unless the run exits 0 and
# writes a report equal to GOLDEN byte for byte. A nondeterministic run
# differs from the golden as it would from a second run, so this also
# holds the determinism contract the replay workflow depends on. On a
# mismatch it prints both paths, the first line where they part and the
# command that regenerates the golden; a change that means to move a
# report regenerates it and says why.

cmake_policy(SET CMP0012 NEW)  # while(TRUE) is the constant, not a var

if(NOT DEFINED NAME OR NOT DEFINED CMD OR NOT DEFINED GOLDEN OR
   NOT DEFINED OUT_DIR)
    message(FATAL_ERROR "usage: cmake -DNAME=... -DCMD=... -DGOLDEN=... "
                        "-DOUT_DIR=... -P match_golden.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(report_path "${OUT_DIR}/report.json")

string(REPLACE "|" ";" cmd "${CMD}")
string(REPLACE "<report>" "${report_path}" cmd "${cmd}")
execute_process(COMMAND ${cmd}
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME}: exited ${rc}\n${out}\n${err}")
endif()

file(READ "${report_path}" report)
file(READ "${GOLDEN}" golden)
if(report STREQUAL golden)
    message(STATUS "${NAME}: report matches ${GOLDEN}")
    return()
endif()

# The first line where the two parts, 1-based; an ended file reads as
# an empty line.
set(line 1)
while(TRUE)
    foreach(side report golden)
        string(FIND "${${side}}" "\n" cut)
        if(cut EQUAL -1)
            set(${side}_line "${${side}}")
            set(${side} "")
        else()
            string(SUBSTRING "${${side}}" 0 ${cut} ${side}_line)
            math(EXPR cut "${cut} + 1")
            string(SUBSTRING "${${side}}" ${cut} -1 ${side})
        endif()
    endforeach()
    if(NOT report_line STREQUAL golden_line OR
       (report STREQUAL "" AND golden STREQUAL ""))
        break()
    endif()
    math(EXPR line "${line} + 1")
endwhile()

string(REPLACE "<report>" "${GOLDEN}" regen "${CMD}")
string(REPLACE "|" " " regen "${regen}")
message(FATAL_ERROR
    "${NAME}: the report differs from its golden at line ${line}\n"
    "  report: ${report_path}\n"
    "  golden: ${GOLDEN}\n"
    "  report line ${line}: ${report_line}\n"
    "  golden line ${line}: ${golden_line}\n"
    "If the change is meant, regenerate the golden and say why in "
    "CHANGES.md:\n"
    "  ${regen}")
