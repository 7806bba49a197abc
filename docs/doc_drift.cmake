# Guards the prose against drifting from the code it documents:
#
#   1. every --flag a doc line attributes to ask_fuzz, ask_verify,
#      fig12_training, or fig13b_scalability must appear in that
#      binary's --help output (a renamed or removed CLI flag fails the
#      docs, not a user following them);
#   2. every intra-repo markdown link target must exist on disk;
#   3. every `--preset <name>` a doc tells the reader to pass to cmake
#      or ctest must be a preset defined in CMakePresets.json (the
#      runbook's lane names cannot drift from the preset file);
#   4. every `ASK_SOMETHING=value` environment/cache assignment a doc
#      shows must name a variable the code actually consults — a
#      getenv("ASK_...") in src/ or bench/, or an ASK_* build knob in
#      the top-level CMakeLists.txt (a renamed env var would otherwise
#      leave readers exporting a no-op);
#   5. every backticked API reference `Type::member` (optionally
#      `ns::`-qualified, optionally called: `()` or `(args)`) must name
#      a type some header under src/ or bench/ declares (class, struct,
#      or `using Type =`), and that same header must contain `member`
#      as a word — a deleted or renamed API fails the docs. ROADMAP.md
#      is exempt: it records what was deleted.
#
# Invoked by the `doc_drift` ctest target:
#
#   cmake -DREPO_DIR=<src> -DFUZZ_BIN=<build>/testing/ask_fuzz
#         -DVERIFY_BIN=<build>/testing/ask_verify
#         -DFIG12_BIN=<build>/bench/fig12_training
#         -DFIG13B_BIN=<build>/bench/fig13b_scalability
#         -DSIM_PARALLEL_BIN=<build>/bench/sim_parallel
#         -P docs/doc_drift.cmake

cmake_policy(SET CMP0057 NEW)  # if(... IN_LIST ...)
cmake_policy(SET CMP0012 NEW)  # while(TRUE) is the constant, not a var

foreach(var REPO_DIR FUZZ_BIN VERIFY_BIN FIG12_BIN FIG13B_BIN
            SIM_PARALLEL_BIN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "usage: cmake -DREPO_DIR=... -DFUZZ_BIN=... -DVERIFY_BIN=... "
            "-DFIG12_BIN=... -DFIG13B_BIN=... -DSIM_PARALLEL_BIN=... "
            "-P doc_drift.cmake")
    endif()
endforeach()

# ---- the ground truth: --help of the documented CLIs --------------------

function(help_flags bin out_var)
    execute_process(COMMAND "${bin}" --help
        OUTPUT_VARIABLE help ERROR_VARIABLE help_err)
    string(APPEND help "${help_err}")
    string(REGEX MATCHALL "--[a-z][a-z0-9-]*" flags "${help}")
    list(REMOVE_DUPLICATES flags)
    if(NOT flags)
        message(FATAL_ERROR "doc_drift: ${bin} --help advertised no flags")
    endif()
    set(${out_var} "${flags}" PARENT_SCOPE)
endfunction()

# The preset names docs may reference (rule 3). Harvested from the
# "name" keys of CMakePresets.json; the file is small enough that a
# regex over the raw text is exact (names are flat strings).
file(READ "${REPO_DIR}/CMakePresets.json" presets_json)
string(REGEX MATCHALL "\"name\"[ \t]*:[ \t]*\"[a-zA-Z0-9_-]+\""
    preset_name_pairs "${presets_json}")
set(preset_names "")
foreach(pair IN LISTS preset_name_pairs)
    string(REGEX REPLACE ".*\"([a-zA-Z0-9_-]+)\"$" "\\1" pname "${pair}")
    list(APPEND preset_names "${pname}")
endforeach()
list(REMOVE_DUPLICATES preset_names)
if(NOT preset_names)
    message(FATAL_ERROR "doc_drift: no preset names in CMakePresets.json")
endif()

help_flags("${FUZZ_BIN}" fuzz_flags)
help_flags("${VERIFY_BIN}" verify_flags)
help_flags("${FIG12_BIN}" fig12_flags)
help_flags("${FIG13B_BIN}" fig13b_flags)
help_flags("${SIM_PARALLEL_BIN}" sim_parallel_flags)
# --help itself is always accepted (it is how the ground truth is read).
list(APPEND fuzz_flags "--help")
list(APPEND verify_flags "--help")
list(APPEND fig12_flags "--help")
list(APPEND fig13b_flags "--help")
list(APPEND sim_parallel_flags "--help")

# The env/cache variable names docs may assign (rule 4): every
# getenv("ASK_...") in the sources and benches, plus the ASK_* build
# knobs declared in the top-level CMakeLists.txt.
set(known_env "")
file(GLOB_RECURSE env_sources
    "${REPO_DIR}/src/*.cc" "${REPO_DIR}/src/*.h"
    "${REPO_DIR}/bench/*.cc" "${REPO_DIR}/bench/*.h")
foreach(src IN LISTS env_sources)
    file(READ "${src}" src_text)
    string(REGEX MATCHALL "getenv\\(\"ASK_[A-Z_]+\"" uses "${src_text}")
    foreach(use IN LISTS uses)
        string(REGEX REPLACE ".*\"(ASK_[A-Z_]+)\"" "\\1" ename "${use}")
        list(APPEND known_env "${ename}")
    endforeach()
endforeach()
file(READ "${REPO_DIR}/CMakeLists.txt" top_cmake)
string(REGEX MATCHALL "ASK_[A-Z_]+" cmake_knobs "${top_cmake}")
list(APPEND known_env ${cmake_knobs})
list(REMOVE_DUPLICATES known_env)
if(NOT known_env)
    message(FATAL_ERROR "doc_drift: harvested no ASK_* variable names")
endif()

# The types docs may name (rule 5): every class/struct/using-alias a
# header under src/ or bench/ declares. decl_<Type> lists the indices
# of the declaring headers; hdr_<i> holds header i's text.
file(GLOB_RECURSE api_headers "${REPO_DIR}/src/*.h" "${REPO_DIR}/bench/*.h")
set(n_headers 0)
foreach(hdr IN LISTS api_headers)
    file(READ "${hdr}" hdr_${n_headers})
    string(REGEX MATCHALL
        "(class|struct)[ \t]+[A-Z][A-Za-z0-9_]*|using[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*="
        decls "${hdr_${n_headers}}")
    foreach(decl IN LISTS decls)
        string(REGEX REPLACE "^(class|struct|using)[ \t]+([A-Za-z0-9_]+).*$"
            "\\2" tname "${decl}")
        list(APPEND decl_${tname} ${n_headers})
    endforeach()
    math(EXPR n_headers "${n_headers} + 1")
endforeach()
if(n_headers EQUAL 0)
    message(FATAL_ERROR "doc_drift: no headers under src/ or bench/")
endif()

# ---- the docs under check -----------------------------------------------

file(GLOB doc_files
    "${REPO_DIR}/README.md" "${REPO_DIR}/DESIGN.md"
    "${REPO_DIR}/EXPERIMENTS.md" "${REPO_DIR}/ROADMAP.md"
    "${REPO_DIR}/docs/*.md")

set(errors 0)
set(checked_flags 0)
set(checked_links 0)
set(checked_presets 0)
set(checked_envs 0)
set(checked_refs 0)

foreach(doc IN LISTS doc_files)
    # Iterate lines with FIND/SUBSTRING rather than file(STRINGS) or a
    # semicolon-joined list: markdown legitimately contains backslashes,
    # semicolons, and unbalanced square brackets, and CMake's list
    # machinery mis-splits on all three (an unmatched `[` swallows every
    # following separator until a `]`).
    file(READ "${doc}" content)
    get_filename_component(doc_dir "${doc}" DIRECTORY)
    file(RELATIVE_PATH doc_rel "${REPO_DIR}" "${doc}")

    while(NOT content STREQUAL "")
        string(FIND "${content}" "\n" nl)
        if(nl EQUAL -1)
            set(line "${content}")
            set(content "")
        else()
            string(SUBSTRING "${content}" 0 ${nl} line)
            math(EXPR next "${nl} + 1")
            string(SUBSTRING "${content}" ${next} -1 content)
        endif()
        # Rule 1: flags attributed to the fuzz / verify CLIs.
        set(allowed "")
        if(line MATCHES "ask_fuzz")
            list(APPEND allowed ${fuzz_flags})
        endif()
        if(line MATCHES "ask_verify")
            list(APPEND allowed ${verify_flags})
        endif()
        if(line MATCHES "fig12_training")
            list(APPEND allowed ${fig12_flags})
        endif()
        if(line MATCHES "fig13b_scalability")
            list(APPEND allowed ${fig13b_flags})
        endif()
        # sim_parallel_ab is the ctest target, not the bench binary —
        # its lines carry ctest flags, which rule 1 must not judge.
        if(line MATCHES "sim_parallel" AND NOT line MATCHES "sim_parallel_ab")
            list(APPEND allowed ${sim_parallel_flags})
        endif()
        if(allowed)
            string(REGEX MATCHALL "--[a-z][a-z0-9-]*" used "${line}")
            foreach(flag IN LISTS used)
                math(EXPR checked_flags "${checked_flags} + 1")
                if(NOT flag IN_LIST allowed)
                    message(SEND_ERROR
                        "doc_drift: ${doc_rel}: flag ${flag} is not in the "
                        "binary's --help:\n  ${line}")
                    math(EXPR errors "${errors} + 1")
                endif()
            endforeach()
        endif()

        # Rule 3: preset names handed to cmake/ctest must be defined.
        if(line MATCHES "(cmake|ctest)")
            string(REGEX MATCHALL "--preset[ \t=]+[a-zA-Z0-9_-]+"
                preset_uses "${line}")
            foreach(use IN LISTS preset_uses)
                string(REGEX REPLACE "^--preset[ \t=]+" "" used_preset
                    "${use}")
                math(EXPR checked_presets "${checked_presets} + 1")
                if(NOT used_preset IN_LIST preset_names)
                    message(SEND_ERROR
                        "doc_drift: ${doc_rel}: preset ${used_preset} is "
                        "not defined in CMakePresets.json:\n  ${line}")
                    math(EXPR errors "${errors} + 1")
                endif()
            endforeach()
        endif()

        # Rule 4: ASK_* assignments must name a variable the code reads.
        string(REGEX MATCHALL "ASK_[A-Z_]+=" env_uses "${line}")
        foreach(use IN LISTS env_uses)
            string(REGEX REPLACE "=$" "" used_env "${use}")
            math(EXPR checked_envs "${checked_envs} + 1")
            if(NOT used_env IN_LIST known_env)
                message(SEND_ERROR
                    "doc_drift: ${doc_rel}: ${used_env} is not consulted "
                    "anywhere in src/, bench/, or CMakeLists.txt:\n  ${line}")
                math(EXPR errors "${errors} + 1")
            endif()
        endforeach()

        # Rule 2: intra-repo markdown link targets must exist. Matches
        # are consumed one at a time (REGEX MATCH + advance) because a
        # MATCHALL result list whose elements contain brackets/parens
        # does not round-trip through foreach(IN LISTS) intact.
        set(rest "${line}")
        while(TRUE)
            string(REGEX MATCH "\\]\\(([^)]+)\\)" one "${rest}")
            if(one STREQUAL "")
                break()
            endif()
            set(target "${CMAKE_MATCH_1}")
            string(FIND "${rest}" "${one}" mpos)
            string(LENGTH "${one}" mlen)
            math(EXPR mnext "${mpos} + ${mlen}")
            string(SUBSTRING "${rest}" ${mnext} -1 rest)
            string(REGEX REPLACE "#.*$" "" target "${target}")
            if(target STREQUAL "" OR target MATCHES "^[a-z]+://" OR
               target MATCHES "^mailto:")
                continue()
            endif()
            math(EXPR checked_links "${checked_links} + 1")
            if(IS_ABSOLUTE "${target}")
                set(resolved "${target}")
            else()
                set(resolved "${doc_dir}/${target}")
            endif()
            if(NOT EXISTS "${resolved}")
                message(SEND_ERROR
                    "doc_drift: ${doc_rel}: broken link target ${target}")
                math(EXPR errors "${errors} + 1")
            endif()
        endwhile()

        # Rule 5: API references must name a declared type and member.
        # Consumed one at a time, like rule 2, because of the parens.
        if(doc_rel STREQUAL "ROADMAP.md")
            continue()
        endif()
        set(rest "${line}")
        while(TRUE)
            string(REGEX MATCH
                "`([a-z_][a-z0-9_]*::)*([A-Z][A-Za-z0-9_]*)::([A-Za-z_][A-Za-z0-9_]*)(\\([^`)]*\\))?`"
                one "${rest}")
            if(one STREQUAL "")
                break()
            endif()
            set(type "${CMAKE_MATCH_2}")
            set(member "${CMAKE_MATCH_3}")
            string(FIND "${rest}" "${one}" mpos)
            string(LENGTH "${one}" mlen)
            math(EXPR mnext "${mpos} + ${mlen}")
            string(SUBSTRING "${rest}" ${mnext} -1 rest)
            math(EXPR checked_refs "${checked_refs} + 1")
            set(found FALSE)
            foreach(i IN LISTS decl_${type})
                if(hdr_${i} MATCHES "(^|[^A-Za-z0-9_])${member}([^A-Za-z0-9_]|$)")
                    set(found TRUE)
                    break()
                endif()
            endforeach()
            if(NOT found)
                message(SEND_ERROR
                    "doc_drift: ${doc_rel}: ${type}::${member} names no "
                    "member of a type declared under src/ or bench/:\n  "
                    "${line}")
                math(EXPR errors "${errors} + 1")
            endif()
        endwhile()
    endwhile()
endforeach()

if(errors GREATER 0)
    message(FATAL_ERROR "doc_drift: ${errors} problem(s) found")
endif()
list(LENGTH doc_files n_docs)
message(STATUS
    "doc_drift: ${n_docs} docs ok (${checked_flags} CLI flags, "
    "${checked_links} links, ${checked_presets} preset names, "
    "${checked_envs} env assignments, ${checked_refs} API references "
    "verified)")
