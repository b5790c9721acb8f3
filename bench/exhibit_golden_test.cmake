# Exhibit golden check: runs one deterministic bench in a fresh work
# directory and compares its stdout byte-for-byte with the committed
# golden.  On a difference the actual output stays in
# ${WORK_DIR}/stdout.txt and a unified diff is printed.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden .txt> -DWORK_DIR=<dir>
#         -P exhibit_golden_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ACTUAL "${WORK_DIR}/stdout.txt")

execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE code OUTPUT_FILE "${ACTUAL}"
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${code}\n${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
                        "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout differs from ${GOLDEN} (actual: ${ACTUAL})")
endif()
