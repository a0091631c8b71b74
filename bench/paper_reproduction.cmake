# Runs `reproduce` in a fresh WORK_DIR and byte-compares the two artifacts
# it writes there against the committed copies in EXPECTED_DIR.
#   cmake -DREPRODUCE=<exe> -DWORK_DIR=<dir> -DEXPECTED_DIR=<repo root>
#         -P paper_reproduction.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${REPRODUCE} WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "reproduce exited with status ${status} (a check failed?)")
endif()
foreach(artifact BENCH_paper.txt BENCH_mcm.json)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/${artifact} ${EXPECTED_DIR}/${artifact}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${WORK_DIR}/${artifact} differs from the committed copy")
  endif()
endforeach()
