# Golden-output check, run as a ctest script:
#   cmake -DCOMMAND=<program> -DGOLDEN=<file> -DACTUAL=<file>
#         -P CompareOutput.cmake
# Runs COMMAND and fails unless its stdout equals GOLDEN byte for byte. On a
# mismatch the output is written to ACTUAL, so `diff GOLDEN ACTUAL` shows
# what moved.
execute_process(COMMAND ${COMMAND}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} failed: ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout of ${COMMAND} differs from ${GOLDEN}; "
                      "see: diff ${GOLDEN} ${ACTUAL}")
endif()
