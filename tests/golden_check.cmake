# Rerun one bench main and compare its whole --json report, byte for byte,
# with its committed golden under bench/golden/ (README.md there says how
# to regenerate one). Run as
#   cmake -DBENCH=<binary> -DARGS=<flags> -DGOLDEN=<file> -DOUT=<file>
#         -P golden_check.cmake
# where ARGS is a ;-list of the flags that made the golden.
execute_process(COMMAND ${BENCH} ${ARGS} --json ${OUT}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "the report ${OUT} differs from ${GOLDEN}: a modeled "
                      "number moved (diff them to see which)")
endif()
