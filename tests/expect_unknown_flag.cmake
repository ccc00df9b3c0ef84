# Runs `dtdevolve COMMAND DTD FLAG VALUE` and passes only when the CLI
# refuses the flag: exit code 1 and "unknown flag" on stderr. COMMAND
# defaults to `serve`; VALUE may be left empty for a flag without one.
#
#   cmake -DDTDEVOLVE=path/to/dtdevolve [-DCOMMAND=evolve] -DDTD=file.dtd
#         -DFLAG=--x [-DVALUE=v] -P tests/expect_unknown_flag.cmake
if(NOT DEFINED COMMAND)
  set(COMMAND serve)
endif()
execute_process(
  COMMAND ${DTDEVOLVE} ${COMMAND} ${DTD} ${FLAG} ${VALUE}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${code}'\n${out}${err}")
endif()
if(NOT err MATCHES "unknown flag: ${FLAG}")
  message(FATAL_ERROR "expected 'unknown flag: ${FLAG}' on stderr:\n${err}")
endif()
