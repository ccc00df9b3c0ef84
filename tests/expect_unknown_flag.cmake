# Runs `dtdevolve serve DTD FLAG VALUE` and passes only when the CLI
# refuses the flag: exit code 1 and "unknown flag" on stderr.
#
#   cmake -DDTDEVOLVE=path/to/dtdevolve -DDTD=file.dtd -DFLAG=--x
#         -DVALUE=v -P tests/expect_unknown_flag.cmake
execute_process(
  COMMAND ${DTDEVOLVE} serve ${DTD} ${FLAG} ${VALUE}
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
