# Runs `dtdevolve COMMAND DTD FLAG VALUE ARGS...` and passes only when
# the CLI refuses the flag: exit code 1 and EXPECT (a regex, default
# "unknown flag: FLAG") on stderr. COMMAND defaults to `serve`; VALUE
# may be left empty for a flag without one; ARGS is an optional
# comma-separated list of trailing arguments (for example the documents
# `evolve` needs before it gets past its usage check).
#
#   cmake -DDTDEVOLVE=path/to/dtdevolve [-DCOMMAND=evolve] -DDTD=file.dtd
#         -DFLAG=--x [-DVALUE=v] [-DEXPECT=regex] [-DARGS=a.xml,b.xml]
#         -P tests/expect_unknown_flag.cmake
if(NOT DEFINED COMMAND)
  set(COMMAND serve)
endif()
if(NOT DEFINED EXPECT)
  set(EXPECT "unknown flag: ${FLAG}")
endif()
string(REPLACE "," ";" trailing_args "${ARGS}")
execute_process(
  COMMAND ${DTDEVOLVE} ${COMMAND} ${DTD} ${FLAG} ${VALUE} ${trailing_args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${code}'\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected '${EXPECT}' on stderr:\n${err}")
endif()
