# Runs `dtdevolve check` once per golden file and passes only when each
# run exits 0 and prints exactly the file's expected summary. A golden
# file's first line is the command (`$ dtdevolve check FLAGS...`); the
# rest is the stdout it must print, byte for byte. GOLDEN is a
# comma-separated list of golden files.
#
#   cmake -DDTDEVOLVE=path/to/dtdevolve -DGOLDEN=a.txt,b.txt
#         -P tests/expect_check_summary.cmake
string(REPLACE "," ";" golden_files "${GOLDEN}")
foreach(golden ${golden_files})
  file(READ ${golden} content)
  string(FIND "${content}" "\n" eol)
  string(SUBSTRING "${content}" 0 ${eol} command_line)
  math(EXPR body_begin "${eol} + 1")
  string(SUBSTRING "${content}" ${body_begin} -1 expected)
  string(REGEX REPLACE "^\\$ dtdevolve check ?" "" flags "${command_line}")
  separate_arguments(flags UNIX_COMMAND "${flags}")
  execute_process(
    COMMAND ${DTDEVOLVE} check ${flags}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "${command_line}: exit '${code}'\n${out}${err}")
  endif()
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${command_line}: summary differs from ${golden}\n"
                        "--- expected:\n${expected}--- actual:\n${out}")
  endif()
endforeach()
