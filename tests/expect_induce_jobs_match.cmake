# Runs `dtdevolve induce DTD --accept XML...` once with `--jobs 1` and
# once with `--jobs 0` (every core) and passes only when both exit 0 and
# print the same candidates (stdout) and the same accept log (stderr).
# XML is a comma-separated list of documents.
#
#   cmake -DDTDEVOLVE=path/to/dtdevolve -DDTD=file.dtd -DXML=a.xml,b.xml
#         -P tests/expect_induce_jobs_match.cmake
string(REPLACE "," ";" xml_files "${XML}")
foreach(jobs 1 0)
  execute_process(
    COMMAND ${DTDEVOLVE} induce ${DTD} --jobs ${jobs} --min-cluster-size 2
            --accept ${xml_files}
    RESULT_VARIABLE code_${jobs}
    OUTPUT_VARIABLE out_${jobs}
    ERROR_VARIABLE err_${jobs}
    TIMEOUT 60)
  if(NOT code_${jobs} STREQUAL "0")
    message(FATAL_ERROR "induce --jobs ${jobs} failed (exit "
                        "'${code_${jobs}}'):\n${out_${jobs}}${err_${jobs}}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_0)
  message(FATAL_ERROR "candidates differ\n--- --jobs 1:\n${out_1}"
                      "--- --jobs 0:\n${out_0}")
endif()
if(NOT err_1 STREQUAL err_0)
  message(FATAL_ERROR "accept logs differ\n--- --jobs 1:\n${err_1}"
                      "--- --jobs 0:\n${err_0}")
endif()
