# Runs `dtdevolve evolve DTD XML...` once sequentially and once with
# `--jobs 2` (the batch ingest path) and passes only when both exit 0
# and agree on the evolved DTD (stdout) and on the summary line
# (stderr). XML is a comma-separated list of documents.
#
#   cmake -DDTDEVOLVE=path/to/dtdevolve -DDTD=file.dtd -DXML=a.xml,b.xml
#         -P tests/expect_evolve_jobs_match.cmake
string(REPLACE "," ";" xml_files "${XML}")
foreach(mode sequential batch)
  if(mode STREQUAL "batch")
    set(jobs_flag --jobs 2)
  else()
    set(jobs_flag)
  endif()
  execute_process(
    COMMAND ${DTDEVOLVE} evolve ${DTD} ${jobs_flag} ${xml_files}
    RESULT_VARIABLE ${mode}_code
    OUTPUT_VARIABLE ${mode}_out
    ERROR_VARIABLE ${mode}_err
    TIMEOUT 60)
  string(REGEX MATCH "processed [^\n]*" ${mode}_summary "${${mode}_err}")
  if(NOT ${mode}_code STREQUAL "0" OR ${mode}_summary STREQUAL "")
    message(FATAL_ERROR "${mode} evolve failed (exit '${${mode}_code}'):\n"
                        "${${mode}_out}${${mode}_err}")
  endif()
endforeach()
if(NOT sequential_out STREQUAL batch_out)
  message(FATAL_ERROR "evolved DTDs differ\n--- sequential:\n"
                      "${sequential_out}--- --jobs 2:\n${batch_out}")
endif()
if(NOT sequential_summary STREQUAL batch_summary)
  message(FATAL_ERROR "summaries differ:\n  sequential: ${sequential_summary}"
                      "\n  --jobs 2:   ${batch_summary}")
endif()
