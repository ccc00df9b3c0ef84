// Web catalog scenario: demonstrates the repository of unclassified
// documents and its re-classification after evolution, plus the incremental
// advantage over batch re-inference (the XTRACT-style baseline).
//
// The catalog's product records drift hard (a sale alternative and
// repeatable images). With a strict σ, the early drifted documents are
// rejected into the repository; once the mild drift forces an evolution,
// the evolved DTD recovers them.
//
//   $ ./web_catalog [docs_per_phase]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "baseline/xtract.h"
#include "core/source.h"
#include "dtd/dtd_writer.h"
#include "workload/scenarios.h"

int main(int argc, char** argv) {
  uint64_t docs_per_phase =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 120;

  dtdevolve::workload::ScenarioStream scenario =
      dtdevolve::workload::MakeCatalogScenario(7, docs_per_phase);

  dtdevolve::core::SourceOptions options;
  options.sigma = 0.55;  // strict: heavy drift is rejected at first
  options.tau = 0.1;
  options.min_documents_before_check = 30;
  // The XTRACT contrast below re-reads every classified document.
  options.keep_documents = true;
  dtdevolve::core::XmlSource source(options);
  if (!source.AddDtd("catalog", scenario.InitialDtd()).ok()) return 1;

  size_t max_repository = 0;
  while (!scenario.Done()) {
    auto outcome = source.Process(scenario.Next());
    max_repository = std::max(max_repository, source.repository().size());
    if (outcome.evolved) {
      std::printf(
          "evolution at document %llu; repository recovered %zu document(s)\n",
          static_cast<unsigned long long>(source.documents_processed()),
          outcome.reclassified);
    }
  }

  std::printf("\n== evolved catalog DTD ==\n%s\n",
              dtdevolve::dtd::WriteDtd(*source.FindDtd("catalog")).c_str());
  std::printf("repository high-water mark: %zu, final size: %zu\n",
              max_repository, source.repository().size());

  // Contrast with batch re-inference over the retained instances: XTRACT
  // must re-read every document each time; the evolution phase only reads
  // the recorded aggregates.
  const std::vector<dtdevolve::xml::Document>& instances =
      source.InstancesOf("catalog");
  auto start = std::chrono::steady_clock::now();
  dtdevolve::dtd::Dtd xtract =
      dtdevolve::baseline::InferXtractDtd(instances, "catalog");
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  std::printf("\n== XTRACT-style batch inference over %zu documents "
              "(%lld us) ==\n%s\n",
              instances.size(), static_cast<long long>(elapsed.count()),
              dtdevolve::dtd::WriteDtd(xtract).c_str());
  return 0;
}
