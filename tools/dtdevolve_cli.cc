// dtdevolve — command-line front end.
//
//   dtdevolve validate   <dtd-file> <xml-file>...
//   dtdevolve similarity <dtd-file> <xml-file>...
//   dtdevolve infer      [--xtract|--naive] <root-name> <xml-file>...
//   dtdevolve evolve     <dtd-file> [--sigma S] [--tau T] [--psi P]
//                        [--mu M] [--jobs N] <xml-file>...
//   dtdevolve adapt      <dtd-file> <xml-file>
//   dtdevolve induce     <dtd-file> [--sigma S] [--jobs N]
//                        [--merge-threshold M] [--min-cluster-size N]
//                        [--min-coverage C] [--accept] <xml-file>...
//   dtdevolve serve      <dtd-file>... [--port P] [--jobs N]
//                        [--wal-dir D] [--sigma S] [--tau T]
//                        [--psi P] [--mu M] [--tenants LIST|N]
//                        [--tenant-config FILE]
//                        [--auto-induce-threshold N]
//   dtdevolve check      [--scenarios N] [--seed S] [--max-documents N]
//                        [--max-failures K] [--no-minimize]
//                        [--crash-recovery] [--crash-points N]
//                        [--checkpoint-every K] [--induction]
//                        [--replication] [--overload] [--parse-path]
//                        [--soak]
//
// `evolve --jobs 0` and `induce --jobs 0` score on every core.
//
// Exit code 0 on success; 1 on usage/IO/parse errors; for `validate`,
// 2 when at least one document is invalid; for `induce`, 2 when the
// repository yields no candidate; for `check`, 2 when an invariant was
// violated.
//
// Unknown `--flags` are usage errors everywhere; `serve` additionally
// rejects non-positive --port/--jobs.
//
// `serve` persists through `--wal-dir D` only: each tenant's WAL and
// checkpoints live in D/<tenant>/ (D/default/ for a single-tenant
// server). `--fsync-policy none` skips the per-document fsync; a
// graceful stop still fsyncs the log and checkpoints.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/adapter.h"
#include "baseline/naive_infer.h"
#include "baseline/xtract.h"
#include "check/oracle.h"
#include "check/overload.h"
#include "check/soak.h"
#include "core/source.h"
#include "dtd/diff.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "server/server.h"
#include "similarity/similarity.h"
#include "util/thread_pool.h"
#include "validate/validator.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"
#include "xsd/from_dtd.h"
#include "xsd/writer.h"

namespace {

using dtdevolve::Status;
using dtdevolve::StatusOr;

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

StatusOr<dtdevolve::dtd::Dtd> LoadDtd(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return dtdevolve::dtd::ParseDtd(*text);
}

StatusOr<dtdevolve::xml::Document> LoadDoc(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return dtdevolve::xml::ParseDocument(*text);
}

StatusOr<dtdevolve::xml::ArenaDocument> LoadArenaDoc(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return dtdevolve::xml::ParseArenaDocument(*text);
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dtdevolve validate   <dtd> <xml>...\n"
               "  dtdevolve similarity <dtd> <xml>...\n"
               "  dtdevolve infer      [--xtract|--naive] <root> <xml>...\n"
               "  dtdevolve evolve     <dtd> [--sigma S] [--tau T] "
               "[--psi P] [--mu M] [--jobs N]\n"
               "                       [--score-cache-mb N] "
               "[--classification-memo-mb N] <xml>...\n"
               "  dtdevolve adapt      <dtd> <xml>\n"
               "  dtdevolve induce     <dtd> [--sigma S] [--jobs N] "
               "[--merge-threshold M]\n"
               "                       [--min-cluster-size N] "
               "[--min-coverage C] [--accept] <xml>...\n"
               "  dtdevolve xsd        <dtd>\n"
               "  dtdevolve diff       <old-dtd> <new-dtd>\n"
               "  dtdevolve serve      <dtd>... [--port P] [--jobs N] "
               "[--sigma S] [--tau T]\n"
               "                       [--psi P] [--mu M]\n"
               "                       [--wal-dir D] [--fsync-policy "
               "always|interval|none]\n"
               "                       [--fsync-interval-ms N] "
               "[--checkpoint-interval-ms N]\n"
               "                       [--recv-timeout S] [--send-timeout S] "
               "[--idle-timeout S]\n"
               "                       [--score-cache-mb N] "
               "[--classification-memo-mb N]\n"
               "                       [--tenants LIST|N] "
               "[--tenant-config FILE]\n"
               "                       [--auto-induce-threshold N]\n"
               "                       [--follow URL] "
               "[--poll-interval-ms N]\n"
               "                       [--max-connections N] "
               "[--max-pipeline-depth N]\n"
               "                       [--max-doc-bytes N] "
               "[--tenant-rate R] [--tenant-burst B]\n"
               "                       [--max-repository-docs N]\n"
               "                       [--repository-policy "
               "evict-oldest|reject-new]\n"
               "  dtdevolve check      [--scenarios N] [--seed S] "
               "[--max-documents N]\n"
               "                       [--max-failures K] [--no-minimize]\n"
               "                       [--crash-recovery] [--crash-points N] "
               "[--checkpoint-every K]\n"
               "                       [--induction] [--replication] "
               "[--overload] [--parse-path] [--soak]\n"
               "evolve and induce: --jobs 0 scores on every core.\n");
  return 1;
}

int UnknownFlag(const std::string& flag) {
  std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
  return Usage();
}

bool IsFlag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

/// Strict numeric flag values: the whole argument must parse.
bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

bool ParseLong(const std::string& text, long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtol(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

/// The byte budgets `evolve` and `serve` share, given in MiB:
/// `--score-cache-mb` and `--classification-memo-mb`. Returns false
/// when `args[*i]` is neither flag. Otherwise consumes the value and
/// sets `*bad_value` unless it is a non-negative MiB count whose byte
/// total fits in size_t. A budget of 0 turns the layer off.
bool BudgetFlag(const std::vector<std::string>& args, size_t* i,
                dtdevolve::classify::ClassifierOptions* options,
                bool* bad_value) {
  size_t* bytes = nullptr;
  if (args[*i] == "--score-cache-mb") bytes = &options->score_cache_bytes;
  if (args[*i] == "--classification-memo-mb") {
    bytes = &options->classification_memo_bytes;
  }
  if (bytes == nullptr) return false;
  long mb = 0;
  if (*i + 1 >= args.size() || !ParseLong(args[*i + 1], &mb) || mb < 0 ||
      static_cast<unsigned long>(mb) > (SIZE_MAX >> 20)) {
    *bad_value = true;
    return true;
  }
  ++*i;
  *bytes = static_cast<size_t>(mb) << 20;
  return true;
}

int CmdDiff(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  StatusOr<dtdevolve::dtd::Dtd> old_dtd = LoadDtd(args[0]);
  StatusOr<dtdevolve::dtd::Dtd> new_dtd = LoadDtd(args[1]);
  if (!old_dtd.ok() || !new_dtd.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!old_dtd.ok() ? old_dtd.status() : new_dtd.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  std::printf("%s",
              dtdevolve::dtd::FormatDiff(
                  dtdevolve::dtd::DiffDtds(*old_dtd, *new_dtd))
                  .c_str());
  return 0;
}

int CmdXsd(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  StatusOr<dtdevolve::dtd::Dtd> dtd = LoadDtd(args[0]);
  if (!dtd.ok()) {
    std::fprintf(stderr, "%s\n", dtd.status().ToString().c_str());
    return 1;
  }
  std::printf("%s",
              dtdevolve::xsd::WriteSchema(dtdevolve::xsd::FromDtd(*dtd))
                  .c_str());
  return 0;
}

int CmdValidate(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  StatusOr<dtdevolve::dtd::Dtd> dtd = LoadDtd(args[0]);
  if (!dtd.ok()) {
    std::fprintf(stderr, "%s\n", dtd.status().ToString().c_str());
    return 1;
  }
  dtdevolve::validate::Validator validator(*dtd);
  bool all_valid = true;
  for (size_t i = 1; i < args.size(); ++i) {
    StatusOr<dtdevolve::xml::Document> doc = LoadDoc(args[i]);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", args[i].c_str(),
                   doc.status().ToString().c_str());
      all_valid = false;
      continue;
    }
    dtdevolve::validate::ValidationResult result = validator.Validate(*doc);
    std::printf("%s: %s\n", args[i].c_str(),
                result.valid ? "valid" : "INVALID");
    for (const auto& error : result.errors) {
      std::printf("  %s: %s\n", error.path.c_str(), error.message.c_str());
    }
    all_valid = all_valid && result.valid;
  }
  return all_valid ? 0 : 2;
}

int CmdSimilarity(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  StatusOr<dtdevolve::dtd::Dtd> dtd = LoadDtd(args[0]);
  if (!dtd.ok()) {
    std::fprintf(stderr, "%s\n", dtd.status().ToString().c_str());
    return 1;
  }
  dtdevolve::similarity::SimilarityEvaluator evaluator(*dtd);
  for (size_t i = 1; i < args.size(); ++i) {
    StatusOr<dtdevolve::xml::Document> doc = LoadDoc(args[i]);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", args[i].c_str(),
                   doc.status().ToString().c_str());
      continue;
    }
    std::printf("%s: %.4f\n", args[i].c_str(),
                evaluator.DocumentSimilarity(*doc));
  }
  return 0;
}

int CmdInfer(std::vector<std::string> args) {
  bool use_naive = false;
  if (!args.empty() && (args[0] == "--xtract" || args[0] == "--naive")) {
    use_naive = args[0] == "--naive";
    args.erase(args.begin());
  }
  for (const std::string& arg : args) {
    if (IsFlag(arg)) return UnknownFlag(arg);
  }
  if (args.size() < 2) return Usage();
  const std::string root = args[0];
  std::vector<dtdevolve::xml::Document> docs;
  for (size_t i = 1; i < args.size(); ++i) {
    StatusOr<dtdevolve::xml::Document> doc = LoadDoc(args[i]);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", args[i].c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    docs.push_back(std::move(*doc));
  }
  dtdevolve::dtd::Dtd dtd =
      use_naive ? dtdevolve::baseline::InferNaiveDtd(docs, root)
                : dtdevolve::baseline::InferXtractDtd(docs, root);
  std::printf("%s", dtdevolve::dtd::WriteDtd(dtd).c_str());
  return 0;
}

int CmdEvolve(std::vector<std::string> args) {
  if (args.empty()) return Usage();
  const std::string dtd_path = args[0];
  args.erase(args.begin());

  dtdevolve::core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.15;
  options.min_documents_before_check = 1;
  // --jobs N switches to batch ingest: all documents are loaded up
  // front and scored concurrently on N threads (0 = all cores). The
  // outcome is identical to the sequential one-at-a-time mode.
  long jobs = -1;
  std::vector<std::string> files;
  for (size_t i = 0; i < args.size(); ++i) {
    bool bad_value = false;
    auto flag_value = [&](const char* name, double* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size() || !ParseDouble(args[i + 1], out)) {
        bad_value = true;
        return true;
      }
      ++i;
      return true;
    };
    if (flag_value("--sigma", &options.sigma) ||
        flag_value("--tau", &options.tau) ||
        flag_value("--psi", &options.evolution.psi) ||
        flag_value("--mu", &options.evolution.min_support)) {
      if (bad_value) return Usage();
      continue;
    }
    if (args[i] == "--jobs") {
      if (i + 1 >= args.size() || !ParseLong(args[i + 1], &jobs) || jobs < 0) {
        return Usage();
      }
      ++i;
      continue;
    }
    if (BudgetFlag(args, &i, &options.classifier, &bad_value)) {
      if (bad_value) return Usage();
      continue;
    }
    if (IsFlag(args[i])) return UnknownFlag(args[i]);
    files.push_back(args[i]);
  }
  if (files.empty()) return Usage();

  StatusOr<std::string> dtd_text = ReadFile(dtd_path);
  if (!dtd_text.ok()) {
    std::fprintf(stderr, "%s\n", dtd_text.status().ToString().c_str());
    return 1;
  }
  dtdevolve::core::XmlSource source(options);
  Status added = source.AddDtdText("dtd", *dtd_text);
  if (!added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return 1;
  }
  size_t classified = 0;
  if (jobs >= 0) {
    // Batch ingest: parse everything, then classify in parallel.
    std::vector<dtdevolve::xml::ArenaDocument> docs;
    docs.reserve(files.size());
    for (const std::string& file : files) {
      StatusOr<dtdevolve::xml::ArenaDocument> doc = LoadArenaDoc(file);
      if (!doc.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     doc.status().ToString().c_str());
        return 1;
      }
      docs.push_back(std::move(*doc));
    }
    const size_t threads = jobs == 0
                               ? dtdevolve::util::ThreadPool::DefaultJobs()
                               : static_cast<size_t>(jobs);
    std::optional<dtdevolve::util::ThreadPool> pool;
    if (threads > 1 && docs.size() > 1) pool.emplace(threads);
    for (const auto& outcome :
         source.ProcessBatch(std::move(docs), pool ? &*pool : nullptr)) {
      if (outcome.classified) ++classified;
    }
  } else {
    for (const std::string& file : files) {
      StatusOr<std::string> text = ReadFile(file);
      if (!text.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     text.status().ToString().c_str());
        return 1;
      }
      auto outcome = source.ProcessText(*text);
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     outcome.status().ToString().c_str());
        return 1;
      }
      if (outcome->classified) ++classified;
    }
  }
  // One final forced round absorbs whatever the τ check left pending.
  if (source.FindExtended("dtd")->documents_recorded() > 0 &&
      source.Check("dtd").divergence > 0) {
    source.ForceEvolve("dtd");
  }
  std::fprintf(stderr,
               "processed %zu file(s), classified %zu, repository %zu, "
               "evolutions %llu\n",
               files.size(), classified, source.repository().size(),
               static_cast<unsigned long long>(
                   source.evolutions_performed()));
  std::printf("%s", dtdevolve::dtd::WriteDtd(*source.FindDtd("dtd")).c_str());
  return 0;
}

int CmdAdapt(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  StatusOr<dtdevolve::dtd::Dtd> dtd = LoadDtd(args[0]);
  if (!dtd.ok()) {
    std::fprintf(stderr, "%s\n", dtd.status().ToString().c_str());
    return 1;
  }
  StatusOr<dtdevolve::xml::Document> doc = LoadDoc(args[1]);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  dtdevolve::adapt::AdaptReport report;
  Status adapted = dtdevolve::adapt::AdaptDocument(*doc, *dtd, {}, &report);
  if (!adapted.ok()) {
    std::fprintf(stderr, "%s\n", adapted.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "dropped %llu, moved %llu, inserted %llu\n",
               static_cast<unsigned long long>(report.children_dropped),
               static_cast<unsigned long long>(report.children_moved),
               static_cast<unsigned long long>(report.children_inserted));
  std::printf("%s\n", dtdevolve::xml::WriteDocument(*doc).c_str());
  return 0;
}

/// "schemas/mail.dtd" → "mail": the served (or induced-over) DTD name is
/// the file's basename without its extension.
std::string DtdNameFromPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  return name.empty() ? path : name;
}

/// Offline induction: feed the documents through the pipeline with the
/// seed DTD, cluster whatever lands in the repository, and print one
/// candidate DTD per cluster. `--accept` additionally promotes the
/// candidates (best coverage first, re-inducing between accepts because
/// an accept re-classifies the repository) and prints the final DTD set.
int CmdInduce(std::vector<std::string> args) {
  if (args.empty()) return Usage();
  const std::string dtd_path = args[0];
  args.erase(args.begin());

  dtdevolve::core::SourceOptions options;
  options.sigma = 0.5;
  options.auto_evolve = false;
  long jobs = 1;
  bool accept = false;
  std::vector<std::string> files;
  for (size_t i = 0; i < args.size(); ++i) {
    bool bad_value = false;
    auto flag_value = [&](const char* name, double* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size() || !ParseDouble(args[i + 1], out)) {
        bad_value = true;
        return true;
      }
      ++i;
      return true;
    };
    if (flag_value("--sigma", &options.sigma) ||
        flag_value("--merge-threshold",
                   &options.induce.cluster.merge_threshold) ||
        flag_value("--min-coverage", &options.induce.min_coverage)) {
      if (bad_value) return Usage();
      continue;
    }
    if (args[i] == "--min-cluster-size" || args[i] == "--jobs") {
      long value = 0;
      const bool is_jobs = args[i] == "--jobs";
      if (i + 1 >= args.size() || !ParseLong(args[i + 1], &value) ||
          value < (is_jobs ? 0 : 1)) {
        return Usage();
      }
      ++i;
      if (is_jobs) {
        jobs = value;
      } else {
        options.induce.cluster.min_cluster_size = static_cast<size_t>(value);
      }
      continue;
    }
    if (args[i] == "--accept") {
      accept = true;
      continue;
    }
    if (IsFlag(args[i])) return UnknownFlag(args[i]);
    files.push_back(args[i]);
  }
  if (files.empty()) return Usage();

  StatusOr<std::string> dtd_text = ReadFile(dtd_path);
  if (!dtd_text.ok()) {
    std::fprintf(stderr, "%s\n", dtd_text.status().ToString().c_str());
    return 1;
  }
  dtdevolve::core::XmlSource source(options);
  Status added = source.AddDtdText(DtdNameFromPath(dtd_path), *dtd_text);
  if (!added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return 1;
  }
  for (const std::string& file : files) {
    StatusOr<std::string> text = ReadFile(file);
    if (!text.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   text.status().ToString().c_str());
      return 1;
    }
    auto outcome = source.ProcessText(*text);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   outcome.status().ToString().c_str());
      return 1;
    }
  }

  size_t induced = source.InduceCandidates();
  std::fprintf(stderr,
               "repository %zu document(s), %zu cluster(s), "
               "%zu candidate(s)\n",
               source.repository().size(), source.cluster_stats().clusters,
               induced);
  for (const auto& candidate : source.candidates()) {
    std::printf("# candidate %llu: %s (members %zu, validated %zu, "
                "coverage %.2f, margin %.2f)\n%s",
                static_cast<unsigned long long>(candidate.id),
                candidate.name.c_str(), candidate.members.size(),
                candidate.validated.size(), candidate.coverage,
                candidate.margin,
                dtdevolve::dtd::WriteDtd(candidate.ext.dtd()).c_str());
  }
  if (induced == 0) return 2;
  if (!accept) return 0;

  // Promote best-coverage-first; each accept re-classifies the
  // repository, so re-induce between rounds. A cluster whose members
  // never re-classify would re-induce forever, so stop as soon as a
  // round fails to shrink the repository. Every round re-scores on the
  // same pool.
  const size_t threads = jobs == 0
                             ? dtdevolve::util::ThreadPool::DefaultJobs()
                             : static_cast<size_t>(jobs);
  std::optional<dtdevolve::util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  while (!source.candidates().empty()) {
    const dtdevolve::induce::Candidate* best = nullptr;
    for (const auto& candidate : source.candidates()) {
      if (best == nullptr || candidate.coverage > best->coverage) {
        best = &candidate;
      }
    }
    StatusOr<dtdevolve::core::XmlSource::AcceptOutcome> outcome =
        source.AcceptCandidate(best->id, pool ? &*pool : nullptr);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "accepted %s: %zu member(s), %zu re-classified, "
                 "repository now %zu\n",
                 outcome->dtd_name.c_str(), outcome->members,
                 outcome->reclassified, source.repository().size());
    if (outcome->reclassified == 0) break;
    source.InduceCandidates();
  }
  std::fprintf(stderr, "final dtd set:");
  for (const std::string& name : source.DtdNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 0;
}

// `serve` wires SIGINT/SIGTERM to a graceful stop; IngestServer::Shutdown
// is async-signal-safe, so the handler may call it directly.
dtdevolve::server::IngestServer* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) g_server->Shutdown();
}

/// `--tenants` value: either a count ("4" → shard-0..shard-3) or a
/// comma-separated name list ("acme,globex"). Returns false on an empty
/// value, an empty name, or a duplicate.
bool ParseTenantsFlag(const std::string& value,
                      std::vector<std::string>* tenants) {
  long count = 0;
  if (ParseLong(value, &count)) {
    if (count <= 0) return false;
    for (long t = 0; t < count; ++t) {
      tenants->push_back("shard-" + std::to_string(t));
    }
    return true;
  }
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    const std::string name =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (name.empty()) return false;
    for (const std::string& existing : *tenants) {
      if (existing == name) return false;
    }
    tenants->push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !tenants->empty();
}

/// A `--tenant-config` file: one tenant per line, `<tenant> <dtd-file>...`
/// (blank lines and `#` comments skipped). Every named tenant becomes a
/// shard; its DTD files seed only that shard. Tokens containing `=` are
/// per-tenant quota overrides instead of DTD files: `rate=R`, `burst=B`,
/// `max-doc-bytes=N`, `max-repository-docs=N` (fields not named inherit
/// the process-wide `--tenant-rate`/`--max-doc-bytes`/... defaults).
struct TenantSeed {
  std::string tenant;
  std::vector<std::string> dtd_files;
  dtdevolve::server::TenantQuota quota;
  bool has_quota = false;
};

bool ParseTenantConfig(const std::string& text,
                       std::vector<TenantSeed>* seeds) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string tenant;
    if (!(fields >> tenant) || tenant[0] == '#') continue;
    TenantSeed seed;
    seed.tenant = tenant;
    std::string token;
    while (fields >> token) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        seed.dtd_files.push_back(token);
        continue;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      double rate = 0.0;
      long count = 0;
      if (key == "rate" && ParseDouble(value, &rate) && rate >= 0.0) {
        seed.quota.rate = rate;
      } else if (key == "burst" && ParseDouble(value, &rate) && rate >= 0.0) {
        seed.quota.burst = rate;
      } else if (key == "max-doc-bytes" && ParseLong(value, &count) &&
                 count >= 0) {
        seed.quota.max_doc_bytes = count;
      } else if (key == "max-repository-docs" && ParseLong(value, &count) &&
                 count >= 0) {
        seed.quota.max_repository_docs = count;
      } else {
        return false;  // unknown quota key or bad value
      }
      seed.has_quota = true;
    }
    seeds->push_back(std::move(seed));
  }
  return !seeds->empty();
}

int CmdServe(std::vector<std::string> args) {
  dtdevolve::core::SourceOptions source_options;
  source_options.sigma = 0.3;
  source_options.tau = 0.15;
  source_options.min_documents_before_check = 1;
  dtdevolve::server::ServerOptions server_options;
  std::vector<std::string> dtd_files;
  std::vector<TenantSeed> tenant_seeds;
  for (size_t i = 0; i < args.size(); ++i) {
    bool bad_value = false;
    auto flag_value = [&](const char* name, double* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size() || !ParseDouble(args[i + 1], out)) {
        bad_value = true;
        return true;
      }
      ++i;
      return true;
    };
    auto positive_long = [&](const char* name, long* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size() || !ParseLong(args[i + 1], out) || *out <= 0) {
        bad_value = true;
        return true;
      }
      ++i;
      return true;
    };
    // For flags where zero is a documented "disabled" value.
    auto nonnegative_long = [&](const char* name, long* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size() || !ParseLong(args[i + 1], out) || *out < 0) {
        bad_value = true;
        return true;
      }
      ++i;
      return true;
    };
    if (flag_value("--sigma", &source_options.sigma) ||
        flag_value("--tau", &source_options.tau) ||
        flag_value("--psi", &source_options.evolution.psi) ||
        flag_value("--mu", &source_options.evolution.min_support)) {
      if (bad_value) return Usage();
      continue;
    }
    long value = 0;
    if (positive_long("--port", &value)) {
      if (bad_value || value > 65535) return Usage();
      server_options.port = static_cast<uint16_t>(value);
      continue;
    }
    if (positive_long("--jobs", &value)) {
      if (bad_value) return Usage();
      server_options.jobs = static_cast<size_t>(value);
      continue;
    }
    if (args[i] == "--wal-dir") {
      if (i + 1 >= args.size()) return Usage();
      server_options.wal_dir = args[++i];
      continue;
    }
    if (args[i] == "--fsync-policy") {
      if (i + 1 >= args.size() ||
          !dtdevolve::store::ParseFsyncPolicy(args[i + 1],
                                              &server_options.fsync_policy)) {
        return Usage();
      }
      ++i;
      continue;
    }
    if (positive_long("--fsync-interval-ms", &value)) {
      if (bad_value) return Usage();
      server_options.fsync_interval = std::chrono::milliseconds(value);
      continue;
    }
    if (nonnegative_long("--checkpoint-interval-ms", &value)) {
      if (bad_value) return Usage();
      server_options.checkpoint_interval = std::chrono::milliseconds(value);
      continue;
    }
    if (nonnegative_long("--recv-timeout", &value)) {
      if (bad_value) return Usage();
      server_options.recv_timeout_seconds = static_cast<int>(value);
      continue;
    }
    if (nonnegative_long("--send-timeout", &value)) {
      if (bad_value) return Usage();
      server_options.send_timeout_seconds = static_cast<int>(value);
      continue;
    }
    if (nonnegative_long("--idle-timeout", &value)) {
      if (bad_value) return Usage();
      server_options.idle_timeout_seconds = static_cast<int>(value);
      continue;
    }
    if (args[i] == "--follow") {
      if (i + 1 >= args.size()) return Usage();
      server_options.follow_url = args[++i];
      continue;
    }
    if (positive_long("--poll-interval-ms", &value)) {
      if (bad_value) return Usage();
      server_options.follow_poll_interval = std::chrono::milliseconds(value);
      continue;
    }
    if (BudgetFlag(args, &i, &source_options.classifier, &bad_value)) {
      if (bad_value) return Usage();
      continue;
    }
    if (nonnegative_long("--auto-induce-threshold", &value)) {
      if (bad_value) return Usage();
      server_options.auto_induce_threshold = static_cast<size_t>(value);
      continue;
    }
    if (nonnegative_long("--max-connections", &value)) {
      if (bad_value) return Usage();
      server_options.max_connections = static_cast<size_t>(value);
      continue;
    }
    if (nonnegative_long("--max-pipeline-depth", &value)) {
      if (bad_value) return Usage();
      server_options.max_pipeline_depth = static_cast<size_t>(value);
      continue;
    }
    if (nonnegative_long("--max-doc-bytes", &value)) {
      if (bad_value) return Usage();
      server_options.max_doc_bytes = static_cast<size_t>(value);
      continue;
    }
    if (nonnegative_long("--max-repository-docs", &value)) {
      if (bad_value) return Usage();
      server_options.max_repository_docs = static_cast<size_t>(value);
      continue;
    }
    double rate = 0.0;
    if (flag_value("--tenant-rate", &rate)) {
      if (bad_value || rate < 0.0) return Usage();
      server_options.tenant_rate = rate;
      continue;
    }
    if (flag_value("--tenant-burst", &rate)) {
      if (bad_value || rate < 0.0) return Usage();
      server_options.tenant_burst = rate;
      continue;
    }
    if (args[i] == "--repository-policy") {
      if (i + 1 >= args.size()) return Usage();
      const std::string& policy = args[++i];
      if (policy == "evict-oldest") {
        server_options.repository_policy =
            dtdevolve::server::RepositoryQuotaPolicy::kEvictOldest;
      } else if (policy == "reject-new") {
        server_options.repository_policy =
            dtdevolve::server::RepositoryQuotaPolicy::kRejectNew;
      } else {
        return Usage();
      }
      continue;
    }
    if (args[i] == "--tenants") {
      if (i + 1 >= args.size() ||
          !ParseTenantsFlag(args[i + 1], &server_options.tenants)) {
        return Usage();
      }
      ++i;
      continue;
    }
    if (args[i] == "--tenant-config") {
      if (i + 1 >= args.size()) return Usage();
      StatusOr<std::string> config = ReadFile(args[++i]);
      if (!config.ok()) {
        std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
        return 1;
      }
      if (!ParseTenantConfig(*config, &tenant_seeds)) {
        std::fprintf(stderr, "dtdevolve serve: empty tenant config\n");
        return 1;
      }
      continue;
    }
    if (IsFlag(args[i])) return UnknownFlag(args[i]);
    dtd_files.push_back(args[i]);
  }
  if (dtd_files.empty() && tenant_seeds.empty()) return Usage();

  // Shards exist from construction on, so the tenant set — flags plus
  // every tenant the config file names — must be final here.
  for (const TenantSeed& seed : tenant_seeds) {
    bool known = false;
    for (const std::string& tenant : server_options.tenants) {
      known = known || tenant == seed.tenant;
    }
    if (!known) server_options.tenants.push_back(seed.tenant);
    if (seed.has_quota) server_options.tenant_quotas[seed.tenant] = seed.quota;
  }

  dtdevolve::server::IngestServer server(source_options, server_options);
  // Positional DTD files seed every shard; config entries one shard.
  for (const std::string& file : dtd_files) {
    StatusOr<std::string> text = ReadFile(file);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    Status added = server.AddDtdText(DtdNameFromPath(file), *text);
    if (!added.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   added.ToString().c_str());
      return 1;
    }
  }
  for (const TenantSeed& seed : tenant_seeds) {
    for (const std::string& file : seed.dtd_files) {
      StatusOr<std::string> text = ReadFile(file);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 1;
      }
      Status added = server.AddTenantDtdText(seed.tenant,
                                             DtdNameFromPath(file), *text);
      if (!added.ok()) {
        std::fprintf(stderr, "%s (tenant %s): %s\n", file.c_str(),
                     seed.tenant.c_str(), added.ToString().c_str());
        return 1;
      }
    }
  }

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  for (const std::string& warning : server.boot_warnings()) {
    std::fprintf(stderr, "dtdevolve serve: warning: %s\n", warning.c_str());
  }
  if (!server_options.wal_dir.empty()) {
    for (const std::string& tenant : server.manager().TenantNames()) {
      const dtdevolve::store::RecoveryReport& recovery =
          server.recovery_report(tenant);
      std::fprintf(stderr,
                   "dtdevolve serve: %s: recovered checkpoint lsn %llu, "
                   "replayed %zu WAL record(s)\n",
                   tenant.c_str(),
                   static_cast<unsigned long long>(recovery.checkpoint_lsn),
                   recovery.replayed_records);
    }
  }

  g_server = &server;
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  std::fprintf(stderr,
               "dtdevolve serve: listening on port %u (%zu tenant(s), "
               "%zu shared dtd(s))\n",
               static_cast<unsigned>(server.port()),
               server.manager().TenantNames().size(), dtd_files.size());
  server.Wait();
  g_server = nullptr;
  std::fprintf(stderr, "dtdevolve serve: drained and stopped\n");
  return 0;
}

/// The correctness oracles (src/check). Without a mode flag, the
/// differential oracle replays seeded drift scenarios through the full
/// pipeline and checks the evolution invariants after every step; on
/// failure the first failing scenario is shrunk to the shortest document
/// prefix that still fails. Every failure prints a replay command line.
int CmdCheck(std::vector<std::string> args) {
  namespace check = dtdevolve::check;
  auto has = [&args](std::string_view flag) {
    return std::find(args.begin(), args.end(), flag) != args.end();
  };
  check::OracleOptions oracle;
  check::CrashOracleOptions crash;
  check::InductionOracleOptions induction;
  check::ReplicationOracleOptions replication;
  check::OverloadOracleOptions overload;
  check::ParsePathOracleOptions parse_path;
  crash.induction = has("--induction");

  // The mode's options start at its defaults; the flags below override
  // its sweep. --induction with --crash-recovery sweeps induction
  // scenarios through the crash sweep; replication scenarios already mix
  // induction in.
  check::SweepOptions* sweep = nullptr;
  std::function<check::SweepReport()> run;
  auto mode = [&](auto& options) {
    sweep = &options.sweep;
    run = [&options] { return check::RunSweep(options); };
  };
  if (has("--parse-path")) {
    mode(parse_path);
  } else if (has("--overload")) {
    mode(overload);
  } else if (has("--replication")) {
    mode(replication);
  } else if (has("--crash-recovery")) {
    mode(crash);
  } else if (has("--induction")) {
    mode(induction);
  } else {
    mode(oracle);
  }

  bool minimize = true;
  for (size_t i = 0; i < args.size(); ++i) {
    bool bad_value = false;
    auto long_value = [&](const char* name, long min, long* out) {
      if (args[i] != name) return false;
      if (i + 1 >= args.size() || !ParseLong(args[i + 1], out) || *out < min) {
        bad_value = true;
        return true;
      }
      ++i;
      return true;
    };
    long value = 0;
    if (long_value("--scenarios", 1, &value)) {
      if (bad_value) return Usage();
      sweep->scenarios = static_cast<uint64_t>(value);
      continue;
    }
    if (long_value("--seed", 0, &value)) {
      if (bad_value) return Usage();
      sweep->seed = static_cast<uint64_t>(value);
      continue;
    }
    if (long_value("--max-documents", 0, &value)) {
      if (bad_value) return Usage();
      sweep->max_documents = static_cast<uint64_t>(value);
      continue;
    }
    if (long_value("--max-failures", 1, &value)) {
      if (bad_value) return Usage();
      sweep->max_failures = static_cast<uint64_t>(value);
      continue;
    }
    if (long_value("--crash-points", 0, &value)) {
      if (bad_value) return Usage();
      crash.max_crash_points = static_cast<uint64_t>(value);
      continue;
    }
    if (long_value("--checkpoint-every", 0, &value)) {
      if (bad_value) return Usage();
      crash.checkpoint_every = static_cast<uint64_t>(value);
      replication.checkpoint_every = static_cast<uint64_t>(value);
      continue;
    }
    if (args[i] == "--crash-recovery" || args[i] == "--replication" ||
        args[i] == "--overload" || args[i] == "--parse-path" ||
        args[i] == "--soak" || args[i] == "--induction") {
      continue;
    }
    if (args[i] == "--no-minimize") {
      minimize = false;
      continue;
    }
    if (IsFlag(args[i])) return UnknownFlag(args[i]);
    return Usage();  // check takes no positional arguments
  }

  if (has("--soak")) {
    // Bounded memory: a fixed-length serving stream through one source
    // and through a live 4-tenant manager; RSS must plateau.
    check::SoakReport soak_report = check::RunSoak();
    std::printf("%s", check::FormatSoakReport(soak_report).c_str());
    return soak_report.ok() ? 0 : 2;
  }

  const check::SweepReport report = run();
  std::printf("%s", check::FormatSweepReport(report).c_str());
  if (report.ok()) return 0;

  if (report.mode == check::SweepMode::kDifferential && minimize) {
    const check::ScenarioResult shrunk =
        check::MinimizeFailure(report.failures.front().seed, oracle);
    std::printf("minimized %s", check::FormatScenario(shrunk).c_str());
    std::printf(
        "  replay: dtdevolve check --seed %llu --scenarios 1 "
        "--max-documents %llu\n",
        static_cast<unsigned long long>(shrunk.seed),
        static_cast<unsigned long long>(shrunk.documents));
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "validate") return CmdValidate(args);
  if (command == "similarity") return CmdSimilarity(args);
  if (command == "infer") return CmdInfer(std::move(args));
  if (command == "evolve") return CmdEvolve(std::move(args));
  if (command == "adapt") return CmdAdapt(args);
  if (command == "induce") return CmdInduce(std::move(args));
  if (command == "xsd") return CmdXsd(args);
  if (command == "diff") return CmdDiff(args);
  if (command == "serve") return CmdServe(std::move(args));
  if (command == "check") return CmdCheck(std::move(args));
  return Usage();
}
