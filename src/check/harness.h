#ifndef DTDEVOLVE_CHECK_HARNESS_H_
#define DTDEVOLVE_CHECK_HARNESS_H_

// Plumbing the oracles in src/check/ share; not part of the check API.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "check/oracle.h"
#include "core/source.h"
#include "store/wal.h"
#include "util/status.h"

namespace dtdevolve::check {

/// Runs one scenario from its seed.
using ScenarioRunner = std::function<ScenarioResult(uint64_t scenario_seed)>;

/// The one sweep loop under every mode: runs `sweep.scenarios` scenarios
/// from `sweep.seed`, adds up their tallies, and stops after
/// `sweep.max_failures` failing ones.
SweepReport SweepSeeds(SweepMode mode, const SweepOptions& sweep,
                       std::string mode_flags, std::string option_flags,
                       const ScenarioRunner& run);

/// Boots `src` (holding its seed DTDs) from the checkpoint and WAL in
/// `dir`, as a restart does.
StatusOr<std::unique_ptr<store::Wal>> RecoverFrom(core::XmlSource& src,
                                                  const std::string& dir);

/// A fresh path under the temp directory (`TMPDIR`); the directory there
/// is removed, with everything in it, when the object goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& label);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace dtdevolve::check

#endif  // DTDEVOLVE_CHECK_HARNESS_H_
