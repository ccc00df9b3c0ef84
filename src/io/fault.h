#ifndef DTDEVOLVE_IO_FAULT_H_
#define DTDEVOLVE_IO_FAULT_H_

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace dtdevolve::io {

/// The faultable operation classes of the `io` layer. Every durable-path
/// primitive (`File::Write`, `File::Allocate`, `File::Fsync`, `Rename`,
/// …) consults the process-wide `FaultInjector` before touching the
/// kernel, so tests and the crash-recovery oracle can fail *exactly* the
/// Nth operation of a workload — deterministic disk-full, short writes,
/// and torn-tail crashes without root, ptrace, or a custom filesystem.
/// `File::DataSync` counts as a `kFsync`.
enum class FaultOp : uint32_t {
  kOpen = 1u << 0,
  kWrite = 1u << 1,
  kFsync = 1u << 2,
  kRename = 1u << 3,
  kUnlink = 1u << 4,
  kTruncate = 1u << 5,
  kFsyncDir = 1u << 6,
  kAllocate = 1u << 7,
};

constexpr uint32_t kAllFaultOps = 0xFFFFFFFFu;

/// One armed fault. Operations matching `op_mask` are counted; the
/// `fail_at`-th one (1-based) fails with `error_code`. `fail_at == 0`
/// arms pure counting — nothing fails, but `ops_seen()` reports how many
/// matching operations a workload performs, which is how the crash
/// oracle enumerates its injection points.
struct FaultPlan {
  uint64_t fail_at = 0;
  uint32_t op_mask = kAllFaultOps;
  /// errno reported by the failing operation (ENOSPC for disk-full runs).
  int error_code = EIO;
  /// When the failing operation is a write, this fraction of the buffer
  /// is persisted before the failure — a torn tail, as a crash mid-write
  /// would leave. 0 persists nothing.
  double torn_fraction = 0.0;
  /// Crash simulation: after the fault fires, every subsequent faultable
  /// operation fails too — the process is "dead" to the disk. Combined
  /// with `torn_fraction` this models power loss mid-write; the caller
  /// then abandons its in-memory state and recovers from disk.
  bool crash = false;
};

/// Process-wide injector. Disarmed by default (one relaxed atomic load on
/// the hot path); `Arm` installs a plan and resets the counters. All
/// entry points are thread-safe — server connection threads hit the
/// injector concurrently under the `durability` test label.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  void Arm(const FaultPlan& plan);
  void Disarm();

  /// Decision for one operation about to run. Returns true when the op
  /// must fail, with `*error_code` set; for writes, `*persist_bytes` is
  /// how many leading bytes to persist before failing.
  bool ShouldFail(FaultOp op, size_t write_size, size_t* persist_bytes,
                  int* error_code);

  /// Matching operations observed since the last `Arm`.
  uint64_t ops_seen() const { return ops_seen_.load(); }
  /// True once a `crash = true` plan has fired.
  bool crash_triggered() const { return crashed_.load(); }

 private:
  FaultInjector() = default;

  std::mutex mutex_;
  FaultPlan plan_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> ops_seen_{0};
};

/// RAII guard for tests: arms on construction, disarms on destruction so
/// a failing assertion can never leak an armed plan into the next test.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) {
    FaultInjector::Instance().Arm(plan);
  }
  ~ScopedFaultPlan() { FaultInjector::Instance().Disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace dtdevolve::io

#endif  // DTDEVOLVE_IO_FAULT_H_
