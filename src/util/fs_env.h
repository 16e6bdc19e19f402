#ifndef FEATSEP_UTIL_FS_ENV_H_
#define FEATSEP_UTIL_FS_ENV_H_

#include <array>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace featsep {

/// Outcome of one filesystem operation. The three-way split matters: a
/// kNotFound is a *miss* (the path simply is not there — a cold cache, an
/// entry another process already removed), while kError is a *fault* (EIO,
/// ENOSPC, permission, injected) that may be transient and is what retry
/// policies and the disk circuit breaker key on. Collapsing the two is
/// exactly the bug class this interface exists to eliminate.
enum class FsStatus : std::uint8_t {
  kOk = 0,
  kNotFound,
  kError,
};

inline const char* FsStatusName(FsStatus status) {
  switch (status) {
    case FsStatus::kOk: return "ok";
    case FsStatus::kNotFound: return "not-found";
    case FsStatus::kError: return "error";
  }
  return "?";
}

/// One entry of a directory listing, with the metadata the disk tier's
/// scans need (GC by size and age).
struct FsDirEntry {
  std::string name;  ///< Filename only, no directory part.
  std::uint64_t size = 0;
  bool is_dir = false;
  std::filesystem::file_time_type mtime{};
};

struct FsListResult {
  std::vector<FsDirEntry> entries;
  /// Entries the scan could not stat or iterate past. Nonzero means
  /// `entries` is incomplete — callers deciding "what is garbage" or "is
  /// everything present" must not treat a partial scan as the whole truth.
  std::uint64_t scan_errors = 0;
  /// kError when the directory itself could not be opened (entries empty).
  FsStatus status = FsStatus::kOk;
};

/// The operation kinds a fault-injecting environment can target.
enum class FsOp : std::uint8_t {
  kRead = 0,
  kWrite,
  kRename,
  kRemove,
  kCreateDirs,
  kList,
};
inline constexpr std::size_t kNumFsOps = 6;

/// Narrow, injectable filesystem interface for the durable tier. Every
/// read/publish/GC path in disk_cache and the serve layer goes through one
/// of these instead of raw <filesystem>, so a deterministic fault-injecting
/// backend (FaultFsEnv) can exercise every error branch the real kernel
/// would only produce under ENOSPC, EIO, or a kill at the worst possible
/// instant. Implementations are thread-safe.
class FsEnv {
 public:
  virtual ~FsEnv() = default;

  /// Reads the whole file into *out. kNotFound when absent.
  virtual FsStatus ReadFile(const std::string& path, std::string* out) = 0;
  /// Creates/truncates and writes `bytes`. Not atomic — use Publish for
  /// anything another process may read concurrently.
  virtual FsStatus WriteFile(const std::string& path,
                             std::string_view bytes) = 0;
  /// Atomic rename. kNotFound when `from` does not exist (a miss, not a
  /// fault).
  virtual FsStatus Rename(const std::string& from, const std::string& to) = 0;
  /// kNotFound when the path was already absent.
  virtual FsStatus Remove(const std::string& path) = 0;
  virtual FsStatus CreateDirs(const std::string& path) = 0;
  virtual FsListResult ListDir(const std::string& path) = 0;

  /// The atomic publish idiom: write `bytes` to `tmp_path`, rename onto
  /// `final_path`, best-effort remove of the tmp on failure. Readers never
  /// observe a partial file under `final_path`; a crash (or injected fault)
  /// between the write and the rename leaves only an orphaned tmp, which
  /// startup GC collects.
  FsStatus Publish(const std::string& tmp_path, const std::string& final_path,
                   std::string_view bytes);
};

/// The real filesystem. Stateless; safe to share across threads.
class RealFsEnv : public FsEnv {
 public:
  FsStatus ReadFile(const std::string& path, std::string* out) override;
  FsStatus WriteFile(const std::string& path, std::string_view bytes) override;
  FsStatus Rename(const std::string& from, const std::string& to) override;
  FsStatus Remove(const std::string& path) override;
  FsStatus CreateDirs(const std::string& path) override;
  FsListResult ListDir(const std::string& path) override;
};

/// Process-wide shared RealFsEnv — the default backend wherever no
/// environment is injected.
FsEnv* RealFs();

struct FaultFsOptions {
  std::uint64_t seed = 1;
  /// Per-operation probability of an injected kError, drawn from a
  /// deterministic stream keyed by (seed, op ordinal).
  double fail_chance = 0.0;
  /// When a WriteFile fails by injection, probability that a *prefix* of the
  /// bytes is left behind — the torn file a crash or ENOSPC mid-write leaves
  /// on a real disk. (The prefix length is drawn from the same stream.)
  double torn_write_chance = 0.0;
  /// When a ListDir fails by injection, probability the failure is a
  /// *partial* scan (a prefix of the entries plus nonzero scan_errors)
  /// rather than a failure to open the directory.
  double partial_list_chance = 0.5;
  /// After this many operations the environment "crashes": every subsequent
  /// op fails, simulating process death at an arbitrary I/O point. 0 = never.
  /// Recovery is a fresh environment (or Recover()) over the same directory.
  std::uint64_t crash_after_ops = 0;
};

struct FaultFsStats {
  std::array<std::uint64_t, kNumFsOps> attempts{};
  std::array<std::uint64_t, kNumFsOps> injected{};
  std::uint64_t total_attempts = 0;
  std::uint64_t total_injected = 0;
};

/// Deterministic fault-injecting decorator over a base environment. Three
/// composable fault sources:
///   - the seeded per-op schedule (FaultFsOptions::fail_chance);
///   - scripted one-shots: FailNext(op, n) forces the next n operations of
///     that kind to fail regardless of the schedule;
///   - the crash point (crash_after_ops / CrashNow()): once crashed, every
///     operation fails until Recover().
/// Failed reads/renames/removes do nothing and report kError; failed
/// writes either leave the target untouched or leave a torn prefix; failed
/// lists either fail to open or return a truncated scan with scan_errors.
/// All decisions come from one seeded stream, so a given (seed, op sequence)
/// replays bit-identically. Thread-safe, though deterministic replay
/// additionally requires a single-threaded op sequence.
class FaultFsEnv : public FsEnv {
 public:
  explicit FaultFsEnv(FaultFsOptions options, FsEnv* base = RealFs());

  /// Force the next `count` operations of kind `op` to fail.
  void FailNext(FsOp op, std::uint64_t count);
  /// Disarms the schedule and all scripted failures (crash state persists).
  void ClearFaults();
  void set_fail_chance(double chance);
  /// Crash immediately: all subsequent ops fail until Recover().
  void CrashNow();
  /// Clears the crashed state — "the process restarted".
  void Recover();
  bool crashed() const;
  FaultFsStats stats() const;

  FsStatus ReadFile(const std::string& path, std::string* out) override;
  FsStatus WriteFile(const std::string& path, std::string_view bytes) override;
  FsStatus Rename(const std::string& from, const std::string& to) override;
  FsStatus Remove(const std::string& path) override;
  FsStatus CreateDirs(const std::string& path) override;
  FsListResult ListDir(const std::string& path) override;

 private:
  /// Draws the next value of the decision stream (locked by the caller).
  std::uint64_t NextDraw();
  /// Records an attempt of `op` and decides whether it fails.
  bool Inject(FsOp op);

  FsEnv* const base_;
  mutable std::mutex mutex_;
  FaultFsOptions options_;
  std::uint64_t rng_state_;
  std::array<std::uint64_t, kNumFsOps> scripted_{};
  bool crashed_ = false;
  FaultFsStats stats_;
};

}  // namespace featsep

#endif  // FEATSEP_UTIL_FS_ENV_H_
