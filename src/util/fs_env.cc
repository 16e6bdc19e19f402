#include "util/fs_env.h"

#include <fstream>
#include <sstream>
#include <system_error>

namespace featsep {

namespace fs = std::filesystem;

FsStatus FsEnv::Publish(const std::string& tmp_path,
                        const std::string& final_path,
                        std::string_view bytes) {
  FsStatus wrote = WriteFile(tmp_path, bytes);
  if (wrote != FsStatus::kOk) {
    Remove(tmp_path);  // Best effort; startup GC handles survivors.
    return FsStatus::kError;
  }
  FsStatus renamed = Rename(tmp_path, final_path);
  if (renamed != FsStatus::kOk) {
    Remove(tmp_path);
    return FsStatus::kError;
  }
  return FsStatus::kOk;
}

FsStatus RealFsEnv::ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::error_code ec;
    return fs::exists(path, ec) ? FsStatus::kError : FsStatus::kNotFound;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return FsStatus::kError;
  *out = buffer.str();
  return FsStatus::kOk;
}

FsStatus RealFsEnv::WriteFile(const std::string& path,
                              std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return FsStatus::kError;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return out.good() ? FsStatus::kOk : FsStatus::kError;
}

FsStatus RealFsEnv::Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (!ec) return FsStatus::kOk;
  // A missing source is a miss, not a fault.
  if (ec == std::errc::no_such_file_or_directory) return FsStatus::kNotFound;
  return FsStatus::kError;
}

FsStatus RealFsEnv::Remove(const std::string& path) {
  std::error_code ec;
  const bool removed = fs::remove(path, ec);
  if (ec) return FsStatus::kError;
  return removed ? FsStatus::kOk : FsStatus::kNotFound;
}

FsStatus RealFsEnv::CreateDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  return ec ? FsStatus::kError : FsStatus::kOk;
}

FsListResult RealFsEnv::ListDir(const std::string& path) {
  FsListResult result;
  std::error_code ec;
  fs::directory_iterator it(path, ec);
  if (ec) {
    result.status = FsStatus::kError;
    return result;
  }
  // Manual advance: a range-for swallows increment errors by ending the
  // loop, silently truncating the scan. Count them instead.
  const fs::directory_iterator end;
  while (it != end) {
    std::error_code entry_ec;
    FsDirEntry entry;
    entry.name = it->path().filename().string();
    entry.is_dir = it->is_directory(entry_ec) && !entry_ec;
    entry.size = !entry.is_dir && it->is_regular_file(entry_ec) && !entry_ec
                     ? static_cast<std::uint64_t>(it->file_size(entry_ec))
                     : 0;
    if (entry_ec) {
      ++result.scan_errors;
    } else {
      entry.mtime = it->last_write_time(entry_ec);
      if (entry_ec) {
        ++result.scan_errors;
      } else {
        result.entries.push_back(std::move(entry));
      }
    }
    it.increment(ec);
    if (ec) {
      ++result.scan_errors;
      break;
    }
  }
  return result;
}

FsEnv* RealFs() {
  static RealFsEnv env;
  return &env;
}

FaultFsEnv::FaultFsEnv(FaultFsOptions options, FsEnv* base)
    : base_(base),
      options_(options),
      rng_state_(options.seed == 0 ? 0x9e3779b9 : options.seed) {}

void FaultFsEnv::FailNext(FsOp op, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  scripted_[static_cast<std::size_t>(op)] += count;
}

void FaultFsEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  options_.fail_chance = 0.0;
  scripted_.fill(0);
}

void FaultFsEnv::set_fail_chance(double chance) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_.fail_chance = chance;
}

void FaultFsEnv::CrashNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  crashed_ = true;
}

void FaultFsEnv::Recover() {
  std::lock_guard<std::mutex> lock(mutex_);
  crashed_ = false;
  // Disarm the crash point too: total_attempts is already past it, and a
  // recovered "process" must not re-crash on its first post-restart op.
  options_.crash_after_ops = 0;
}

bool FaultFsEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crashed_;
}

FaultFsStats FaultFsEnv::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t FaultFsEnv::NextDraw() {
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  return rng_state_ * 0x2545f4914f6cdd1dULL;
}

bool FaultFsEnv::Inject(FsOp op) {
  const std::size_t idx = static_cast<std::size_t>(op);
  ++stats_.attempts[idx];
  ++stats_.total_attempts;
  bool fail = false;
  if (options_.crash_after_ops != 0 && !crashed_ &&
      stats_.total_attempts >= options_.crash_after_ops) {
    crashed_ = true;
  }
  if (crashed_) {
    fail = true;
  } else if (scripted_[idx] > 0) {
    --scripted_[idx];
    fail = true;
  } else if (options_.fail_chance > 0.0) {
    const double draw = static_cast<double>(NextDraw() >> 11) * 0x1.0p-53;
    fail = draw < options_.fail_chance;
  }
  if (fail) {
    ++stats_.injected[idx];
    ++stats_.total_injected;
  }
  return fail;
}

FsStatus FaultFsEnv::ReadFile(const std::string& path, std::string* out) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Inject(FsOp::kRead)) return FsStatus::kError;
  }
  return base_->ReadFile(path, out);
}

FsStatus FaultFsEnv::WriteFile(const std::string& path,
                               std::string_view bytes) {
  std::size_t torn_prefix = 0;
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Inject(FsOp::kWrite)) {
      fail = true;
      const double draw = static_cast<double>(NextDraw() >> 11) * 0x1.0p-53;
      if (draw < options_.torn_write_chance && !bytes.empty()) {
        torn_prefix = static_cast<std::size_t>(NextDraw() % bytes.size());
      }
    }
  }
  if (!fail) return base_->WriteFile(path, bytes);
  if (torn_prefix > 0) {
    // The crash/ENOSPC shape: a prefix of the payload is on disk, the
    // checksum line is not. Readers must detect and drop it.
    base_->WriteFile(path, bytes.substr(0, torn_prefix));
  }
  return FsStatus::kError;
}

FsStatus FaultFsEnv::Rename(const std::string& from, const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Inject(FsOp::kRename)) return FsStatus::kError;
  }
  return base_->Rename(from, to);
}

FsStatus FaultFsEnv::Remove(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Inject(FsOp::kRemove)) return FsStatus::kError;
  }
  return base_->Remove(path);
}

FsStatus FaultFsEnv::CreateDirs(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Inject(FsOp::kCreateDirs)) return FsStatus::kError;
  }
  return base_->CreateDirs(path);
}

FsListResult FaultFsEnv::ListDir(const std::string& path) {
  bool fail = false;
  bool partial = false;
  std::uint64_t keep_draw = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Inject(FsOp::kList)) {
      fail = true;
      const double draw = static_cast<double>(NextDraw() >> 11) * 0x1.0p-53;
      partial = !crashed_ && draw < options_.partial_list_chance;
      keep_draw = NextDraw();
    }
  }
  if (!fail) return base_->ListDir(path);
  if (partial) {
    FsListResult full = base_->ListDir(path);
    if (full.status == FsStatus::kOk && !full.entries.empty()) {
      const std::size_t keep = keep_draw % full.entries.size();
      full.scan_errors += full.entries.size() - keep;
      full.entries.resize(keep);
      return full;
    }
  }
  FsListResult result;
  result.status = FsStatus::kError;
  return result;
}

}  // namespace featsep
