#include "util/fs_env.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace featsep {
namespace {

namespace fs = std::filesystem;

/// A scratch directory unique to this process and test.
std::string ScratchDir(const std::string& tag) {
  static int counter = 0;
  std::string name = "featsep-fs-env-" + tag + "-";
#ifndef _WIN32
  name += std::to_string(::getpid()) + "-";
#endif
  name += std::to_string(counter++);
  fs::path dir = fs::temp_directory_path() / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

TEST(RealFsEnvTest, ReadWriteRoundTrip) {
  const std::string dir = ScratchDir("rw");
  FsEnv* env = RealFs();
  const std::string path = dir + "/file.txt";
  EXPECT_EQ(env->WriteFile(path, "payload\n"), FsStatus::kOk);
  std::string bytes;
  EXPECT_EQ(env->ReadFile(path, &bytes), FsStatus::kOk);
  EXPECT_EQ(bytes, "payload\n");
  EXPECT_TRUE(fs::exists(path));
}

TEST(RealFsEnvTest, MissingFileIsNotFoundNotError) {
  const std::string dir = ScratchDir("missing");
  FsEnv* env = RealFs();
  std::string bytes;
  EXPECT_EQ(env->ReadFile(dir + "/absent", &bytes), FsStatus::kNotFound);
  EXPECT_EQ(env->Remove(dir + "/absent"), FsStatus::kNotFound);
  EXPECT_FALSE(fs::exists(dir + "/absent"));
}

TEST(RealFsEnvTest, RenameMissingSourceIsNotFound) {
  // The lost-claim-race signature: a missing rename source must be
  // distinguishable from a filesystem fault.
  const std::string dir = ScratchDir("rename");
  FsEnv* env = RealFs();
  EXPECT_EQ(env->Rename(dir + "/absent", dir + "/target"),
            FsStatus::kNotFound);
  ASSERT_EQ(env->WriteFile(dir + "/src", "x"), FsStatus::kOk);
  EXPECT_EQ(env->Rename(dir + "/src", dir + "/dst"), FsStatus::kOk);
  EXPECT_FALSE(fs::exists(dir + "/src"));
  EXPECT_TRUE(fs::exists(dir + "/dst"));
}

TEST(RealFsEnvTest, ListDirReportsEntriesWithMetadata) {
  const std::string dir = ScratchDir("list");
  FsEnv* env = RealFs();
  ASSERT_EQ(env->WriteFile(dir + "/a.txt", "aaaa"), FsStatus::kOk);
  ASSERT_EQ(env->CreateDirs(dir + "/sub"), FsStatus::kOk);
  FsListResult listing = env->ListDir(dir);
  ASSERT_EQ(listing.status, FsStatus::kOk);
  EXPECT_EQ(listing.scan_errors, 0u);
  ASSERT_EQ(listing.entries.size(), 2u);
  std::sort(listing.entries.begin(), listing.entries.end(),
            [](const FsDirEntry& a, const FsDirEntry& b) {
              return a.name < b.name;
            });
  EXPECT_EQ(listing.entries[0].name, "a.txt");
  EXPECT_FALSE(listing.entries[0].is_dir);
  EXPECT_EQ(listing.entries[0].size, 4u);
  EXPECT_EQ(listing.entries[1].name, "sub");
  EXPECT_TRUE(listing.entries[1].is_dir);
}

TEST(RealFsEnvTest, ListMissingDirIsError) {
  const std::string dir = ScratchDir("list-missing");
  FsListResult listing = RealFs()->ListDir(dir + "/nope");
  EXPECT_EQ(listing.status, FsStatus::kError);
  EXPECT_TRUE(listing.entries.empty());
}

TEST(RealFsEnvTest, PublishIsAtomicAndCleansTmpOnSuccess) {
  const std::string dir = ScratchDir("publish");
  FsEnv* env = RealFs();
  EXPECT_EQ(env->Publish(dir + "/t.tmp", dir + "/final", "bytes"),
            FsStatus::kOk);
  std::string bytes;
  EXPECT_EQ(env->ReadFile(dir + "/final", &bytes), FsStatus::kOk);
  EXPECT_EQ(bytes, "bytes");
  EXPECT_FALSE(fs::exists(dir + "/t.tmp"));
}

TEST(FaultFsEnvTest, ZeroChanceInjectsNothing) {
  const std::string dir = ScratchDir("clean");
  FaultFsEnv env(FaultFsOptions{});
  EXPECT_EQ(env.WriteFile(dir + "/f", "x"), FsStatus::kOk);
  std::string bytes;
  EXPECT_EQ(env.ReadFile(dir + "/f", &bytes), FsStatus::kOk);
  EXPECT_EQ(bytes, "x");
  EXPECT_EQ(env.stats().total_injected, 0u);
  EXPECT_GT(env.stats().total_attempts, 0u);
}

TEST(FaultFsEnvTest, ScriptedFailuresFireExactlyNTimes) {
  const std::string dir = ScratchDir("scripted");
  FaultFsEnv env(FaultFsOptions{});
  env.FailNext(FsOp::kWrite, 2);
  EXPECT_EQ(env.WriteFile(dir + "/f", "x"), FsStatus::kError);
  EXPECT_EQ(env.WriteFile(dir + "/f", "x"), FsStatus::kError);
  EXPECT_EQ(env.WriteFile(dir + "/f", "x"), FsStatus::kOk);
  // Scripted failures target their op kind only.
  env.FailNext(FsOp::kRead, 1);
  EXPECT_EQ(env.WriteFile(dir + "/g", "y"), FsStatus::kOk);
  std::string bytes;
  EXPECT_EQ(env.ReadFile(dir + "/g", &bytes), FsStatus::kError);
  EXPECT_EQ(env.ReadFile(dir + "/g", &bytes), FsStatus::kOk);
}

TEST(FaultFsEnvTest, DeterministicReplayForSameSeed) {
  const std::string dir = ScratchDir("replay");
  auto trace = [&](std::uint64_t seed) {
    FaultFsOptions options;
    options.seed = seed;
    options.fail_chance = 0.5;
    FaultFsEnv env(options);
    std::vector<int> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(
          env.WriteFile(dir + "/r", "x") == FsStatus::kOk ? 1 : 0);
    }
    return outcomes;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(FaultFsEnvTest, TornWriteLeavesStrictPrefix) {
  const std::string dir = ScratchDir("torn");
  FaultFsOptions options;
  options.torn_write_chance = 1.0;
  FaultFsEnv env(options);
  const std::string payload = "0123456789abcdef0123456789abcdef";
  env.FailNext(FsOp::kWrite, 1);
  EXPECT_EQ(env.WriteFile(dir + "/t", payload), FsStatus::kError);
  std::string bytes;
  // Whatever survived must be a strict prefix of the payload — the shape a
  // crash or ENOSPC mid-write leaves on a real disk.
  if (RealFs()->ReadFile(dir + "/t", &bytes) == FsStatus::kOk) {
    EXPECT_LT(bytes.size(), payload.size());
    EXPECT_EQ(payload.substr(0, bytes.size()), bytes);
  }
}

TEST(FaultFsEnvTest, CrashAfterOpsFailsEverythingUntilRecover) {
  const std::string dir = ScratchDir("crash");
  FaultFsOptions options;
  options.crash_after_ops = 3;
  FaultFsEnv env(options);
  std::string bytes;
  EXPECT_EQ(env.WriteFile(dir + "/a", "x"), FsStatus::kOk);
  EXPECT_EQ(env.ReadFile(dir + "/a", &bytes), FsStatus::kOk);
  // Third op crosses the crash point: crashed from here on.
  EXPECT_EQ(env.WriteFile(dir + "/b", "y"), FsStatus::kError);
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(env.ReadFile(dir + "/a", &bytes), FsStatus::kError);
  EXPECT_EQ(env.ListDir(dir).status, FsStatus::kError);
  EXPECT_EQ(env.Remove(dir + "/a"), FsStatus::kError);  // Not removed.
  // ClearFaults does not resurrect a crashed environment...
  env.ClearFaults();
  EXPECT_EQ(env.ReadFile(dir + "/a", &bytes), FsStatus::kError);
  // ...Recover (the "process restarted") does.
  env.Recover();
  EXPECT_EQ(env.ReadFile(dir + "/a", &bytes), FsStatus::kOk);
  EXPECT_EQ(bytes, "x");
}

TEST(FaultFsEnvTest, PartialListReportsScanErrors) {
  const std::string dir = ScratchDir("partial");
  FaultFsOptions options;
  options.partial_list_chance = 1.0;
  FaultFsEnv env(options);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(env.WriteFile(dir + "/f" + std::to_string(i), "x"),
              FsStatus::kOk);
  }
  env.FailNext(FsOp::kList, 1);
  FsListResult listing = env.ListDir(dir);
  // A partial scan: some entries plus nonzero scan_errors accounting for
  // every dropped one — never a silently truncated "complete" listing.
  EXPECT_EQ(listing.status, FsStatus::kOk);
  EXPECT_GT(listing.scan_errors, 0u);
  EXPECT_EQ(listing.entries.size() + listing.scan_errors, 8u);
}

TEST(FaultFsEnvTest, StatsCountAttemptsAndInjections) {
  const std::string dir = ScratchDir("stats");
  FaultFsEnv env(FaultFsOptions{});
  env.FailNext(FsOp::kRemove, 1);
  EXPECT_EQ(env.Remove(dir + "/x"), FsStatus::kError);
  EXPECT_EQ(env.Remove(dir + "/x"), FsStatus::kNotFound);
  FaultFsStats stats = env.stats();
  EXPECT_EQ(stats.attempts[static_cast<std::size_t>(FsOp::kRemove)], 2u);
  EXPECT_EQ(stats.injected[static_cast<std::size_t>(FsOp::kRemove)], 1u);
  EXPECT_EQ(stats.total_attempts, 2u);
  EXPECT_EQ(stats.total_injected, 1u);
}

}  // namespace
}  // namespace featsep
