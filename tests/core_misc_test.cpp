#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "core/scratch_dir.h"
#include "core/stopwatch.h"

namespace fedms::core {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = watch.seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_NEAR(watch.milliseconds(), watch.seconds() * 1e3,
              watch.seconds() * 100);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.reset();
  EXPECT_LT(watch.seconds(), 0.015);
}

TEST(Stopwatch, MonotonicNonNegative) {
  Stopwatch watch;
  double previous = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = watch.seconds();
    EXPECT_GE(now, previous);
    previous = now;
  }
}

TEST(ScratchDir, RemovesItsTreeWhenDestroyed) {
  namespace fs = std::filesystem;
  std::string path;
  {
    const ScratchDir dir;
    path = dir.path();
    ASSERT_EQ(path.rfind("/tmp/fedms", 0), 0u) << path;
    fs::create_directory(path + "/nested");
    std::ofstream(path + "/nested/node.report") << "report";
    std::ofstream(path + "/ps0.sock") << "";
    EXPECT_TRUE(fs::is_directory(path));
    EXPECT_TRUE(fs::exists(path + "/nested/node.report"));
    EXPECT_TRUE(fs::exists(path + "/ps0.sock"));
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(ScratchDir, ForkedChildNeverRemovesTheParentsDirectory) {
  auto dir = std::make_unique<ScratchDir>();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    dir.reset();  // a child unwinding through the owner's scope
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_TRUE(std::filesystem::is_directory(dir->path()));
}

}  // namespace
}  // namespace fedms::core
