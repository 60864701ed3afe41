#include <gtest/gtest.h>

#include <thread>

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

}  // namespace
}  // namespace fedms::core
