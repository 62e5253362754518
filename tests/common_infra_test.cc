#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/logging.h"

namespace metacomm {
namespace {

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> queue;
  queue.Push(10);
  queue.Push(11);
  queue.Push(12);
  EXPECT_EQ(queue.Size(), 3u);
  EXPECT_EQ(queue.PopBatch(1), std::vector<int>{10});
  EXPECT_EQ(queue.PopBatch(1), std::vector<int>{11});
  queue.Push(13);
  EXPECT_EQ(queue.PopBatch(16), (std::vector<int>{12, 13}));
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(BlockingQueueTest, PopBatchTakesAtMostMaxN) {
  BlockingQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  queue.Push(3);
  EXPECT_EQ(queue.PopBatch(2), (std::vector<int>{1, 2}));
  queue.Push(4);
  // A max_n of 0 acts as 1: a worker never wakes to take nothing.
  EXPECT_EQ(queue.PopBatch(0), std::vector<int>{3});
  EXPECT_EQ(queue.PopBatch(16), std::vector<int>{4});
}

TEST(BlockingQueueTest, CloseAbortsInsteadOfDraining) {
  // Close means abort: PopBatch must NOT hand out the remaining items
  // — the owner reclaims them via Drain() to release their locks and
  // fail their promises.
  BlockingQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  queue.Close();
  EXPECT_FALSE(queue.Push(3));
  EXPECT_TRUE(queue.PopBatch(1).empty());
  EXPECT_TRUE(queue.PopBatch(16).empty());
  EXPECT_EQ(queue.Drain(), (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.Size(), 0u);
  // Reopen admits pushes and pops again.
  queue.Reopen();
  EXPECT_TRUE(queue.Push(4));
  EXPECT_EQ(queue.PopBatch(16), std::vector<int>{4});
}

TEST(BlockingQueueTest, CloseWakesAllBlockedWorkers) {
  BlockingQueue<int> queue;
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&queue] { EXPECT_TRUE(queue.PopBatch(1).empty()); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.Close();
  for (std::thread& worker : workers) worker.join();
}

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> queue;
  std::atomic<bool> got{false};
  std::thread consumer([&queue, &got] {
    EXPECT_EQ(queue.PopBatch(16), std::vector<int>{42});
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  queue.Push(42);
  consumer.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(ClockTest, RealClockIsMonotonic) {
  RealClock* clock = RealClock::Get();
  int64_t a = clock->NowMicros();
  clock->SleepMicros(1000);
  int64_t b = clock->NowMicros();
  EXPECT_GE(b - a, 1000);
}

TEST(ClockTest, SimulatedClockAdvancesManually) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  // Sleep on a simulated clock advances instead of blocking.
  clock.SleepMicros(25);
  EXPECT_EQ(clock.NowMicros(), 175);
}

TEST(LoggingTest, SinkCapturesAboveThreshold) {
  Logger& logger = Logger::Get();
  LogLevel old_level = logger.min_level();
  std::vector<std::pair<LogLevel, std::string>> captured;
  logger.set_sink([&captured](LogLevel level, const std::string& message) {
    captured.emplace_back(level, message);
  });
  logger.set_min_level(LogLevel::kWarning);

  METACOMM_LOG(kDebug) << "too quiet";
  METACOMM_LOG(kWarning) << "count=" << 7;
  METACOMM_LOG(kError) << "boom";

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kWarning);
  EXPECT_EQ(captured[0].second, "count=7");
  EXPECT_EQ(captured[1].second, "boom");

  logger.set_sink(nullptr);
  logger.set_min_level(old_level);
}

TEST(LoggingTest, FilteredMessageDoesNotEvaluateItsOperands) {
  Logger& logger = Logger::Get();
  LogLevel old_level = logger.min_level();
  std::vector<std::string> captured;
  logger.set_sink([&captured](LogLevel, const std::string& message) {
    captured.push_back(message);
  });
  logger.set_min_level(LogLevel::kWarning);
  int evaluated = 0;
  auto operand = [&evaluated] {
    ++evaluated;
    return std::string("formatted");
  };

  METACOMM_LOG(kDebug) << operand();
  METACOMM_LOG(kInfo) << "n=" << operand() << operand();
  EXPECT_EQ(evaluated, 0);
  EXPECT_TRUE(captured.empty());

  // One expression: an unbraced if/else keeps its else.
  bool took_else = false;
  if (evaluated > 0)
    METACOMM_LOG(kError) << operand();
  else
    took_else = true;
  EXPECT_TRUE(took_else);

  METACOMM_LOG(kWarning) << operand();
  EXPECT_EQ(evaluated, 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "formatted");

  logger.set_sink(nullptr);
  logger.set_min_level(old_level);
}

TEST(LoggingTest, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarning), "WARN");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace metacomm
