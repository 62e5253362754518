#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/sharded_blocking_queue.h"

namespace metacomm {
namespace {

TEST(ShardedBlockingQueueTest, PerShardFifoOrder) {
  ShardedBlockingQueue<int> queue(4);
  queue.Push(1, 10);
  queue.Push(1, 11);
  queue.Push(3, 30);
  EXPECT_EQ(queue.Size(), 3u);
  EXPECT_EQ(queue.Depth(1), 2u);
  EXPECT_EQ(queue.PopBatch(1, 1), std::vector<int>{10});
  EXPECT_EQ(queue.PopBatch(1, 1), std::vector<int>{11});
  EXPECT_EQ(queue.PopBatch(3, 1), std::vector<int>{30});
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(ShardedBlockingQueueTest, PopBatchTakesAtMostMaxN) {
  ShardedBlockingQueue<int> queue(2);
  queue.Push(0, 1);
  queue.Push(0, 2);
  queue.Push(0, 3);
  EXPECT_EQ(queue.PopBatch(0, 2), (std::vector<int>{1, 2}));
  queue.Push(0, 4);
  // A max_n of 0 acts as 1: a worker never wakes to take nothing.
  EXPECT_EQ(queue.PopBatch(0, 0), std::vector<int>{3});
  EXPECT_EQ(queue.PopBatch(0, 16), std::vector<int>{4});
}

TEST(ShardedBlockingQueueTest, EqualKeysRouteToSameShard) {
  ShardedBlockingQueue<int> queue(8);
  EXPECT_EQ(queue.ShardFor("cn=john doe,ou=people,o=lucent"),
            queue.ShardFor("cn=john doe,ou=people,o=lucent"));
  EXPECT_LT(queue.ShardFor("anything"), queue.shard_count());
}

TEST(ShardedBlockingQueueTest, RoundRobinCoversAllShards) {
  ShardedBlockingQueue<int> queue(3);
  std::set<size_t> seen;
  for (int i = 0; i < 6; ++i) seen.insert(queue.NextShard());
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ShardedBlockingQueueTest, CloseAbortsInsteadOfDraining) {
  // Close means abort: PopBatch must NOT hand out the remaining items
  // — the owner reclaims them via Drain() to release their locks and
  // fail their promises.
  ShardedBlockingQueue<int> queue(2);
  queue.Push(0, 1);
  queue.Push(1, 2);
  queue.Close();
  EXPECT_FALSE(queue.Push(0, 3));
  EXPECT_TRUE(queue.PopBatch(0, 1).empty());
  EXPECT_TRUE(queue.PopBatch(1, 16).empty());
  std::vector<int> drained = queue.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 1);
  EXPECT_EQ(drained[1], 2);
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(ShardedBlockingQueueTest, CloseWakesAllBlockedWorkers) {
  ShardedBlockingQueue<int> queue(4);
  std::vector<std::thread> workers;
  for (size_t shard = 0; shard < queue.shard_count(); ++shard) {
    workers.emplace_back([&queue, shard] {
      EXPECT_TRUE(queue.PopBatch(shard, 1).empty());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.Close();
  for (std::thread& worker : workers) worker.join();
}

TEST(ShardedBlockingQueueTest, PopBlocksUntilPushOnOwnShard) {
  ShardedBlockingQueue<int> queue(2);
  std::atomic<bool> got{false};
  std::thread consumer([&queue, &got] {
    EXPECT_EQ(queue.PopBatch(0, 16), std::vector<int>{42});
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.Push(1, 7);  // Other shard: must not wake shard 0's consumer.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(got.load());
  queue.Push(0, 42);
  consumer.join();
  EXPECT_EQ(queue.PopBatch(1, 16), std::vector<int>{7});
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
