#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace elan::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(2.0, [&] { order.push_back(2); });
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(1.0, [&] { order.push_back(2); });
  s.schedule(1.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  double fired_at = -1;
  s.schedule(1.0, [&] { s.schedule(0.5, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const auto id = s.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(5.0);
  EXPECT_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator s;
  bool early = false;
  bool late = false;
  s.schedule(1.0, [&] { early = true; });
  s.schedule(10.0, [&] { late = true; });
  s.run_until(5.0);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), 5.0);
  s.run();
  EXPECT_TRUE(late);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator s;
  EXPECT_THROW(s.schedule(-1.0, [] {}), InvalidArgument);
}

TEST(Simulator, RejectsPastAbsoluteTime) {
  Simulator s;
  s.schedule(2.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), InvalidArgument);
}

// The bus's delivery primitive: the later of now() + delay and a floor, with
// the clock read under the insertion lock. A floor already in the past never
// throws — that is the point — and the chosen time is what fires.
TEST(Simulator, ScheduleNoEarlierTakesTheLaterOfDelayAndFloor) {
  Simulator s;
  s.run_until(5.0);
  std::vector<double> fired;
  EXPECT_EQ(s.schedule_no_earlier(1.0, 3.0, [&] { fired.push_back(s.now()); }), 6.0);
  EXPECT_EQ(s.schedule_no_earlier(1.0, 7.5, [&] { fired.push_back(s.now()); }), 7.5);
  EXPECT_THROW(s.schedule_no_earlier(-1.0, 0.0, [] {}), InvalidArgument);
  s.run();
  EXPECT_EQ(fired, (std::vector<double>{6.0, 7.5}));
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 10; ++i) s.schedule(i, [] {});
  s.run();
  EXPECT_EQ(s.executed(), 10u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator s;
  double at = -1;
  s.schedule(1.0, [&] { s.schedule(0.0, [&] { at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(at, 1.0);
}

// Regression: the pre-indexed-heap core left a tombstone in the queue for
// every cancelled event, so queue_depth() drifted above pending() under
// cancel-heavy load. With in-place cancel the two are pinned equal at every
// point of a cancel storm.
TEST(Simulator, CancelStormLeavesNoTombstones) {
  Simulator s;
  constexpr int kEvents = 4096;
  std::uint64_t fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(s.schedule(1.0 + i, [&] { ++fired; }));
  }
  ASSERT_EQ(s.pending(), static_cast<std::size_t>(kEvents));
  ASSERT_EQ(s.queue_depth(), s.pending());
  // Cancel three quarters in a scattered order (stride coprime with the
  // count), checking the pin as the storm progresses.
  std::size_t idx = 0;
  const std::size_t kStride = 2741;
  for (int i = 0; i < 3 * kEvents / 4; ++i) {
    EXPECT_TRUE(s.cancel(ids[idx]));
    idx = (idx + kStride) % kEvents;
    ASSERT_EQ(s.queue_depth(), s.pending());
  }
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents / 4));
  s.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kEvents / 4));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.queue_depth(), 0u);
}

// Runs a fixed interleaving of schedule / cancel / reschedule with heavy
// time ties and returns the firing order. The expected sequence is pinned
// below (a golden), and must not depend on the heap's internal layout.
std::string golden_sequence(unsigned arity_hint) {
  const unsigned prior = Simulator::test_layout_hint();
  Simulator::set_test_layout_hint(arity_hint);
  Simulator s;
  Simulator::set_test_layout_hint(prior);

  std::string order;
  const auto tag = [&s, &order](char c) {
    return [&order, c] { order.push_back(c); };
  };
  const EventId a = s.schedule(2.0, tag('a'));
  const EventId b = s.schedule(1.0, tag('b'));
  s.schedule(1.0, tag('c'));  // ties with b: insertion order decides
  const EventId d = s.schedule(3.0, tag('d'));
  s.cancel(b);
  s.schedule(1.0, tag('e'));           // same time as c, scheduled later
  s.reschedule(a, 1.0);                // a moves to t=1, after e's seq
  s.reschedule(d, 0.5);                // d jumps to the front
  s.schedule(0.5, tag('f'));           // ties with moved d; d's seq is older
  s.run();
  return order;
}

TEST(Simulator, GoldenSequenceIsLayoutIndependent) {
  // Cancelled b never fires; d's reschedule keeps its original id but takes
  // a fresh sequence number, so it still precedes the later-scheduled f.
  const std::string kGolden = "dfcea";
  EXPECT_EQ(golden_sequence(0), kGolden);  // production arity (4)
  EXPECT_EQ(golden_sequence(2), kGolden);  // deepest layout
  EXPECT_EQ(golden_sequence(8), kGolden);  // shallowest layout
}

// reschedule(id, delay) must order identically to cancel(id) + schedule(delay)
// — both consume exactly one sequence number. Replays the same logical
// timer-refresh script both ways and compares the full firing orders.
TEST(Simulator, RescheduleOrdersLikeCancelPlusSchedule) {
  constexpr int kTimers = 64;
  constexpr int kRefreshes = 512;
  const auto replay = [](bool use_reschedule) {
    Simulator s;
    std::vector<int> order;
    std::vector<EventId> ids(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      ids[i] = s.schedule(100.0 + i, [&order, i] { order.push_back(i); });
    }
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    for (int r = 0; r < kRefreshes; ++r) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const int t = static_cast<int>(lcg >> 33) % kTimers;
      const double delay = 50.0 + static_cast<double>((lcg >> 20) & 0xff);
      if (use_reschedule) {
        EXPECT_TRUE(s.reschedule(ids[t], delay));
      } else {
        EXPECT_TRUE(s.cancel(ids[t]));
        const int i = t;
        ids[t] = s.schedule(delay, [&order, i] { order.push_back(i); });
      }
    }
    s.run();
    return order;
  };
  EXPECT_EQ(replay(true), replay(false));
}

TEST(Simulator, RescheduleOfDeadEventFails) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule(1.0, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(s.reschedule(id, 1.0));  // already fired
  const EventId id2 = s.schedule(1.0, [] {});
  EXPECT_TRUE(s.cancel(id2));
  EXPECT_FALSE(s.reschedule(id2, 1.0));  // already cancelled
  EXPECT_EQ(s.pending(), 0u);            // failed reschedule added nothing
  s.run();
  EXPECT_THROW(s.reschedule(id, -1.0), InvalidArgument);
}

TEST(Simulator, RescheduledEventKeepsItsId) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.reschedule(id, 5.0));
  EXPECT_TRUE(s.cancel(id));  // the id survives the move
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.now(), 0.0);  // nothing ever ran
}

}  // namespace
}  // namespace elan::sim
