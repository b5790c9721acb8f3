#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace wadp::sim {
namespace {

TEST(SimulatorTest, StartsAtGivenTime) {
  Simulator sim(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimulatorTest, RunExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(5.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.5);
}

TEST(SimulatorTest, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeDelay) {
  Simulator sim(10.0);
  double seen = 0.0;
  sim.schedule_after(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 12.5);
}

TEST(SimulatorTest, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.schedule_after(1.0, [&] { ++fired; });
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.schedule_at(5.0, [&] { fired.push_back(5.0); });
  EXPECT_EQ(sim.run_until(3.0), 1u);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // idles forward to the deadline
  EXPECT_EQ(sim.run_until(10.0), 1u);
  EXPECT_EQ(fired.size(), 2u);
}

TEST(SimulatorTest, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(3.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const auto id = sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RejectsNonFiniteTimes) {
  Simulator sim(10.0);
  // A NaN `when` would poison the heap ordering silently; it must trap.
  EXPECT_DEATH(sim.schedule_at(std::nan(""), [] {}), "non-finite");
  EXPECT_DEATH(sim.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
               "non-finite");
  EXPECT_DEATH(sim.schedule_after(std::nan(""), [] {}), "delay");
  EXPECT_DEATH(sim.schedule_after(std::numeric_limits<double>::infinity(),
                                  [] {}),
               "non-finite");
}

TEST(SimulatorTest, CrossTierOrderingIsGlobal) {
  // One event per tier, interleaved times: heap (far), near (sub-second),
  // immediate (now) — they must fire in global (when, seq) order.
  Simulator sim(100.0);
  std::vector<int> order;
  sim.schedule_at(102.0, [&] { order.push_back(3); });   // heap
  sim.schedule_at(100.25, [&] { order.push_back(2); });  // near bucket
  sim.schedule_at(100.0, [&] { order.push_back(1); });   // immediate
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeAcrossTiersFiresInScheduleOrder) {
  Simulator sim(0.0);
  std::vector<int> order;
  // Scheduled from afar (heap tier), then reached: an immediate event
  // scheduled at that instant must fire after it (larger seq).
  sim.schedule_at(5.0, [&] {
    order.push_back(1);
    sim.schedule_after(0.0, [&] { order.push_back(3); });
    sim.schedule_at(5.0, [&] { order.push_back(4); });  // after 3: later seq
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulatorTest, NearBucketHandlesOutOfOrderAppends) {
  Simulator sim(0.0);
  std::vector<double> fired;
  sim.schedule_at(0.9, [&] { fired.push_back(0.9); });
  sim.schedule_at(0.1, [&] { fired.push_back(0.1); });
  sim.schedule_at(0.5, [&] { fired.push_back(0.5); });
  sim.schedule_at(0.2, [&] { fired.push_back(0.2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{0.1, 0.2, 0.5, 0.9}));
}

TEST(SimulatorTest, RunBatchDrainsLookaheadWindow) {
  Simulator sim(0.0);
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] {
    fired.push_back(1.0);
    // Spawned inside the window: still part of this batch.
    sim.schedule_at(2.5, [&] { fired.push_back(2.5); });
  });
  sim.schedule_at(7.0, [&] { fired.push_back(7.0); });
  EXPECT_EQ(sim.run_batch(3.0), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // batch boundary, even though idle
  EXPECT_EQ(sim.run_batch(4.0), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
  EXPECT_EQ(fired.size(), 3u);
}

TEST(SimulatorTest, RunBatchIncludesBoundaryEvents) {
  Simulator sim(10.0);
  bool fired = false;
  sim.schedule_at(13.0, [&] { fired = true; });
  EXPECT_EQ(sim.run_batch(3.0), 1u);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelChurnKeepsQueueBounded) {
  // Regression: cancel() used to leave dead entries in the queue
  // indefinitely, so a long-armed schedule/cancel pattern (the
  // PeriodicTask::stop shape, per-flow completion reschedules) grew the
  // heap without bound.  Compaction must keep total entries within a
  // constant factor of the live count.
  Simulator sim(0.0);
  std::vector<EventId> live;
  for (int i = 0; i < 10; ++i) {
    live.push_back(sim.schedule_at(1e6 + i, [] {}));
  }
  for (int i = 0; i < 100'000; ++i) {
    const EventId id =
        sim.schedule_at(10.0 + 1e-3 * i, [] {});  // arm a timeout...
    ASSERT_TRUE(sim.cancel(id));                  // ...that never fires
    ASSERT_LE(sim.queued_entries(), 2 * sim.pending_events() + 64);
  }
  EXPECT_EQ(sim.pending_events(), live.size());
  EXPECT_EQ(sim.run(), live.size());  // survivors still fire
}

TEST(SimulatorTest, CompactionPreservesOrderAndSurvivors) {
  Simulator sim(0.0);
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 300; ++i) {
    const double t = 1.0 + i;
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
    // Three tombstones per survivor so compaction actually triggers
    // (tombstones must *outnumber* live events).
    doomed.push_back(sim.schedule_at(t + 0.25, [] {}));
    doomed.push_back(sim.schedule_at(t + 0.5, [] {}));
    doomed.push_back(sim.schedule_at(t + 0.75, [] {}));
  }
  for (const EventId id : doomed) sim.cancel(id);
  EXPECT_EQ(sim.run(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, NextEventTimePeeksPastTombstones) {
  Simulator sim(0.0);
  const auto a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.next_event_time(), 1.0);
  sim.cancel(a);
  EXPECT_EQ(sim.next_event_time(), 2.0);
  sim.run();
  EXPECT_EQ(sim.next_event_time(), std::nullopt);
}

TEST(SimulatorTest, ReusedSlotIgnoresStaleIds) {
  // One event is live at a time, so each schedule can reuse the slot the
  // previous event freed; the old ids must not reach the new event.
  Simulator sim;
  const EventId fired = sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.run(), 1u);
  const EventId cancelled = sim.schedule_at(2.0, [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  bool reused_fired = false;
  const EventId reused = sim.schedule_at(3.0, [&] { reused_fired = true; });
  EXPECT_NE(reused, fired);
  EXPECT_NE(reused, cancelled);
  EXPECT_FALSE(sim.cancel(fired));
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(reused_fired);
}

TEST(SimulatorTest, EventIdsAreNeverZero) {
  // Callers (net/fabric, gridftp/client) hold 0 to mean "no event".
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  for (int i = 0; i < 1000; ++i) {
    const EventId id = sim.schedule_after(0.5 * (i % 3), [] {});
    ASSERT_NE(id, 0u);
    if (i % 2 == 0) {
      ASSERT_TRUE(sim.cancel(id));
    } else {
      sim.step();
    }
  }
  // A slot's generation wraps past 0 back to 1.
  EXPECT_EQ(detail::next_generation(1), 2u);
  EXPECT_EQ(detail::next_generation(std::numeric_limits<std::uint32_t>::max()),
            1u);
}

// A naive reference queue: every pending event in one vector, scanned for
// the minimum (when, seq) on each pop.
struct OracleQueue {
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::size_t tag;
  };

  SimTime now = 0.0;
  std::uint64_t next_seq = 0;
  std::vector<Event> pending;

  void schedule(SimTime when, std::size_t tag) {
    pending.push_back({when, next_seq++, tag});
  }

  bool cancel(std::size_t tag) {
    const auto it =
        std::find_if(pending.begin(), pending.end(),
                     [tag](const Event& e) { return e.tag == tag; });
    if (it == pending.end()) return false;
    pending.erase(it);
    return true;
  }

  std::vector<Event>::iterator earliest() {
    return std::min_element(
        pending.begin(), pending.end(), [](const Event& a, const Event& b) {
          return a.when < b.when || (a.when == b.when && a.seq < b.seq);
        });
  }

  std::optional<SimTime> next_event_time() {
    if (pending.empty()) return std::nullopt;
    return earliest()->when;
  }

  Event pop() {
    const auto it = earliest();
    const Event ev = *it;
    pending.erase(it);
    now = ev.when;
    return ev;
  }
};

// Drives a Simulator and an OracleQueue with one seeded stream of
// operations, in lockstep: every fire, clock reading, pending count,
// next-event time and cancel result must agree.
class Differential {
 public:
  static constexpr SimTime kStart = 1000.0;

  explicit Differential(std::uint64_t seed) : rng_(seed), sim_(kStart) {
    oracle_.now = kStart;
  }

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const auto kind = rng_.uniform_int(0, 9);
      if (kind <= 3) {
        schedule();
      } else if (kind <= 5) {
        cancel();
      } else if (kind == 6) {
        const SimTime deadline = sim_.now() + draw_delay();
        const std::size_t before = fired_;
        const std::size_t executed = sim_.run_until(deadline);
        finish_drain(deadline, executed, before);
      } else if (kind == 7) {
        const Duration horizon = draw_delay();
        const SimTime deadline = sim_.now() + horizon;
        const std::size_t before = fired_;
        const std::size_t executed = sim_.run_batch(horizon);
        finish_drain(deadline, executed, before);
      } else {
        const bool idle = oracle_.pending.empty();
        const std::size_t before = fired_;
        EXPECT_EQ(sim_.step(), !idle);
        EXPECT_EQ(fired_ - before, idle ? 0u : 1u);
      }
      check_state();
    }
    const std::size_t before = fired_;
    const std::size_t executed = sim_.run();
    EXPECT_EQ(executed, fired_ - before);
    EXPECT_TRUE(oracle_.pending.empty());
    check_state();
  }

  std::size_t fired() const { return fired_; }
  std::size_t cancelled() const { return cancelled_; }

 private:
  // Events at now, sub-second, seconds out and far out.  Sub-second and
  // seconds-out delays are quantized so same-time ties are common.
  Duration draw_delay() {
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return 0.0;
      case 1:
        return 0.125 * static_cast<double>(rng_.uniform_int(1, 7));
      case 2:
        return static_cast<double>(rng_.uniform_int(1, 30));
      default:
        return rng_.uniform(60.0, 1e5);
    }
  }

  void schedule() {
    const std::size_t tag = ids_.size();
    const Duration delay = draw_delay();
    const SimTime when = sim_.now() + delay;
    const auto handler = [this, tag] { on_fire(tag); };
    ids_.push_back(rng_.uniform() < 0.5 ? sim_.schedule_after(delay, handler)
                                        : sim_.schedule_at(when, handler));
    oracle_.schedule(when, tag);
  }

  // Live, fired and cancelled ids (their slots possibly reused since),
  // and 0, which is never issued.
  void cancel() {
    if (ids_.empty() || rng_.uniform() < 0.05) {
      EXPECT_FALSE(sim_.cancel(0));
      return;
    }
    std::size_t tag = 0;
    if (!oracle_.pending.empty() && rng_.uniform() < 0.5) {
      const auto pick = rng_.uniform_int(
          0, static_cast<std::int64_t>(oracle_.pending.size()) - 1);
      tag = oracle_.pending[static_cast<std::size_t>(pick)].tag;
    } else {
      tag = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1));
    }
    const bool expected = oracle_.cancel(tag);
    EXPECT_EQ(sim_.cancel(ids_[tag]), expected) << "tag " << tag;
    if (expected) ++cancelled_;
  }

  void on_fire(std::size_t tag) {
    ++fired_;
    ASSERT_FALSE(oracle_.pending.empty()) << "fired tag " << tag;
    const auto ev = oracle_.pop();
    ASSERT_EQ(tag, ev.tag) << "fire #" << fired_;
    EXPECT_EQ(sim_.now(), ev.when);
    // Handlers schedule and cancel other events (and sometimes try to
    // cancel themselves, which must fail).
    const auto actions = rng_.uniform_int(0, 2);
    for (std::int64_t a = 0; a < actions; ++a) {
      if (rng_.uniform() < 0.4) {
        schedule();
      } else {
        cancel();
      }
    }
    check_state();
  }

  void finish_drain(SimTime deadline, std::size_t executed,
                    std::size_t before) {
    EXPECT_EQ(executed, fired_ - before);
    const auto next = oracle_.next_event_time();
    EXPECT_TRUE(!next || *next > deadline);
    oracle_.now = deadline;
  }

  void check_state() {
    EXPECT_EQ(sim_.now(), oracle_.now);
    EXPECT_EQ(sim_.pending_events(), oracle_.pending.size());
    EXPECT_EQ(sim_.next_event_time(), oracle_.next_event_time());
  }

  util::Rng rng_;
  Simulator sim_;
  OracleQueue oracle_;
  std::vector<EventId> ids_;  // by tag
  std::size_t fired_ = 0;
  std::size_t cancelled_ = 0;
};

TEST(SimulatorTest, MatchesNaiveOracleUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Differential diff(seed);
    diff.run(4000);
    EXPECT_GT(diff.fired(), 1000u);
    EXPECT_GT(diff.cancelled(), 100u);
  }
}

TEST(PeriodicTaskTest, FiresEveryPeriod) {
  Simulator sim;
  std::vector<double> fire_times;
  PeriodicTask task(sim, 10.0, [&] { fire_times.push_back(sim.now()); });
  sim.run_until(35.0);
  EXPECT_EQ(fire_times, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(PeriodicTaskTest, ImmediateFiresAtStart) {
  Simulator sim(5.0);
  std::vector<double> fire_times;
  PeriodicTask task(sim, 10.0, [&] { fire_times.push_back(sim.now()); },
                    /*immediate=*/true);
  sim.run_until(25.0);
  EXPECT_EQ(fire_times, (std::vector<double>{5.0, 15.0, 25.0}));
}

TEST(PeriodicTaskTest, StopHaltsFiring) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 10.0, [&] { ++count; });
  sim.run_until(15.0);
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_until(100.0);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTaskTest, DestructorCancelsCleanly) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, 10.0, [&] { ++count; });
    sim.run_until(10.0);
  }
  sim.run_until(100.0);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTaskTest, BodyCanStopItself) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&] {
    if (++count == 3) task.stop();
  });
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace wadp::sim
