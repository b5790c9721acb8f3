// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock (SimTime, epoch seconds) and an
// indexed event core.  Everything dynamic in wadp — GridFTP transfers,
// NWS probes, the workload driver's sleeps, MDS soft-state expiry, the
// fluid engine's per-flow wake-ups — runs as events on one Simulator,
// which makes whole campaigns deterministic and independent of wall
// time.
//
// Events scheduled for the same instant fire in scheduling order (a
// monotone sequence number breaks ties), which keeps runs reproducible.
//
// The event core is built for grid-scale event rates (hundreds of
// sites, thousands of links, tens of thousands of concurrent flows):
//
//   * one binary min-heap of (when, seq, slot) entries, ordered by
//     (when, seq).  seq is unique, so the firing order is total and
//     schedule, fire and cancel each cost O(log n);
//   * handlers live in a slot vector recycled through a free list; each
//     slot records its heap position, so cancel() removes the event
//     from the heap at once.  No dead entry is ever queued, so
//     queued_entries() == pending_events() by construction, whatever
//     the schedule/cancel pattern (PeriodicTask::stop, per-flow
//     completion reschedules);
//   * an EventId is (slot generation << 32 | slot).  A slot's generation
//     advances each time the slot is freed, so a fired or cancelled id
//     never matches the slot's next event, and it starts at 1 and skips
//     0 when it wraps, so no id is ever 0 — callers use 0 for "no
//     event";
//   * run_batch(horizon) drains every event inside a lookahead window
//     in one pass — the timestep-batched shape tt-npe-style flow
//     simulators use, and the natural hook for a later parallel engine
//     (batch boundaries are the only safe synchronization points).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace wadp::sim {

/// Identifies a scheduled event so it can be cancelled.  Never 0.
using EventId = std::uint64_t;

namespace detail {

/// The generation a slot takes when it is freed.  Skips 0 on wrap, so no
/// EventId is ever 0.
constexpr std::uint32_t next_generation(std::uint32_t generation) {
  return generation == UINT32_MAX ? 1 : generation + 1;
}

}  // namespace detail

class Simulator {
 public:
  using Handler = std::function<void()>;

  /// Starts the clock at `start` (e.g. midnight of the campaign's first
  /// day).  The clock never runs backward.
  explicit Simulator(SimTime start = 0.0) : now_(start) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `handler` at absolute time `when` (>= now, finite).
  EventId schedule_at(SimTime when, Handler handler);

  /// Schedules `handler` after `delay` (>= 0, finite) simulated seconds.
  EventId schedule_after(Duration delay, Handler handler);

  /// Cancels a pending event.  Returns false when the event already
  /// fired, was cancelled, or never existed.  O(log n): the event leaves
  /// the heap at once.
  bool cancel(EventId id);

  /// Runs events until the queue empties.  Returns events executed.
  std::size_t run();

  /// Runs events with time <= `deadline`, then advances the clock to
  /// `deadline` (even if idle).  Returns events executed.
  std::size_t run_until(SimTime deadline);

  /// Drains every event within `horizon` seconds of lookahead — one
  /// timestep batch — then advances the clock to the batch boundary.
  /// Events scheduled by handlers inside the window are drained too.
  /// Returns events executed.
  std::size_t run_batch(Duration horizon);

  /// Executes only the next event, if any.  Returns false when idle.
  bool step();

  /// Live (non-cancelled) scheduled events.
  std::size_t pending_events() const { return heap_.size(); }

  /// Time of the earliest live event, or nullopt when idle.
  std::optional<SimTime> next_event_time() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().when;
  }

  /// Queue entries currently held.  Cancelled events leave the heap at
  /// once, so this always equals pending_events().
  std::size_t queued_entries() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    bool before(const Entry& other) const {
      return when < other.when || (when == other.when && seq < other.seq);
    }
  };

  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  struct Slot {
    Handler handler;
    std::uint32_t generation = 1;  // never 0, so no EventId is 0
    std::uint32_t pos = kNotQueued;  // heap index while queued
  };

  EventId enqueue(SimTime when, Handler handler);
  bool fire_next();
  std::size_t drain_until(SimTime deadline);

  /// Stores `entry` at heap index `pos` and records that index in its
  /// slot.
  void place(std::size_t pos, const Entry& entry);
  /// Moves `entry` from the hole at `pos` toward the root / the leaves
  /// until heap order holds, then places it.
  void sift_up(std::size_t pos, const Entry& entry);
  void sift_down(std::size_t pos, const Entry& entry);
  /// Removes the heap entry at `pos`, refilling the hole with the last
  /// entry.
  void erase_at(std::size_t pos);
  /// Returns a dequeued slot to the free list under a new generation and
  /// hands back its handler.
  Handler release(std::uint32_t slot);

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // binary min-heap on (when, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// Periodic task helper: re-schedules itself every `period` seconds
/// until stop() is called (or, optionally, a deadline passes).  Used
/// by NWS sensors, GIIS refresh, and health-plane scrape ticks.
class PeriodicTask {
 public:
  /// `body` runs at start + period, start + 2*period, ...  When
  /// `immediate` is true it also runs once at `start`.  A finite
  /// `until` bounds the task: no firing is scheduled past that instant,
  /// so an open-ended `sim.run()` still terminates — essential for
  /// drives (resilience, health) that run the queue dry.
  PeriodicTask(Simulator& sim, Duration period, std::function<void()> body,
               bool immediate = false, SimTime until = kNeverTime);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void arm();

  Simulator& sim_;
  Duration period_;
  std::function<void()> body_;
  SimTime until_ = kNeverTime;
  bool running_ = true;
  EventId pending_ = 0;
};

}  // namespace wadp::sim
