#include "sim/simulator.hpp"

#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace wadp::sim {
namespace {

/// Engine-wide counters (one process may run several Simulators; the
/// totals aggregate across them, which is what capacity planning wants).
/// Resolved once — the per-event cost is a relaxed atomic add.
struct SimMetrics {
  obs::Counter& scheduled = obs::Registry::global().counter(
      "wadp_sim_events_scheduled_total", {},
      "Events ever scheduled on any simulator");
  obs::Counter& executed = obs::Registry::global().counter(
      "wadp_sim_events_executed_total", {},
      "Events executed by any simulator");
  obs::Counter& cancelled = obs::Registry::global().counter(
      "wadp_sim_events_cancelled_total", {},
      "Events cancelled before firing");
  obs::Counter& batches = obs::Registry::global().counter(
      "wadp_sim_batches_total", {},
      "run_batch lookahead windows drained");

  static SimMetrics& get() {
    static SimMetrics metrics;
    return metrics;
  }
};

}  // namespace

void Simulator::place(std::size_t pos, const Entry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_up(std::size_t pos, const Entry& entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!entry.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulator::sift_down(std::size_t pos, const Entry& entry) {
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

void Simulator::erase_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the erased entry was the last one
  if (pos > 0 && last.before(heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

Simulator::Handler Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.pos = kNotQueued;
  s.generation = detail::next_generation(s.generation);
  free_slots_.push_back(slot);
  return std::exchange(s.handler, nullptr);
}

EventId Simulator::enqueue(SimTime when, Handler handler) {
  SimMetrics::get().scheduled.inc();
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    WADP_CHECK_MSG(slots_.size() < kNotQueued, "event slots exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].handler = std::move(handler);
  heap_.emplace_back();  // the hole sift_up starts from
  sift_up(heap_.size() - 1,
          Entry{.when = when, .seq = next_seq_++, .slot = slot});
  return EventId{slots_[slot].generation} << 32 | slot;
}

EventId Simulator::schedule_at(SimTime when, Handler handler) {
  // A NaN `when` would silently poison every ordering comparison in the
  // heap (NaN compares false against everything), so it is rejected
  // here rather than corrupting the queue.
  WADP_CHECK_MSG(std::isfinite(when), "non-finite event time");
  WADP_CHECK_MSG(when >= now_, "cannot schedule into the past");
  WADP_CHECK(handler != nullptr);
  return enqueue(when, std::move(handler));
}

EventId Simulator::schedule_after(Duration delay, Handler handler) {
  WADP_CHECK_MSG(delay >= 0.0, "negative delay");  // also rejects NaN
  WADP_CHECK_MSG(std::isfinite(delay), "non-finite delay");
  WADP_CHECK(handler != nullptr);
  return enqueue(now_ + delay, std::move(handler));
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.generation != id >> 32 || s.pos == kNotQueued) return false;
  erase_at(s.pos);
  // Destroyed on return, once the slot is consistent again: a captured
  // object's destructor may schedule or cancel events.
  const Handler cancelled = release(slot);
  SimMetrics::get().cancelled.inc();
  return true;
}

bool Simulator::fire_next() {
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  erase_at(0);
  now_ = top.when;
  // Free the slot before invoking: the handler may schedule (reusing the
  // slot, growing slots_) or cancel events.
  const Handler handler = release(top.slot);
  SimMetrics::get().executed.inc();
  handler();
  return true;
}

std::size_t Simulator::run() {
  std::size_t executed = 0;
  while (fire_next()) ++executed;
  return executed;
}

std::size_t Simulator::drain_until(SimTime deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    fire_next();
    ++executed;
  }
  now_ = deadline;
  return executed;
}

std::size_t Simulator::run_until(SimTime deadline) {
  WADP_CHECK(deadline >= now_);
  return drain_until(deadline);
}

std::size_t Simulator::run_batch(Duration horizon) {
  WADP_CHECK_MSG(horizon >= 0.0, "negative batch horizon");
  WADP_CHECK_MSG(std::isfinite(horizon), "non-finite batch horizon");
  SimMetrics::get().batches.inc();
  return drain_until(now_ + horizon);
}

bool Simulator::step() { return fire_next(); }

PeriodicTask::PeriodicTask(Simulator& sim, Duration period,
                           std::function<void()> body, bool immediate,
                           SimTime until)
    : sim_(sim), period_(period), body_(std::move(body)), until_(until) {
  WADP_CHECK(period_ > 0.0);
  WADP_CHECK(body_ != nullptr);
  if (immediate) {
    pending_ = sim_.schedule_after(0.0, [this] {
      body_();
      if (running_) arm();
    });
  } else {
    arm();
  }
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::arm() {
  if (sim_.now() + period_ > until_) {
    running_ = false;
    pending_ = 0;
    return;
  }
  pending_ = sim_.schedule_after(period_, [this] {
    body_();
    if (running_) arm();
  });
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) sim_.cancel(pending_);
}

}  // namespace wadp::sim
