// grid: a stationary flow scenario on a seeded ~100-site GridWorld with
// the lazy, incremental allocator.  Most flows are pinned to one link,
// a share cross two adjacent links.  (Routes of three or more hops chain
// the flows' sharing components into one that grows for as long as the
// run lasts, and per-step cost grows with it: not a stationary load.)
// Single-link flows pick their link in proportion to its capacity, so
// every link runs at a similar, stable utilization; uniform picks
// overload the slowest links and concurrency never levels off.
//
// After a warm-up to steady concurrency the scenario advances in fixed
// simulated steps; one op is one step: the driver schedules the step's
// pre-generated arrivals and runs the simulator to the step's end.  No
// other layer takes part.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "seams.hpp"
#include "util/rng.hpp"
#include "workload.hpp"
#include "workload/gridworld.hpp"

namespace perfbench {
namespace {

using namespace wadp;

constexpr std::size_t kSites = 100;
constexpr std::size_t kLinks = 300;
constexpr double kStep = 0.02;              ///< simulated seconds per op
constexpr double kArrivalsPerSecond = 250.0;
constexpr double kSingleLinkShare = 0.9;
constexpr double kMinSize = 1.0 * kMB;
constexpr double kMaxSize = 50.0 * kMB;
constexpr std::uint64_t kWarmSteps = 3000;  ///< 60 simulated seconds
constexpr int kStreams = 8;
/// Stationarity guard.  The measured steps are cut into kDriftChunks
/// equal chunks; each chunk's mean active-flow count must lie within
/// kDriftTolerance of the mean over all measured steps (no drift inside
/// the phase), and that mean within kDriftTolerance of the mean over
/// the last 40 simulated seconds of the warm-up (no step from warm-up
/// to phase).  Per-step cost grows about linearly with the flows in
/// flight, so a drift this size stays inside the 0.25 timing bound.
/// Over seeds 1-8 a chunk's mean strayed from the phase mean by up to
/// 7.4%, and the phase mean from the warm-up's by up to 10.4%.
constexpr std::size_t kDriftChunks = 10;
constexpr double kDriftTolerance = 0.15;
constexpr std::uint32_t kRouteDraws = 1u << 30;

struct Arrival {
  double time = 0.0;
  /// Uniform draw in [0, kRouteDraws) picking the link (by capacity) or
  /// the adjacent link pair.
  std::uint32_t route = 0;
  bool single = true;
  Bytes size = 0;
};

struct Inputs {
  /// Arrivals in time order; step s owns [first[s], first[s + 1]).
  std::vector<Arrival> arrivals;
  std::vector<std::uint64_t> first;
};

std::shared_ptr<const Inputs> generate(std::uint64_t seed,
                                       std::uint64_t total_ops) {
  auto in = std::make_shared<Inputs>();
  util::Rng rng(seed ^ 0x6a1d5ULL);
  const std::uint64_t steps = kWarmSteps + total_ops;
  double t = 0.0;
  in->first.push_back(0);
  for (std::uint64_t s = 0; s < steps; ++s) {
    const double end = kStep * static_cast<double>(s + 1);
    for (;;) {
      const double next = t + rng.exponential(1.0 / kArrivalsPerSecond);
      if (next >= end) break;
      t = next;
      Arrival a;
      a.time = t;
      a.single = rng.uniform() < kSingleLinkShare;
      a.route = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kRouteDraws) - 1));
      a.size = std::max<Bytes>(1, static_cast<Bytes>(rng.log_uniform(kMinSize, kMaxSize)));
      in->arrivals.push_back(a);
    }
    t = std::max(t, end);
    in->first.push_back(in->arrivals.size());
  }
  return in;
}

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::shared_ptr<const Inputs> in, std::uint64_t seed,
               std::uint64_t total_ops)
      : in_(std::move(in)), seed_(seed), active_(total_ops, 0) {
    span_step_ = span_name("sim.step");
    span_alloc_ = span_name("net.alloc");
  }

  void build() override {
    workload::GridSpec spec;
    spec.sites = kSites;
    spec.links = kLinks;
    world_ = std::make_unique<workload::GridWorld>(spec, seed_);
    // Capacity CDF for single-link picks; adjacent link pairs (sharing
    // a site), in link order, for two-link flows.
    const auto& links = world_->topology().links();
    double total = 0.0;
    for (const auto& link : links) {
      total += link->capacity();
      capacity_cdf_.push_back(total);
    }
    for (double& c : capacity_cdf_) c /= total;
    for (std::size_t i = 0; i < links.size(); ++i) {
      for (std::size_t j = i + 1; j < links.size(); ++j) {
        const auto& x = *links[i];
        const auto& y = *links[j];
        if (x.site_a() == y.site_a() || x.site_a() == y.site_b() ||
            x.site_b() == y.site_a() || x.site_b() == y.site_b()) {
          pairs_.emplace_back(links[i].get(), links[j].get());
        }
      }
    }
  }

  void warm_up() override {
    double sum = 0.0;
    for (std::uint64_t s = 0; s < kWarmSteps; ++s) {
      step(s);
      if (s >= kWarmSteps / 3) sum += static_cast<double>(world_->engine().active_flows());
    }
    warm_mean_ = sum / static_cast<double>(kWarmSteps - kWarmSteps / 3);
  }

  void phase_begin() override {
    completed_before_ = completed_;
    alloc_before_ = world_->engine().alloc_stats();
    first_op_ = UINT64_MAX;
  }
  void phase_end() override {
    completed_in_phase_ = completed_ - completed_before_;
    alloc_after_ = world_->engine().alloc_stats();
  }

  bool op(std::uint64_t i) override {
    first_op_ = std::min(first_op_, i);
    last_op_ = i;
    const std::uint64_t shed_before = shed_;
    step(kWarmSteps + i);
    active_[i] = static_cast<std::uint32_t>(world_->engine().active_flows());
    hash_.add(static_cast<std::uint64_t>(i));
    hash_.add(static_cast<std::uint64_t>(active_[i]));
    hash_.add(completed_);
    return shed_ == shed_before;
  }

  CheckResult check() override {
    CheckResult result;
    const std::uint64_t arrivals = in_->first[kWarmSteps + last_op_ + 1];
    const bool arrivals_ok = arrivals == started_ + shed_;
    const std::uint64_t active = world_->engine().active_flows();
    const bool flows_ok = started_ == completed_ + active;
    // Chunk means over every measured step (both halves of a traced run).
    const std::uint64_t steps = last_op_ + 1;
    const std::size_t chunks = static_cast<std::size_t>(
        std::min<std::uint64_t>(kDriftChunks, steps));
    std::vector<double> chunk_mean(chunks);
    double phase_mean = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint64_t lo = steps * c / chunks;
      const std::uint64_t hi = steps * (c + 1) / chunks;
      double sum = 0.0;
      for (std::uint64_t i = lo; i < hi; ++i) sum += active_[i];
      chunk_mean[c] = sum / static_cast<double>(hi - lo);
      phase_mean += sum;
    }
    phase_mean /= static_cast<double>(steps);
    std::uint64_t drifted = 0;
    double worst = 0.0;
    for (const double m : chunk_mean) {
      const double deviation = std::fabs(m / phase_mean - 1.0);
      worst = std::max(worst, deviation);
      if (!(deviation <= kDriftTolerance)) ++drifted;
    }
    const double level = std::fabs(phase_mean / warm_mean_ - 1.0);
    const bool level_ok = level <= kDriftTolerance;
    result.checked = 3 + chunks;
    result.mismatches =
        (arrivals_ok ? 0 : 1) + (flows_ok ? 0 : 1) + (level_ok ? 0 : 1) + drifted;
    result.notes.push_back("arrivals " + std::to_string(arrivals) + " = started " +
                           std::to_string(started_) + " + shed " + std::to_string(shed_) +
                           (arrivals_ok ? ": ok" : ": VIOLATED"));
    result.notes.push_back("started " + std::to_string(started_) + " = completed " +
                           std::to_string(completed_) + " + active " +
                           std::to_string(active) + (flows_ok ? ": ok" : ": VIOLATED"));
    char note[200];
    std::snprintf(note, sizeof note,
                  "mean active flows of %zu chunks within %.0f%% of the phase's "
                  "%.1f: %llu outside, largest deviation %.1f%%",
                  chunks, kDriftTolerance * 100.0, phase_mean,
                  static_cast<unsigned long long>(drifted), worst * 100.0);
    result.notes.push_back(note);
    std::snprintf(note, sizeof note,
                  "phase mean %.1f within %.0f%% of the warm-up's %.1f: "
                  "deviation %.1f%%%s",
                  phase_mean, kDriftTolerance * 100.0, warm_mean_, level * 100.0,
                  level_ok ? "" : ", VIOLATED");
    result.notes.push_back(note);
    return result;
  }

  void layer_metrics(const MeasureContext& ctx,
                     std::map<std::string, double>& out) override {
    const double steps = static_cast<double>(ctx.ops);
    const double executed = ctx.counter("wadp_sim_events_executed_total");
    out["sim.events_per_op"] = executed / steps;
    const double scheduled = ctx.counter("wadp_sim_events_scheduled_total");
    out["sim.fastpath_ratio"] =
        scheduled > 0.0 ? ctx.counter("wadp_sim_events_fastpath_total") / scheduled : 0.0;
    const auto reallocs = static_cast<double>(alloc_after_.reallocs - alloc_before_.reallocs);
    out["net.alloc_us_per_op"] =
        static_cast<double>(alloc_after_.alloc_ns - alloc_before_.alloc_ns) * 1e-3 / steps;
    out["net.reallocs_per_op"] = reallocs / steps;
    out["net.sweeps_per_op"] =
        static_cast<double>(alloc_after_.sweeps - alloc_before_.sweeps) / steps;
    out["net.flows_per_realloc"] =
        reallocs > 0.0
            ? static_cast<double>(alloc_after_.flows_touched - alloc_before_.flows_touched) /
                  reallocs
            : 0.0;
    out["net.flows_completed_per_step"] =
        static_cast<double>(completed_in_phase_) / steps;
    double active_sum = 0.0;
    for (std::uint64_t i = first_op_; i <= last_op_; ++i) active_sum += active_[i];
    out["net.active_flows_mean"] = active_sum / static_cast<double>(last_op_ - first_op_ + 1);
    out["obs.spans_per_query"] = ctx.counter("tracer:recorded") / steps;
    out["obs.events_per_query"] = ctx.counter("events:emitted") / steps;
    if (ctx.trace == nullptr) return;
    put_layer_shares(*ctx.trace, out);
    for (const auto& layer : ctx.trace->layers) {
      if (layer.layer == "sim") out["sim.run_self_us"] = layer.self_p50_us;
    }
  }

  std::uint64_t op_stream_hash() const override { return hash_.value(); }

 private:
  void start(const Arrival& a) {
    auto& topology = world_->topology();
    net::FlowSpec spec;
    spec.tcp = topology.tcp();
    if (a.single) {
      const double u = static_cast<double>(a.route) / kRouteDraws;
      const auto index = static_cast<std::size_t>(
          std::upper_bound(capacity_cdf_.begin(), capacity_cdf_.end(), u) -
          capacity_cdf_.begin());
      net::Link* link = topology.links()[std::min(index, capacity_cdf_.size() - 1)].get();
      spec.links = {link};
      spec.base_rtt = link->rtt();
    } else if (!pairs_.empty()) {
      const auto& [x, y] = pairs_[a.route % pairs_.size()];
      spec.links = {x, y};
      spec.base_rtt = x->rtt() + y->rtt();
    } else {
      ++shed_;
      return;
    }
    spec.streams = kStreams;
    spec.size = a.size;
    spec.on_complete = [this](const net::FlowStats&) { ++completed_; };
    world_->engine().start_flow(std::move(spec));
    ++started_;
  }

  /// One fixed simulated step: schedule its arrivals, run to its end.
  void step(std::uint64_t s) {
    auto& sim = world_->sim();
    Scope span(span_step_);
    const std::uint64_t alloc_before = world_->engine().alloc_stats().alloc_ns;
    for (std::uint64_t k = in_->first[s]; k < in_->first[s + 1]; ++k) {
      const Arrival* a = &in_->arrivals[k];
      sim.schedule_at(a->time, [this, a] { start(*a); });
    }
    sim.run_until(kStep * static_cast<double>(s + 1));
    ledger().add_measured_child(
        span_alloc_,
        static_cast<std::int64_t>(world_->engine().alloc_stats().alloc_ns - alloc_before));
  }

  std::shared_ptr<const Inputs> in_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> active_;
  std::uint32_t span_step_ = 0;
  std::uint32_t span_alloc_ = 0;
  std::unique_ptr<workload::GridWorld> world_;
  std::vector<double> capacity_cdf_;
  std::vector<std::pair<net::Link*, net::Link*>> pairs_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_ = 0;
  double warm_mean_ = 0.0;
  std::uint64_t first_op_ = 0;
  std::uint64_t last_op_ = 0;
  std::uint64_t completed_before_ = 0;
  std::uint64_t completed_in_phase_ = 0;
  net::FluidEngine::AllocStats alloc_before_, alloc_after_;
  StreamHash hash_;
};

}  // namespace

WorkloadFactory make_grid(const Options& options, std::uint64_t total_ops) {
  auto inputs = generate(options.seed, total_ops);
  const std::uint64_t seed = options.seed;
  return [inputs, seed, total_ops] {
    return std::make_unique<GridWorkload>(inputs, seed, total_ops);
  };
}

}  // namespace perfbench
