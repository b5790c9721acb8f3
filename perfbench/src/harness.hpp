// Measurement harness shared by the perfbench workloads.
//
// A workload is a closed loop with one client: the driver calls op(i)
// for i = 0..N-1, timing each call on the wall clock, and the harness
// turns those timings into the end-to-end metrics.  The traced run
// additionally records one span per layer boundary into a benchmark-
// owned ledger (never obs::Tracer), from which per-layer self-times
// are derived.
//
// Every timing is computed per equal slice of the measured phase, and
// the slice at the fast decile is reported (the 10th percentile of
// slice latencies, the 90th of slice throughputs).  The shared hosts
// this runs on slow down in episodes that can cover most of a run; the
// fast decile tracks the code's own speed through them, where the
// median slice moves with the episodes (see perfbench/README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (same clock as the program's own
/// allocator timings, which use std::chrono::steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Percentile of `values` (q in [0,1], nearest-rank on a sorted copy).
/// Refuses (nullopt) unless at least 10 samples lie beyond the
/// percentile, i.e. count * (1 - q) >= 10, so a reported p99 always
/// rests on >= 1000 samples.
std::optional<double> percentile(std::vector<double> values, double q);

/// Median of a non-empty vector (no tail requirement).
double median(std::vector<double> values);

/// The fast-decile value of per-slice timings: the 10th percentile
/// when lower is better, the 90th when higher is (nearest rank).
double fast_decile(std::vector<double> values, bool lower_is_better);

// ---------------------------------------------------------------------
// Span ledger (traced run only).

/// One timed layer boundary.  `parent` is the index of the enclosing
/// span plus one (0 = root); `op` the driver op the span belongs to.
struct SpanRecord {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class SpanLedger {
 public:
  /// True while the traced phase runs; every wrapper checks this first.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// Interns a span name ("layer.what"); the layer is the text before
  /// the first dot.
  std::uint32_t intern(std::string_view name);
  std::string layer(std::uint32_t id) const;
  std::uint32_t name_count() const {
    return static_cast<std::uint32_t>(names_.size());
  }

  /// Opens a span nested under the innermost open one; returns its index.
  std::size_t open(std::uint32_t name);
  void close(std::size_t index);
  /// Records an already-measured child of the innermost open span
  /// (work timed inside the program, e.g. the allocator's own clock).
  /// It is laid out at the start of its parent for the nesting check.
  void add_measured_child(std::uint32_t name, std::int64_t duration_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes the first `max_ops` ops' spans as TSV (name, op, parent,
  /// start_ns, end_ns) to `path`.
  bool write_tsv(const std::string& path, std::uint32_t max_ops) const;

 private:
  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

SpanLedger& ledger();

/// RAII span at a layer boundary; a no-op unless the ledger is enabled.
class Scope {
 public:
  explicit Scope(std::uint32_t name) {
    if (ledger().enabled()) index_ = ledger().open(name) + 1;
  }
  ~Scope() {
    if (index_ != 0) ledger().close(index_ - 1);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::size_t index_ = 0;
};

/// Per-layer self-time analysis of a ledger.
struct LayerStat {
  std::string layer;
  std::uint64_t spans = 0;
  std::uint64_t ops_touched = 0;
  double self_p50_us = 0.0;  ///< per touching op
  double self_p99_us = 0.0;  ///< per touching op (0 when too few ops)
  double share = 0.0;        ///< of summed root (op) time
};

struct TraceAnalysis {
  std::vector<LayerStat> layers;
  double root_ns_total = 0.0;     ///< sum of root span durations
  double self_ns_total = 0.0;     ///< sum of every span's self-time
  std::uint64_t nesting_errors = 0;
  std::uint64_t negative_self = 0;
  std::uint64_t dangling_parents = 0;
  std::uint64_t unclosed = 0;
  /// Self-time per span (parallel to the ledger's spans).
  std::vector<double> self_ns;
};

TraceAnalysis analyze(const SpanLedger& ledger);

/// Interned id of a span name (shorthand for ledger().intern).
inline std::uint32_t span_name(const char* name) { return ledger().intern(name); }

/// Durations (or self-times) of every closed span named `name`, in op
/// order.
std::vector<double> span_times(const TraceAnalysis& analysis,
                               std::uint32_t name, bool self);

/// Median of nanosecond timings, in microseconds (0 when empty).
inline double median_us(const std::vector<double>& ns) {
  return median(ns) * 1e-3;
}

// ---------------------------------------------------------------------
// Counter deltas.

/// Sum over labels of every counter family (and `<name>:count` /
/// `<name>:sum` for histograms) in the global registry, plus the
/// program's own span and event totals as "tracer:recorded" and
/// "events:emitted".
std::map<std::string, double> registry_totals();

/// after - before for one family (0 when absent).
double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

// ---------------------------------------------------------------------
// Measured phase.

struct PhaseResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  ///< first op start to last op end
  std::size_t slices = 0;
  std::size_t p99_groups = 0;
  double throughput_ops_s = 0.0;  ///< fast-decile slice
  double latency_p50_us = 0.0;    ///< fast-decile slice median
  double latency_p99_us = 0.0;    ///< fast-decile per-group p99
  std::vector<float> latency_ns;  ///< per op, in op order
  std::vector<double> slice_throughput;  ///< ops/s per slice, in order
  std::vector<double> slice_p50_us;      ///< per slice, in order
  std::vector<double> group_p99_us;      ///< per p99 group, in order
};

/// Runs ops [first, first + count) through `op` (which returns false for a
/// failed op), timing each, split into
/// `slices` equal slices.  p99 is taken per group of consecutive slices
/// holding at least 1000 ops and reported at the groups' fast decile.
PhaseResult run_phase(const std::function<bool(std::uint64_t)>& op,
                      std::uint64_t first, std::uint64_t count,
                      std::size_t slices);

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  ///< how the value was obtained, with counts
};

/// Prints "name = value unit  [samples]" lines under a heading.
void print_metrics(const std::string& heading,
                   const std::vector<Metric>& metrics);

/// The final stdout line: the machine-readable result.
void print_result_json(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Peak resident set size of this process (MB), from /proc/self/status.
double peak_rss_mb();

/// FNV-1a accumulator for op-stream hashes.
class StreamHash {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace perfbench
