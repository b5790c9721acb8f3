// The interface every perfbench workload implements, and the per-layer
// metric catalog they report into.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory (WAL, snapshots, span dumps); created and
  /// removed by main().
  std::string scratch;
  /// Where the span ledger is written at exit ("" = not written).
  std::string span_dump;
};

/// Everything a workload sees after its measured phase.
struct MeasureContext {
  std::uint64_t ops = 0;  ///< ops in the measured (or traced) phase
  std::map<std::string, double> before;  ///< registry totals
  std::map<std::string, double> after;
  const TraceAnalysis* trace = nullptr;  ///< traced run only
  double counter(const std::string& name) const {
    return delta(before, after, name);
  }
};

/// Outcome of the post-phase output checks.
struct CheckResult {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> notes;  ///< one line per check, printed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Constructs the world from the pre-generated inputs.  Timed as part
  /// of setup_s, together with warm_up().
  virtual void build() = 0;
  /// Untimed-per-op warm-up to steady state.
  virtual void warm_up() = 0;
  /// Called right before the measured (plain run) or traced phase, so
  /// workload-owned tallies can be read as deltas over it.
  virtual void phase_begin() {}
  /// Called right after that phase, before the output checks run.
  virtual void phase_end() {}
  /// Runs measured op `i` (ops are numbered across phases); false when
  /// the op failed.
  virtual bool op(std::uint64_t i) = 0;
  /// Post-phase output checks on a seeded sample.
  virtual CheckResult check() = 0;
  /// Per-layer metrics (name -> value) from counters and, in the traced
  /// run, the span analysis.  Names missing here report 0.
  virtual void layer_metrics(const MeasureContext& ctx,
                             std::map<std::string, double>& out) = 0;
  /// Mean paper error of served default predictions (percent), or
  /// nullopt when the workload serves none.
  virtual std::optional<double> prediction_error_pct() const {
    return std::nullopt;
  }
  /// Hash of the op inputs and outputs seen so far.
  virtual std::uint64_t op_stream_hash() const = 0;
  /// Set-up sub-timings of this instance, keyed by their per-layer
  /// metric name; the report carries their median over the set-ups.
  virtual std::map<std::string, double> setup_parts() const { return {}; }
};

/// Builds one workload instance over inputs generated once per run
/// (set-up is repeated on fresh instances; the inputs are shared).
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

WorkloadFactory make_predict(const Options& options, std::uint64_t total_ops);
WorkloadFactory make_transfer(const Options& options, std::uint64_t total_ops);
WorkloadFactory make_grid(const Options& options, std::uint64_t total_ops);

/// Work budget of each workload: measured ops per nominal second.  The
/// measured phase is a fixed op count (seconds x budget), so every
/// count repeats exactly for a seed; the budget is sized so the phase
/// takes about `seconds` of wall time on a 4-vCPU x86 VM.
double nominal_ops_per_second(const std::string& workload);

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// The per-layer catalog, in print order (BENCHMARK.json's per_layer).
const std::vector<LayerMetricDef>& layer_catalog();

}  // namespace perfbench
