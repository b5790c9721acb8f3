#include "workload.hpp"

namespace perfbench {

double nominal_ops_per_second(const std::string& workload) {
  if (workload == "predict") return 90000.0;
  // Below the calm-host rate (~22000/s).  The history grows with every
  // fetch, and peak RSS falls into one of two seed-dependent modes whose
  // gap grows with it: 219 vs 231 MB (5%) at 220k fetches, 320 vs
  // 355 MB (11%) at 330k.  A 15 s run held near 220k fetches keeps the
  // seed spread inside the 0.1 bound on peak_rss_mb.
  if (workload == "transfer") return 14500.0;
  if (workload == "grid") return 2700.0;
  return 0.0;
}

const std::vector<LayerMetricDef>& layer_catalog() {
  static const std::vector<LayerMetricDef> catalog = {
      // Guards carried from the end-to-end side (zero or undefined on
      // some workloads, so they cannot be bounded end-to-end metrics).
      {"failed_ratio", "ratio"},
      {"prediction_error_pct", "%"},
      // replica
      {"replica.share_pct", "%"},
      // mds
      {"mds.gris_us_per_fetch", "us"},
      {"mds.share_pct", "%"},
      // core
      {"core.default_us", "us"},
      {"core.named_us", "us"},
      {"core.all_us", "us"},
      {"core.query_p99_us", "us"},
      {"core.replays_per_kq", "1/kq"},
      {"core.warm_up_s", "s"},
      {"core.predict_us", "us"},
      {"core.share_pct", "%"},
      // predict
      {"predict.fallback_ratio", "ratio"},
      {"predict.fallback_query_us", "us"},
      // obs
      {"obs.spans_per_query", "count"},
      {"obs.events_per_query", "count"},
      {"obs.quality_observe_us", "us"},
      {"obs.quality_join_ratio", "ratio"},
      {"obs.share_pct", "%"},
      // history
      {"history.append_us", "us"},
      {"history.cow_copies_per_append", "count"},
      {"history.share_pct", "%"},
      // durability
      {"durability.recover_s", "s"},
      {"durability.wal_append_us", "us"},
      {"durability.bytes_per_record", "B"},
      {"durability.commit_batches_per_krec", "1/krec"},
      {"durability.share_pct", "%"},
      // gridftp and resilience
      {"gridftp.attempts_per_fetch", "count"},
      {"resilience.retries_per_kfetch", "1/kfetch"},
      {"resilience.failovers_per_kfetch", "1/kfetch"},
      {"resilience.exhausted_per_kfetch", "1/kfetch"},
      // sim
      {"sim.run_self_us", "us"},
      {"sim.events_per_op", "count"},
      {"sim.fastpath_ratio", "ratio"},
      {"sim.share_pct", "%"},
      // net
      {"net.alloc_us_per_op", "us"},
      {"net.reallocs_per_op", "count"},
      {"net.sweeps_per_op", "count"},
      {"net.flows_per_realloc", "count"},
      {"net.flows_completed_per_step", "count"},
      {"net.active_flows_mean", "count"},
      {"net.share_pct", "%"},
      // the trace itself
      {"trace.coverage_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return catalog;
}

}  // namespace perfbench
