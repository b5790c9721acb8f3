// transfer: the paper's transfer path, one fetch at a time, on the
// calibrated 3-site Testbed.  Each op:
//   1. the scheduler calls PredictionService::predict() for every
//      replica of the file;
//   2. FailoverFetcher selects a replica through a broker over the
//      InformationFabric GIIS;
//   3. GridFtpClient runs the attempt, with seeded connect and
//      truncation faults, retries and failover;
//   4. FluidEngine moves the data (the driver runs the simulator until
//      the fetch callback fires);
//   5. the server logs the record, which goes to the HistoryStore, then
//      to the WAL (fsync none), then to the quality join.
//
// The GRIS provider cache TTL is one simulated day, so providers
// republish a few times per run: a refresh scans the whole (growing)
// series, and a short TTL would make per-fetch cost grow with history.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/information_fabric.hpp"
#include "core/prediction_service.hpp"
#include "durability/wal.hpp"
#include "obs/context.hpp"
#include "obs/quality.hpp"
#include "replica/broker.hpp"
#include "replica/catalog.hpp"
#include "replica/fetcher.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "seams.hpp"
#include "util/rng.hpp"
#include "workload.hpp"
#include "workload/testbed.hpp"

namespace perfbench {
namespace {

using namespace wadp;

constexpr std::uint64_t kWarmOps = 3000;
constexpr double kChunk = 20.0;  ///< simulated seconds per run_until call
constexpr double kConnectFaultRate = 0.03;
constexpr double kTruncateFaultRate = 0.02;
constexpr double kProviderTtl = 86400.0;
/// Records per WAL group commit.  At the default 64 the batch write
/// lands on 1.6% of fetches, right at the p99, whose value then swung
/// with the host's I/O; at 1024 it lands on 0.1% and the p99 stays
/// inside the retried-fetch mode (~5% of fetches).
constexpr std::size_t kWalBatch = 1024;
const char* const kClientSite = "anl";
const std::vector<std::string> kReplicaSites = {"lbl", "isi"};

/// The fetched file sizes: the paper's sizes up to 100 MB.
const std::vector<Bytes>& sizes() {
  static const std::vector<Bytes> s = {1 * kMB,  2 * kMB,  5 * kMB, 10 * kMB,
                                       25 * kMB, 50 * kMB, 100 * kMB};
  return s;
}

std::string lfn_for(Bytes size) {
  return "lfn://paper/" + std::to_string(size / kMB) + "MB";
}

struct Inputs {
  std::vector<std::uint8_t> size_index;  ///< per stream position
};

std::shared_ptr<const Inputs> generate(std::uint64_t seed,
                                       std::uint64_t total_ops) {
  auto in = std::make_shared<Inputs>();
  util::Rng rng(seed ^ 0x7a45f3ULL);
  in->size_index.resize(kWarmOps + total_ops);
  for (auto& s : in->size_index) {
    s = static_cast<std::uint8_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sizes().size()) - 1));
  }
  return in;
}

class TransferWorkload final : public Workload {
 public:
  TransferWorkload(std::shared_ptr<const Inputs> in, const Options& options,
                   std::uint64_t total_ops)
      : in_(std::move(in)),
        seed_(options.seed),
        wal_dir_(options.scratch + "/transfer-wal"),
        callbacks_(total_ops, 0) {
    span_predict_ = span_name("core.predict");
    span_fetch_ = span_name("replica.fetch");
    span_sim_ = span_name("sim.run");
    span_alloc_ = span_name("net.alloc");
    span_append_ = span_name("history.append");
    span_wal_ = span_name("durability.wal_append");
    span_quality_ = span_name("obs.quality_observe");
    std::filesystem::remove_all(wal_dir_);
  }

  void build() override {
    testbed_ = std::make_unique<workload::Testbed>(
        workload::Campaign::kAugust2001, seed_);
    auto& tb = *testbed_;
    core::FabricConfig fabric_config;
    fabric_config.provider_cache_ttl = kProviderTtl;
    fabric_config.registration_ttl = 1e12;
    fabric_ = std::make_unique<core::InformationFabric>(tb, fabric_config);
    // Route the GIIS fan-out through timing seams around each GRIS.
    for (const auto& site : tb.sites()) {
      fabric_->giis().deregister(fabric_->gris(site));
      registrants_.push_back(std::make_unique<TimedRegistrant>(fabric_->gris(site)));
      fabric_->giis().register_service(*registrants_.back(), tb.sim().now(), 1e12);
    }
    for (const Bytes size : sizes()) {
      for (const auto& site : kReplicaSites) {
        catalog_.add_replica(lfn_for(size),
                             {.site = site,
                              .server_host = tb.server(site).config().host,
                              .path = workload::paper_file_path(size)});
      }
    }
    quality_ = std::make_unique<obs::QualityTracker>();
    broker_ = std::make_unique<replica::ReplicaBroker>(
        catalog_, fabric_->giis(), replica::SelectionPolicy::kPredictedBest, seed_);
    broker_->bind_history(&tb.history());
    broker_->bind_quality(quality_.get());
    service_ = std::make_unique<core::PredictionService>(tb.history_ptr());
    service_->bind_quality(quality_.get());

    // Record path: server log -> HistoryStore -> WAL -> quality join.
    wal_ = std::make_unique<durability::WriteAheadLog>(
        durability::WalConfig{.dir = wal_dir_,
                              .fsync = durability::FsyncPolicy::kNone,
                              .group_commit_records = kWalBatch});
    for (const auto& site : tb.sites()) {
      tb.server(site).log().set_record_sink(
          [this](const gridftp::TransferRecord& r) {
            ++logged_;
            Scope span(span_append_);
            testbed_->history().append(r);
          });
    }
    tb.history().add_record_observer([this](const gridftp::TransferRecord& r) {
      Scope span(span_wal_);
      wal_->append(r);
    });
    tb.history().add_record_observer([this](const gridftp::TransferRecord& r) {
      Scope span(span_quality_);
      quality_->observe_transfer(r);
    });

    auto& client = tb.client(kClientSite);
    client.set_retry_policy(resilience::default_wan_policy(), seed_);
    resilience::FaultSpec spec;
    spec.connect_failure_rate = kConnectFaultRate;
    spec.truncation_rate = kTruncateFaultRate;
    spec.mean_fault_delay = 1.0;
    injector_ = std::make_unique<resilience::FaultInjector>(tb.sim(), spec,
                                                            seed_ ^ 0xfa17ULL);
    client.set_fault_injector(injector_.get());
    client.set_failure_sink([this](const gridftp::TransferRecord& r) {
      ++failure_records_;
      Scope span(span_append_);
      testbed_->history().append(r);
    });
    fetcher_ = std::make_unique<replica::FailoverFetcher>(
        tb.sim(), *broker_, client,
        [this](const replica::PhysicalReplica& r) { return &testbed_->server(r.site); });
  }

  void warm_up() override {
    for (std::uint64_t p = 0; p < kWarmOps; ++p) step(p, nullptr);
    error_sum_ = 0.0;
    error_count_ = 0;
  }

  void phase_begin() override {
    begin_ = tallies();
    alloc_before_ = testbed_->engine().alloc_stats();
  }
  void phase_end() override {
    wal_->flush();
    end_ = tallies();
    alloc_after_ = testbed_->engine().alloc_stats();
  }

  bool op(std::uint64_t i) override {
    return step(kWarmOps + i, &callbacks_[i]);
  }

  CheckResult check() override {
    CheckResult result;
    // Every fetch callback fired exactly once.
    std::uint64_t bad_callbacks = 0;
    for (std::uint64_t i = 0; i < ops_run_; ++i) {
      if (callbacks_[i] != 1) ++bad_callbacks;
    }
    result.checked += ops_run_;
    result.mismatches += bad_callbacks;
    result.notes.push_back("fetch callbacks fired exactly once on " +
                           std::to_string(ops_run_) + " fetches: " +
                           std::to_string(bad_callbacks) + " violations");
    // Record conservation over the measured phase.
    const Tallies d = end_ - begin_;
    const std::uint64_t produced = d.logged_registry + d.failure_records;
    const bool sinks = d.logged_sink == d.logged_registry;
    const bool store = d.history_appends == produced;
    const bool wal = d.wal_appended == produced;
    const bool quality = d.quality_seen == produced;
    const std::uint64_t conservation = (sinks ? 0 : 1) + (store ? 0 : 1) +
                                       (wal ? 0 : 1) + (quality ? 0 : 1);
    result.checked += 4;
    result.mismatches += conservation;
    result.notes.push_back(
        "records: " + std::to_string(d.logged_registry) + " logged by servers + " +
        std::to_string(d.failure_records) + " failed attempts = " +
        std::to_string(produced) + "; HistoryStore " +
        std::to_string(d.history_appends) + ", WAL " +
        std::to_string(d.wal_appended) + ", quality joins+skips+misses " +
        std::to_string(d.quality_seen) + ": " +
        (conservation == 0 ? "conserved" : "NOT conserved"));
    return result;
  }

  void layer_metrics(const MeasureContext& ctx,
                     std::map<std::string, double>& out) override {
    const Tallies d = end_ - begin_;
    const double fetches = static_cast<double>(ctx.ops);
    const double kf = fetches / 1000.0;
    out["gridftp.attempts_per_fetch"] =
        ctx.counter("wadp_client_transfers_total") / fetches;
    out["resilience.retries_per_kfetch"] = ctx.counter("wadp_resilience_retries_total") / kf;
    out["resilience.failovers_per_kfetch"] =
        ctx.counter("wadp_resilience_failovers_total") / kf;
    out["resilience.exhausted_per_kfetch"] =
        ctx.counter("wadp_resilience_retry_exhausted_total") / kf;
    const double executed = ctx.counter("wadp_sim_events_executed_total");
    out["sim.events_per_op"] = executed / fetches;
    const double scheduled = ctx.counter("wadp_sim_events_scheduled_total");
    out["sim.fastpath_ratio"] =
        scheduled > 0.0 ? ctx.counter("wadp_sim_events_fastpath_total") / scheduled : 0.0;
    const auto reallocs = static_cast<double>(alloc_after_.reallocs - alloc_before_.reallocs);
    out["net.alloc_us_per_op"] =
        static_cast<double>(alloc_after_.alloc_ns - alloc_before_.alloc_ns) * 1e-3 / fetches;
    out["net.reallocs_per_op"] = reallocs / fetches;
    out["net.sweeps_per_op"] =
        static_cast<double>(alloc_after_.sweeps - alloc_before_.sweeps) / fetches;
    out["net.flows_per_realloc"] =
        reallocs > 0.0
            ? static_cast<double>(alloc_after_.flows_touched - alloc_before_.flows_touched) /
                  reallocs
            : 0.0;
    out["history.cow_copies_per_append"] =
        d.history_appends > 0
            ? ctx.counter("wadp_history_cow_copies_total") / static_cast<double>(d.history_appends)
            : 0.0;
    out["durability.bytes_per_record"] =
        d.wal_appended > 0 ? static_cast<double>(d.wal_bytes) / static_cast<double>(d.wal_appended)
                           : 0.0;
    out["durability.commit_batches_per_krec"] =
        d.wal_appended > 0 ? static_cast<double>(d.wal_batches) /
                                 static_cast<double>(d.wal_appended) * 1000.0
                           : 0.0;
    out["obs.quality_join_ratio"] =
        d.quality_joins + d.quality_misses > 0
            ? static_cast<double>(d.quality_joins) /
                  static_cast<double>(d.quality_joins + d.quality_misses)
            : 0.0;
    out["obs.spans_per_query"] = ctx.counter("tracer:recorded") / fetches;
    out["obs.events_per_query"] = ctx.counter("events:emitted") / fetches;
    if (ctx.trace == nullptr) return;

    const TraceAnalysis& a = *ctx.trace;
    put_layer_shares(a, out);
    for (const auto& layer : a.layers) {
      if (layer.layer == "sim") out["sim.run_self_us"] = layer.self_p50_us;
    }
    out["core.predict_us"] = median_us(span_times(a, span_predict_, false));
    double gris_ns = 0.0;
    for (const double ns : span_times(a, span_name("mds.gris"), false)) gris_ns += ns;
    out["mds.gris_us_per_fetch"] = gris_ns * 1e-3 / fetches;
    out["history.append_us"] = median_us(span_times(a, span_append_, true));
    out["durability.wal_append_us"] = median_us(span_times(a, span_wal_, false));
    out["obs.quality_observe_us"] = median_us(span_times(a, span_quality_, false));
  }

  std::optional<double> prediction_error_pct() const override {
    return error_count_ > 0 ? std::optional<double>(error_sum_ / error_count_)
                            : std::nullopt;
  }

  std::uint64_t op_stream_hash() const override { return hash_.value(); }

 private:
  struct Tallies {
    std::uint64_t logged_sink = 0, logged_registry = 0, failure_records = 0,
                  history_appends = 0, wal_appended = 0, wal_bytes = 0,
                  wal_batches = 0, quality_seen = 0, quality_joins = 0,
                  quality_misses = 0;
    Tallies operator-(const Tallies& o) const {
      return {logged_sink - o.logged_sink,         logged_registry - o.logged_registry,
              failure_records - o.failure_records, history_appends - o.history_appends,
              wal_appended - o.wal_appended,       wal_bytes - o.wal_bytes,
              wal_batches - o.wal_batches,         quality_seen - o.quality_seen,
              quality_joins - o.quality_joins,     quality_misses - o.quality_misses};
    }
  };

  Tallies tallies() const {
    const auto totals = registry_totals();
    const auto get = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? std::uint64_t{0}
                                : static_cast<std::uint64_t>(it->second);
    };
    const auto wal = wal_->stats();
    const auto report = quality_->report();
    Tallies t;
    t.logged_sink = logged_;
    t.logged_registry = get("wadp_transfers_logged_total");
    t.failure_records = failure_records_;
    t.history_appends = get("wadp_history_appends_total");
    t.wal_appended = wal.appended;
    t.wal_bytes = wal.bytes_written;
    t.wal_batches = wal.batches;
    t.quality_seen = report.joins() + report.skipped + report.join_misses;
    t.quality_joins = report.joins();
    t.quality_misses = report.join_misses;
    return t;
  }

  /// One fetch, start to callback.
  bool step(std::uint64_t p, std::uint8_t* callback_count) {
    auto& tb = *testbed_;
    const Bytes size = sizes()[in_->size_index[p]];
    const std::string lfn = lfn_for(size);
    const std::string& client_ip = tb.client(kClientSite).ip();
    const obs::ScopedTraceContext trace(obs::TraceContext::mint(), 0);

    // 1. The scheduler's predictions, one per replica site.
    double predicted[2] = {0.0, 0.0};
    bool have[2] = {false, false};
    for (std::size_t r = 0; r < kReplicaSites.size(); ++r) {
      const history::SeriesKey key{.host = tb.server(kReplicaSites[r]).config().host,
                                   .remote_ip = client_ip,
                                   .op = gridftp::Operation::kRead};
      Scope span(span_predict_);
      if (const auto v = service_->predict(key, size, tb.sim().now())) {
        predicted[r] = *v;
        have[r] = true;
      }
    }

    // 2-5. Select, attempt(s), move the data, log and ingest.
    bool done = false;
    replica::FetchOutcome outcome;
    {
      Scope span(span_fetch_);
      fetcher_->fetch(lfn, size, {}, [&done, &outcome, callback_count](
                                          const replica::FetchOutcome& o) {
        if (callback_count != nullptr) ++*callback_count;
        done = true;
        outcome = o;
      });
    }
    while (!done) {
      Scope span(span_sim_);
      const std::uint64_t alloc_before = tb.engine().alloc_stats().alloc_ns;
      tb.sim().run_until(tb.sim().now() + kChunk);
      ledger().add_measured_child(
          span_alloc_,
          static_cast<std::int64_t>(tb.engine().alloc_stats().alloc_ns - alloc_before));
    }

    if (callback_count != nullptr) {
      ++ops_run_;
      hash_.add(static_cast<std::uint64_t>(p));
      hash_.add(static_cast<std::uint64_t>(outcome.ok));
      hash_.add(std::string_view(outcome.transfer.record.host));
      hash_.add(outcome.transfer.record.end_time);
      if (outcome.ok) {
        const double measured = outcome.transfer.record.bandwidth();
        for (std::size_t r = 0; r < kReplicaSites.size(); ++r) {
          if (have[r] && outcome.selection &&
              outcome.selection->replica.site == kReplicaSites[r]) {
            error_sum_ += std::fabs(measured - predicted[r]) / measured * 100.0;
            ++error_count_;
          }
        }
      }
    }
    return outcome.ok;
  }

  std::shared_ptr<const Inputs> in_;
  std::uint64_t seed_;
  std::string wal_dir_;
  std::vector<std::uint8_t> callbacks_;
  std::uint32_t span_predict_ = 0, span_fetch_ = 0, span_sim_ = 0,
                span_alloc_ = 0, span_append_ = 0, span_wal_ = 0,
                span_quality_ = 0;

  std::unique_ptr<workload::Testbed> testbed_;
  std::unique_ptr<core::InformationFabric> fabric_;
  std::vector<std::unique_ptr<TimedRegistrant>> registrants_;
  replica::ReplicaCatalog catalog_;
  std::unique_ptr<obs::QualityTracker> quality_;
  std::unique_ptr<replica::ReplicaBroker> broker_;
  std::unique_ptr<core::PredictionService> service_;
  std::unique_ptr<durability::WriteAheadLog> wal_;
  std::unique_ptr<resilience::FaultInjector> injector_;
  std::unique_ptr<replica::FailoverFetcher> fetcher_;

  std::uint64_t logged_ = 0;
  std::uint64_t failure_records_ = 0;
  std::uint64_t ops_run_ = 0;
  Tallies begin_, end_;
  net::FluidEngine::AllocStats alloc_before_, alloc_after_;
  double error_sum_ = 0.0;
  std::uint64_t error_count_ = 0;
  StreamHash hash_;
};

}  // namespace

WorkloadFactory make_transfer(const Options& options, std::uint64_t total_ops) {
  auto inputs = generate(options.seed, total_ops);
  return [inputs, options, total_ops] {
    return std::make_unique<TransferWorkload>(inputs, options, total_ops);
  };
}

}  // namespace perfbench
