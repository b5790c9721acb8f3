// predict: scheduler queries against PredictionService.
//
// The service runs the regression battery with champion/challenger
// arbitration bound to a QualityTracker, over kSeries deep series that
// carry DISK=/PROBE= samples.  The query mix has three parts: unnamed
// queries (arbitrated default), named queries across the whole battery
// (including the EWMA/SREG/ADAPT members with no streaming form, which
// rescan the series on every call), and occasional predict_all calls.
// Every kIngestEvery queries one record is ingested with record-level
// HistoryStore::append, with the WAL (fsync none) and the tracker
// observing.
//
// Set-up is a service restart: DurabilityManager::recover of a seeded
// snapshot plus WAL tail, then warm_up().
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "durability/manager.hpp"
#include "gridftp/record.hpp"
#include "history/store.hpp"
#include "obs/quality.hpp"
#include "predict/incremental.hpp"
#include "seams.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace wadp;

constexpr std::size_t kHosts = 6;
constexpr std::size_t kClients = 8;
constexpr std::size_t kSeries = kHosts * kClients;
constexpr std::size_t kDepth = 3000;          ///< seeded records per series
constexpr double kSnapshotShare = 0.9;        ///< rest is the WAL tail
constexpr std::uint64_t kIngestEvery = 100;   ///< queries per ingested record
constexpr std::uint64_t kWarmOps = 4000;
constexpr double kNamedShare = 0.28;
constexpr double kAllShare = 0.02;
constexpr std::size_t kCheckSample = 600;
constexpr double kRecordGap = 600.0;          ///< seeded history spacing (s)
constexpr double kStart = kRecordGap * (kDepth + 10);
constexpr double kDt = 1.0;                   ///< virtual seconds per query
const char* const kChallenger = "MREG25";

struct Inputs {
  std::string seed_dir;  ///< pristine durable state (snapshot + WAL tail)
  std::vector<std::string> hosts, clients;
  /// Query stream over positions [0, kWarmOps + measured ops).
  std::vector<std::uint8_t> series;
  std::vector<std::uint8_t> kind;       ///< 0 unnamed, 1 named, 2 all
  std::vector<std::uint8_t> predictor;  ///< battery index for named
  std::vector<std::uint8_t> size_index;
  /// records[k] is ingested before the query at (k + 1) * kIngestEvery.
  std::vector<gridftp::TransferRecord> records;
  std::vector<std::uint8_t> record_series;
  std::vector<std::uint64_t> check_positions;
};

const std::vector<Bytes>& sizes() {
  static const std::vector<Bytes> s = {1 * kMB,   10 * kMB,  50 * kMB,
                                       100 * kMB, 250 * kMB, 500 * kMB,
                                       750 * kMB, 1000 * kMB};
  return s;
}

/// One record of a series whose bandwidth tracks the probe and disk
/// samples (so the regression members have signal to fit).
gridftp::TransferRecord make_record(util::Rng& rng, const std::string& host,
                                    const std::string& client, double base,
                                    double end_time) {
  const double probe = base * rng.uniform(0.7, 1.3);
  const double disk = base * rng.uniform(1.1, 2.2);
  const Bytes size = sizes()[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(sizes().size()) - 1))];
  const double size_factor = 0.75 + 0.25 * std::log10(static_cast<double>(size) / kMB + 1.0) / 3.0;
  const double bw = std::min(probe, 0.8 * disk) * size_factor * rng.uniform(0.85, 1.0);
  gridftp::TransferRecord r;
  r.host = host;
  r.source_ip = client;
  r.file_name = "/data/f" + std::to_string(size / kMB);
  r.file_size = size;
  r.volume = "/data";
  r.end_time = end_time;
  r.start_time = end_time - static_cast<double>(size) / bw;
  r.op = gridftp::Operation::kRead;
  r.streams = 8;
  r.tcp_buffer = 1 << 20;
  r.disk_throughput = disk;
  r.net_probe = probe;
  return r;
}

std::shared_ptr<const Inputs> generate(const Options& options,
                                       std::uint64_t total_ops) {
  auto in = std::make_shared<Inputs>();
  util::Rng rng(options.seed ^ 0x9e3779b9ULL);
  for (std::size_t h = 0; h < kHosts; ++h) {
    in->hosts.push_back("gridftp" + std::to_string(h) + ".example.org");
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    in->clients.push_back("10.2.0." + std::to_string(c + 10));
  }
  std::vector<double> base(kSeries);
  for (auto& b : base) b = rng.log_uniform(1.5e6, 12e6);

  // Pristine durable state: a snapshot sealing most of the history and a
  // WAL tail holding the rest.
  in->seed_dir = options.scratch + "/predict-seed";
  std::filesystem::remove_all(in->seed_dir);
  {
    auto store = std::make_shared<history::HistoryStore>(
        history::StoreConfig{.dedupe_records = true});
    durability::DurabilityManager manager(
        store, {.dir = in->seed_dir, .fsync = durability::FsyncPolicy::kNone});
    manager.attach();
    const auto snapshot_at = static_cast<std::size_t>(kSnapshotShare * kDepth);
    for (std::size_t k = 0; k < kDepth; ++k) {
      if (k == snapshot_at && !manager.snapshot_now().ok()) {
        std::fprintf(stderr, "predict: seeding the snapshot failed\n");
        std::exit(3);
      }
      for (std::size_t s = 0; s < kSeries; ++s) {
        const double t = kRecordGap * static_cast<double>(k + 1) +
                         static_cast<double>(s);
        store->append(make_record(rng, in->hosts[s / kClients],
                                  in->clients[s % kClients], base[s], t));
      }
    }
    manager.flush();
  }

  const std::uint64_t positions = kWarmOps + total_ops;
  in->series.resize(positions);
  in->kind.resize(positions);
  in->predictor.resize(positions);
  in->size_index.resize(positions);
  for (std::uint64_t p = 0; p < positions; ++p) {
    in->series[p] = static_cast<std::uint8_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kSeries) - 1));
    const double u = rng.uniform();
    in->kind[p] = u < kAllShare ? 2 : (u < kAllShare + kNamedShare ? 1 : 0);
    in->predictor[p] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    in->size_index[p] = static_cast<std::uint8_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sizes().size()) - 1));
  }
  for (std::uint64_t k = 0; k < positions / kIngestEvery; ++k) {
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kSeries) - 1));
    const double t = kStart + kDt * static_cast<double>((k + 1) * kIngestEvery);
    in->records.push_back(make_record(rng, in->hosts[s / kClients],
                                      in->clients[s % kClients], base[s], t));
    in->record_series.push_back(static_cast<std::uint8_t>(s));
  }
  for (std::size_t k = 0; k < kCheckSample; ++k) {
    in->check_positions.push_back(static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(positions) - 1)));
  }
  return in;
}

class PredictWorkload final : public Workload {
 public:
  PredictWorkload(std::shared_ptr<const Inputs> in, const Options& options)
      : in_(std::move(in)), dir_(options.scratch + "/predict-run") {
    span_default_ = span_name("core.predict");
    span_named_ = span_name("core.predict_named");
    span_fallback_ = span_name("predict.fallback_named");
    span_all_ = span_name("core.predict_all");
    span_append_ = span_name("history.append");
    span_wal_ = span_name("durability.wal_append");
    span_quality_ = span_name("obs.quality_observe");
    // Every restart recovers the same pristine state.
    std::filesystem::remove_all(dir_);
    std::filesystem::copy(in_->seed_dir, dir_,
                          std::filesystem::copy_options::recursive);
  }

  void build() override {
    store_ = std::make_shared<history::HistoryStore>(
        history::StoreConfig{.dedupe_records = true});
    const std::int64_t t0 = now_ns();
    const auto recovered = durability::DurabilityManager::recover(dir_, *store_);
    const std::int64_t t1 = now_ns();
    if (!recovered.ok()) {
      std::fprintf(stderr, "predict: recovery failed: %s\n",
                   recovered.error().c_str());
      std::exit(3);
    }
    quality_ = std::make_unique<obs::QualityTracker>();
    core::ServiceConfig config;
    config.use_regression_battery = true;
    config.challenger_predictor = kChallenger;
    service_ = std::make_unique<core::PredictionService>(store_, config);
    service_->bind_quality(quality_.get());
    service_->warm_up();
    const std::int64_t t2 = now_ns();
    recover_s_ = static_cast<double>(t1 - t0) * 1e-9;
    warm_up_s_ = static_cast<double>(t2 - t1) * 1e-9;

    // Ingest wiring: the WAL and the tracker observe every record-level
    // append (DurabilityManager::attach, with a timing seam around it).
    manager_ = std::make_unique<durability::DurabilityManager>(
        store_, durability::DurabilityConfig{
                    .dir = dir_, .fsync = durability::FsyncPolicy::kNone});
    store_->add_record_observer([this](const gridftp::TransferRecord& r) {
      Scope span(span_wal_);
      manager_->wal().append(r);
    });
    store_->add_record_observer([this](const gridftp::TransferRecord& r) {
      Scope span(span_quality_);
      quality_->observe_transfer(r);
    });

    const auto& members = service_->suite().predictors();
    for (const auto& member : members) {
      names_.push_back(member->name());
      no_stream_.push_back(predict::make_streaming(*member) == nullptr);
    }
    for (std::size_t s = 0; s < kSeries; ++s) {
      keys_.push_back({.host = in_->hosts[s / kClients],
                       .remote_ip = in_->clients[s % kClients],
                       .op = gridftp::Operation::kRead});
    }
    pending_.assign(kSeries, {});
  }

  void warm_up() override {
    for (std::uint64_t p = 0; p < kWarmOps; ++p) step(p, false);
    // Errors are scored from the measured phase on.
    error_sum_ = 0.0;
    error_count_ = 0;
    for (auto& v : pending_) v.clear();
  }

  void phase_begin() override {
    wal_before_ = manager_->wal().stats();
    appends_before_ = appends_;
    report_before_ = quality_->report();
  }
  void phase_end() override {
    manager_->flush();
    wal_after_ = manager_->wal().stats();
    appends_in_phase_ = appends_ - appends_before_;
    report_after_ = quality_->report();
  }

  bool op(std::uint64_t i) override { return step(kWarmOps + i, true); }

  CheckResult check() override {
    // Each streaming answer against the stateless predictor over the same
    // snapshot, within 1e-6 relative; unnamed answers against whichever
    // of default/challenger arbitration may have picked.
    CheckResult result;
    const double now = now_at(in_->series.size());
    std::uint64_t answered = 0;
    const auto agree = [](const std::optional<double>& a,
                          const std::optional<double>& b) {
      if (a.has_value() != b.has_value()) return false;
      if (!a) return true;
      return std::fabs(*a - *b) <= 1e-6 * std::max(std::fabs(*a), std::fabs(*b));
    };
    const auto& members = service_->suite().predictors();
    for (const std::uint64_t p : in_->check_positions) {
      const auto& key = keys_[in_->series[p]];
      const Bytes size = sizes()[in_->size_index[p]];
      const auto snapshot = service_->series(key);
      const predict::Query query{.time = now, .file_size = size};
      // One named query per sampled position, cycling through the battery.
      const std::size_t index = (p + result.checked) % members.size();
      const auto streamed = service_->predict(key, size, now, names_[index]);
      const auto oracle = members[index]->predict(snapshot.span(), query);
      ++result.checked;
      if (!agree(streamed, oracle)) ++result.mismatches;
      if (streamed) ++answered;
      const auto unnamed = service_->predict(key, size, now);
      const auto def = service_->suite()
                           .find(service_->config().default_predictor)
                           ->predict(snapshot.span(), query);
      const auto chal =
          service_->suite().find(kChallenger)->predict(snapshot.span(), query);
      ++result.checked;
      if (!agree(unnamed, def) && !agree(unnamed, chal)) ++result.mismatches;
    }
    result.notes.push_back(
        "streaming answer == stateless predictor over the same snapshot "
        "(1e-6 relative) on " + std::to_string(result.checked) +
        " seeded queries over " + std::to_string(members.size()) +
        " battery members: " + std::to_string(result.mismatches) +
        " mismatches (" + std::to_string(answered) + " named answers)");
    return result;
  }

  void layer_metrics(const MeasureContext& ctx,
                     std::map<std::string, double>& out) override {
    const double queries = ctx.counter("wadp_predict_queries_total");
    const double wal_records =
        static_cast<double>(wal_after_.appended - wal_before_.appended);
    const double appends = static_cast<double>(appends_in_phase_);
    out["core.replays_per_kq"] =
        queries > 0.0 ? ctx.counter("wadp_battery_replays_total") / queries * 1000.0 : 0.0;
    out["predict.fallback_ratio"] =
        queries > 0.0 ? ctx.counter("wadp_predict_fallback_total") / queries : 0.0;
    out["obs.spans_per_query"] = queries > 0.0 ? ctx.counter("tracer:recorded") / queries : 0.0;
    out["obs.events_per_query"] = queries > 0.0 ? ctx.counter("events:emitted") / queries : 0.0;
    const double joins = static_cast<double>(report_after_.joins() - report_before_.joins());
    const double misses =
        static_cast<double>(report_after_.join_misses - report_before_.join_misses);
    out["obs.quality_join_ratio"] = joins + misses > 0.0 ? joins / (joins + misses) : 0.0;
    out["history.cow_copies_per_append"] =
        appends > 0.0 ? ctx.counter("wadp_history_cow_copies_total") / appends : 0.0;
    out["durability.bytes_per_record"] =
        wal_records > 0.0
            ? static_cast<double>(wal_after_.bytes_written - wal_before_.bytes_written) /
                  wal_records
            : 0.0;
    out["durability.commit_batches_per_krec"] =
        wal_records > 0.0
            ? static_cast<double>(wal_after_.batches - wal_before_.batches) /
                  wal_records * 1000.0
            : 0.0;
    if (ctx.trace == nullptr) return;

    const TraceAnalysis& a = *ctx.trace;
    put_layer_shares(a, out);
    const auto def = span_times(a, span_default_, false);
    auto named = span_times(a, span_named_, false);
    const auto fallback = span_times(a, span_fallback_, false);
    const auto all = span_times(a, span_all_, false);
    out["core.default_us"] = median_us(def);
    out["predict.fallback_query_us"] = median_us(fallback);
    named.insert(named.end(), fallback.begin(), fallback.end());
    out["core.named_us"] = median_us(named);
    out["core.all_us"] = median_us(all);
    std::vector<double> every = def;
    every.insert(every.end(), named.begin(), named.end());
    every.insert(every.end(), all.begin(), all.end());
    out["core.query_p99_us"] = percentile(every, 0.99).value_or(0.0) * 1e-3;
    out["history.append_us"] = median_us(span_times(a, span_append_, true));
    out["durability.wal_append_us"] = median_us(span_times(a, span_wal_, false));
    out["obs.quality_observe_us"] = median_us(span_times(a, span_quality_, false));
  }

  std::optional<double> prediction_error_pct() const override {
    return error_count_ > 0 ? std::optional<double>(error_sum_ / error_count_)
                            : std::nullopt;
  }

  std::uint64_t op_stream_hash() const override { return hash_.value(); }

  std::map<std::string, double> setup_parts() const override {
    return {{"durability.recover_s", recover_s_}, {"core.warm_up_s", warm_up_s_}};
  }

 private:
  static double now_at(std::uint64_t p) { return kStart + kDt * static_cast<double>(p); }

  /// One stream position: the scheduled ingest (if any), then the query.
  bool step(std::uint64_t p, bool measured) {
    if (p > 0 && p % kIngestEvery == 0) {
      const std::size_t k = p / kIngestEvery - 1;
      const gridftp::TransferRecord& record = in_->records[k];
      {
        Scope span(span_append_);
        store_->append(record);
      }
      ++appends_;
      // "Measured" for the served default predictions of this series.
      auto& pending = pending_[in_->record_series[k]];
      const double m = record.bandwidth();
      for (const double predicted : pending) {
        error_sum_ += std::fabs(m - predicted) / m * 100.0;
        ++error_count_;
      }
      pending.clear();
    }
    const std::size_t s = in_->series[p];
    const Bytes size = sizes()[in_->size_index[p]];
    const double now = now_at(p);
    bool ok = true;
    double answer = 0.0;
    switch (in_->kind[p]) {
      case 0: {
        std::optional<double> v;
        {
          Scope span(span_default_);
          v = service_->predict(keys_[s], size, now);
        }
        ok = v.has_value();
        if (v) {
          answer = *v;
          pending_[s].push_back(*v);
        }
        break;
      }
      case 1: {
        const std::size_t index = in_->predictor[p] % names_.size();
        std::optional<double> v;
        {
          Scope span(no_stream_[index] ? span_fallback_ : span_named_);
          v = service_->predict(keys_[s], size, now, names_[index]);
        }
        answer = v.value_or(-1.0);
        break;
      }
      default: {
        std::vector<std::pair<std::string, std::optional<Bandwidth>>> all;
        {
          Scope span(span_all_);
          all = service_->predict_all(keys_[s], size, now);
        }
        ok = all.size() == names_.size();
        for (const auto& [name, v] : all) answer += v.value_or(0.0);
        break;
      }
    }
    if (measured) {
      hash_.add(static_cast<std::uint64_t>(p));
      hash_.add(answer);
    }
    return ok;
  }

  std::shared_ptr<const Inputs> in_;
  std::string dir_;
  std::uint32_t span_default_ = 0, span_named_ = 0, span_fallback_ = 0,
                span_all_ = 0, span_append_ = 0, span_wal_ = 0,
                span_quality_ = 0;

  std::shared_ptr<history::HistoryStore> store_;
  std::unique_ptr<obs::QualityTracker> quality_;
  std::unique_ptr<core::PredictionService> service_;
  std::unique_ptr<durability::DurabilityManager> manager_;
  std::vector<history::SeriesKey> keys_;
  std::vector<std::string> names_;
  std::vector<bool> no_stream_;
  std::vector<std::vector<double>> pending_;

  double recover_s_ = 0.0;
  double warm_up_s_ = 0.0;
  double error_sum_ = 0.0;
  std::uint64_t error_count_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t appends_before_ = 0;
  std::uint64_t appends_in_phase_ = 0;
  durability::WalStats wal_before_, wal_after_;
  obs::QualityReport report_before_, report_after_;
  StreamHash hash_;
};

}  // namespace

WorkloadFactory make_predict(const Options& options, std::uint64_t total_ops) {
  auto inputs = generate(options, total_ops);
  return [inputs, options] {
    return std::make_unique<PredictWorkload>(inputs, options);
  };
}

}  // namespace perfbench
