#include "core/prediction_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "history/adapter.hpp"
#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "predict/extended.hpp"
#include "predict/regression.hpp"
#include "util/error.hpp"

namespace wadp::core {
namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Announces one stateless-fallback query as a structured ULM event, so
/// operators can see *which* predictor keeps missing its streaming
/// state and why (silent before this existed).
void emit_fallback_event(const SeriesKey& key, std::string_view predictor,
                         const char* reason) {
  util::UlmRecord record;
  record.set("PREDICTOR", std::string(predictor));
  record.set("SERIES", key.to_string());
  record.set("REASON", reason);
  obs::EventSink::global().emit("predict.fallback", "wadp.core",
                                std::move(record));
}

#ifndef NDEBUG
/// Debug-only invariant: the streaming battery answers exactly what the
/// stateless battery would (within float noise).  Catches streaming
/// states drifting out of sync with their reference predictors.
void assert_streaming_agreement(std::optional<Bandwidth> streamed,
                                std::optional<Bandwidth> stateless) {
  WADP_CHECK_MSG(streamed.has_value() == stateless.has_value(),
                 "streaming/stateless disagree on answerability");
  if (!streamed) return;
  const double tolerance =
      1e-6 * std::max({std::abs(*streamed), std::abs(*stateless), 1.0});
  WADP_CHECK_MSG(std::abs(*streamed - *stateless) <= tolerance,
                 "streaming/stateless prediction mismatch");
}
#endif

}  // namespace

PredictionService::PredictionService(ServiceConfig config)
    : PredictionService(std::make_shared<history::HistoryStore>(),
                        std::move(config)) {}

PredictionService::PredictionService(
    std::shared_ptr<history::HistoryStore> store, ServiceConfig config)
    : config_(std::move(config)),
      suite_(config_.use_regression_battery
                 ? predict::regression_suite(config_.classifier)
             : config_.use_extended_battery
                 ? predict::extended_suite(config_.classifier)
                 : predict::PredictorSuite::paper_suite(config_.classifier)),
      store_(std::move(store)) {
  WADP_CHECK_MSG(store_ != nullptr, "prediction service needs a store");
  WADP_CHECK_MSG(suite_.find(config_.default_predictor) != nullptr,
                 "default predictor not in the battery");
  WADP_CHECK_MSG(config_.challenger_predictor.empty() ||
                     suite_.find(config_.challenger_predictor) != nullptr,
                 "challenger predictor not in the battery");
  auto& registry = obs::Registry::global();
  metrics_.ingested = &registry.counter(
      "wadp_ingest_records_total", {},
      "Transfer records ingested through the prediction service");
  metrics_.queries =
      &registry.counter("wadp_predict_queries_total", {},
                        "Prediction queries answered by the service");
  metrics_.fallback_no_stream = &registry.counter(
      "wadp_predict_fallback_total", {{"reason", "no_stream"}},
      "Queries answered by the stateless path instead of streaming state");
  metrics_.fallback_time_travel = &registry.counter(
      "wadp_predict_fallback_total", {{"reason", "time_travel"}},
      "Queries answered by the stateless path instead of streaming state");
  metrics_.replays = &registry.counter(
      "wadp_battery_replays_total", {},
      "Streaming-battery replays forced by prefix-invalidating ingest");
  metrics_.arbitration_default = &registry.counter(
      "wadp_predict_arbitrations_total", {{"winner", "default"}},
      "Champion/challenger arbitration decisions for unnamed queries");
  metrics_.arbitration_challenger = &registry.counter(
      "wadp_predict_arbitrations_total", {{"winner", "challenger"}},
      "Champion/challenger arbitration decisions for unnamed queries");
  metrics_.predict_latency =
      &registry.histogram("wadp_predict_latency_seconds", {},
                          "Wall-clock latency of predict()");
}

void PredictionService::ingest(const gridftp::TransferRecord& record) {
  // Ordering (including out-of-order inserts) is the store's job now;
  // the battery discovers prefix changes via the generation watermark.
  metrics_.ingested->inc();
  store_->append(record);
}

void PredictionService::ingest_log(const gridftp::TransferLog& log) {
  auto span = obs::Tracer::global().start("predict.ingest");
  span.set_attr("RECORDS",
                static_cast<std::int64_t>(log.records().size()));
  for (const auto& record : log.records()) ingest(record);
}

PredictionService::BatteryState& PredictionService::catch_up(
    const SeriesKey& key, const history::SeriesSnapshot& snapshot) const {
  BatteryState& state = battery_[key];
  if (state.generation != snapshot.generation() && !state.streams.empty()) {
    metrics_.replays->inc();
    state.streams.clear();
  }
  if (state.streams.empty()) {
    state.streams.reserve(suite_.size());
    for (const auto& predictor : suite_.predictors()) {
      state.streams.push_back(predict::make_streaming(*predictor));
    }
    state.fed = 0;
    state.generation = snapshot.generation();
  }
  const auto& series = snapshot.observations();
  for (; state.fed < series.size(); ++state.fed) {
    const auto& obs = series[state.fed];
    for (const auto& stream : state.streams) {
      if (stream) stream->observe(obs);
    }
  }
  return state;
}

std::optional<Bandwidth> PredictionService::predict_at(
    const SeriesKey& key, const BatteryState& state,
    const history::SeriesSnapshot& snapshot, std::size_t index,
    const predict::Query& query) const {
  const auto& stream = state.streams[index];
  if (stream && query.time >= stream->safe_query_time()) {
    auto answer = stream->predict(query);
#ifndef NDEBUG
    assert_streaming_agreement(
        answer, suite_.predictors()[index]->predict(snapshot.span(), query));
#endif
    return answer;
  }
  // Stateless fallback (was silent): count it and log a ULM event so
  // the O(N) recomputations are visible in `wadp metrics`.
  const auto& predictor = *suite_.predictors()[index];
  const char* reason = stream ? "time_travel" : "no_stream";
  (stream ? metrics_.fallback_time_travel : metrics_.fallback_no_stream)
      ->inc();
  emit_fallback_event(key, predictor.name(), reason);
  return predictor.predict(snapshot.span(), query);
}

std::string_view PredictionService::arbitrate(const std::string& site) const {
  if (quality_ == nullptr || config_.challenger_predictor.empty()) {
    return config_.default_predictor;
  }
  // The challenger takes the query only when it has joined quality data
  // that beats the incumbent's, and it isn't in a drift demotion window
  // — the same gate the broker applies to ranking candidates.
  const auto incumbent =
      quality_->mean_error(site, config_.default_predictor);
  const auto challenger =
      quality_->mean_error(site, config_.challenger_predictor);
  const bool challenger_wins =
      challenger.has_value() && (!incumbent || *challenger < *incumbent) &&
      !quality_->drifting(site, config_.challenger_predictor);
  (challenger_wins ? metrics_.arbitration_challenger
                   : metrics_.arbitration_default)
      ->inc();
  return challenger_wins ? config_.challenger_predictor
                         : config_.default_predictor;
}

std::optional<Bandwidth> PredictionService::predict(
    const SeriesKey& key, Bytes size, SimTime now,
    std::string_view predictor_name) const {
  const std::uint64_t started = wall_ns();
  metrics_.queries->inc();
  auto span = obs::Tracer::global().start("predict.query");
  span.set_attr("SERIES", key.to_string());

  const auto snapshot = store_->snapshot(key);
  if (snapshot.size() < config_.training_count) {
    span.set_attr("RESULT", "too_short");
    return std::nullopt;
  }
  const auto index = suite_.index_of(
      predictor_name.empty() ? arbitrate(key.host) : predictor_name);
  if (!index) {
    span.set_attr("RESULT", "unknown_predictor");
    return std::nullopt;
  }
  span.set_attr("PREDICTOR", suite_.predictors()[*index]->name());
  {
    auto classify = span.child("predict.classify");
    classify.set_attr(
        "CLASS", static_cast<std::int64_t>(config_.classifier.classify(size)));
  }
  std::optional<Bandwidth> answer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto update = span.child("predict.battery_update");
    update.set_attr("EPOCH", static_cast<std::int64_t>(snapshot.epoch()));
    const BatteryState& state = catch_up(key, snapshot);
    update.end();
    auto answer_span = span.child("predict.answer");
    answer = predict_at(key, state, snapshot, *index,
                        predict::Query{.time = now, .file_size = size});
    answer_span.end();
  }
  if (quality_ != nullptr && answer) {
    quality_->record_prediction(obs::ServedPrediction{
        .trace_id = obs::TraceContext::current().trace_id,
        .site = key.host,
        .file_size = size,
        .time = now,
        .predictor = suite_.predictors()[*index]->name(),
        .value = *answer,
    });
  }
  metrics_.predict_latency->record(
      static_cast<double>(wall_ns() - started) * 1e-9);
  return answer;
}

std::vector<std::optional<Bandwidth>> PredictionService::predict_many(
    const SeriesKey& key, std::span<const predict::Query> queries,
    std::string_view predictor_name) const {
  const std::uint64_t started = wall_ns();
  metrics_.queries->inc(queries.size());
  auto span = obs::Tracer::global().start("predict.query_many");
  span.set_attr("SERIES", key.to_string());
  span.set_attr("BATCH", static_cast<std::int64_t>(queries.size()));

  std::vector<std::optional<Bandwidth>> answers(queries.size());
  if (queries.empty()) return answers;

  // One snapshot covers the batch: every answer is computed against the
  // same epoch, which is what makes the batch bit-identical to a
  // per-query loop that ran before the next append.
  const auto snapshot = store_->snapshot(key);
  if (snapshot.size() < config_.training_count) {
    span.set_attr("RESULT", "too_short");
    return answers;
  }
  const auto index = suite_.index_of(
      predictor_name.empty() ? arbitrate(key.host) : predictor_name);
  if (!index) {
    span.set_attr("RESULT", "unknown_predictor");
    return answers;
  }
  span.set_attr("PREDICTOR", suite_.predictors()[*index]->name());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const BatteryState& state = catch_up(key, snapshot);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      answers[i] = predict_at(key, state, snapshot, *index, queries[i]);
    }
  }
  if (quality_ != nullptr) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!answers[i]) continue;
      quality_->record_prediction(obs::ServedPrediction{
          .trace_id = obs::TraceContext::current().trace_id,
          .site = key.host,
          .file_size = queries[i].file_size,
          .time = queries[i].time,
          .predictor = suite_.predictors()[*index]->name(),
          .value = *answers[i],
      });
    }
  }
  metrics_.predict_latency->record(
      static_cast<double>(wall_ns() - started) * 1e-9);
  return answers;
}

std::vector<std::pair<std::string, std::optional<Bandwidth>>>
PredictionService::predict_all(const SeriesKey& key, Bytes size,
                               SimTime now) const {
  const std::uint64_t started = wall_ns();
  metrics_.queries->inc();
  auto span = obs::Tracer::global().start("predict.query");
  span.set_attr("SERIES", key.to_string());
  span.set_attr("PREDICTOR", "*");

  std::vector<std::pair<std::string, std::optional<Bandwidth>>> out;
  out.reserve(suite_.size());
  const auto snapshot = store_->snapshot(key);
  const bool ready = snapshot.size() >= config_.training_count;
  const predict::Query query{.time = now, .file_size = size};
  if (ready) {
    std::lock_guard<std::mutex> lock(mu_);
    auto update = span.child("predict.battery_update");
    const BatteryState& state = catch_up(key, snapshot);
    update.end();
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      out.emplace_back(suite_.predictors()[i]->name(),
                       predict_at(key, state, snapshot, i, query));
    }
    if (quality_ != nullptr) {
      for (const auto& [name, value] : out) {
        if (!value) continue;
        quality_->record_prediction(obs::ServedPrediction{
            .trace_id = obs::TraceContext::current().trace_id,
            .site = key.host,
            .file_size = size,
            .time = now,
            .predictor = name,
            .value = *value,
        });
      }
    }
  } else {
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      out.emplace_back(suite_.predictors()[i]->name(), std::nullopt);
    }
  }
  metrics_.predict_latency->record(
      static_cast<double>(wall_ns() - started) * 1e-9);
  return out;
}

std::size_t PredictionService::warm_up() {
  auto span = obs::Tracer::global().start("predict.warm_up");
  std::size_t warmed = 0;
  for (const auto& key : store_->keys()) {
    const auto snapshot = store_->snapshot(key);
    if (!snapshot.valid()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    catch_up(key, snapshot);
    ++warmed;
  }
  span.set_attr("SERIES", static_cast<std::int64_t>(warmed));
  return warmed;
}

std::optional<predict::EvaluationResult> PredictionService::evaluate(
    const SeriesKey& key) const {
  const auto snapshot = store_->snapshot(key);
  if (snapshot.size() <= config_.training_count) return std::nullopt;
  predict::EvalConfig eval_config;
  eval_config.training_count = config_.training_count;
  eval_config.classifier = config_.classifier;
  const predict::Evaluator evaluator(eval_config);
  return evaluator.run(snapshot.span(), suite_.pointers());
}

history::SeriesSnapshot PredictionService::series(const SeriesKey& key) const {
  return store_->snapshot(key);
}

std::vector<SeriesKey> PredictionService::series_keys() const {
  return store_->keys();
}

std::size_t PredictionService::total_observations() const {
  return store_->total_observations();
}

}  // namespace wadp::core
