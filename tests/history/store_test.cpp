#include "history/store.hpp"

#include <gtest/gtest.h>

#include "gridftp/log.hpp"
#include "history/adapter.hpp"
#include "obs/metrics.hpp"

namespace wadp::history {
namespace {

using predict::Observation;

StoreConfig quiet(std::size_t shards = 4,
                  std::size_t retention = 0) {
  return StoreConfig{.shard_count = shards,
                     .max_observations_per_series = retention,
                     .instrumented = false};
}

SeriesKey key_a() {
  return {.host = "dpsslx04.lbl.gov",
          .remote_ip = "140.221.65.69",
          .op = gridftp::Operation::kRead};
}

Observation obs(double time, double value = 5e6, Bytes size = 10 * kMB) {
  return Observation{.time = time, .value = value, .file_size = size};
}

gridftp::TransferRecord record(double end, Bytes size,
                               const std::string& remote = "140.221.65.69") {
  gridftp::TransferRecord r;
  r.host = "dpsslx04.lbl.gov";
  r.source_ip = remote;
  r.file_name = "/v/f";
  r.file_size = size;
  r.volume = "/v";
  r.start_time = end - 10.0;
  r.end_time = end;
  r.op = gridftp::Operation::kRead;
  r.streams = 8;
  r.tcp_buffer = 1'000'000;
  return r;
}

TEST(HistoryStoreTest, UnknownKeySnapshotsInvalid) {
  HistoryStore store(quiet());
  const auto snap = store.snapshot(key_a());
  EXPECT_FALSE(snap.valid());
  EXPECT_FALSE(snap);
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.size(), 0u);
  EXPECT_EQ(store.epoch(key_a()), 0u);
}

TEST(HistoryStoreTest, NonFiniteLogTimesAreSkippedBeforeIngest) {
  // std::from_chars parses "nan" and "inf", and `end <= start` is false
  // for NaN: a START=nan line once parsed, then aborted in
  // TransferRecord::bandwidth() when append adapted it.
  std::string text;
  for (const char* value : {"nan", "inf", "-inf"}) {
    for (const char* field : {"START", "END"}) {
      auto ulm = record(1000.0, 10 * kMB).to_ulm();
      ulm.set(field, value);
      text += ulm.to_line() + "\n";
    }
  }
  text += record(1000.0, 10 * kMB).to_ulm().to_line() + "\n";
  const auto parsed = gridftp::TransferLog::parse_ulm_text(text);
  HistoryStore store(quiet());
  for (const auto& r : parsed.records) store.append(r);
  EXPECT_EQ(parsed.skipped, 6u);
  EXPECT_EQ(store.total_observations(), 1u);
}

TEST(HistoryStoreTest, AppendsAccumulateInOrder) {
  HistoryStore store(quiet());
  EXPECT_EQ(store.append(key_a(), obs(100.0)), 1u);
  EXPECT_EQ(store.append(key_a(), obs(200.0)), 2u);
  const auto snap = store.snapshot(key_a());
  ASSERT_TRUE(snap.valid());
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.observations()[0].time, 100.0);
  EXPECT_DOUBLE_EQ(snap.observations()[1].time, 200.0);
  EXPECT_EQ(snap.epoch(), 2u);
  EXPECT_EQ(snap.generation(), 0u);  // never out of order
  EXPECT_EQ(store.series_count(), 1u);
  EXPECT_EQ(store.total_observations(), 2u);
}

TEST(HistoryStoreTest, SnapshotIsImmuneToLaterAppends) {
  HistoryStore store(quiet());
  store.append(key_a(), obs(100.0));
  const auto before = store.snapshot(key_a());
  ASSERT_EQ(before.size(), 1u);

  // This append must copy-on-write: `before` is still outstanding.
  store.append(key_a(), obs(200.0));
  store.append(key_a(), obs(50.0));  // even an out-of-order insert
  EXPECT_EQ(before.size(), 1u);
  EXPECT_DOUBLE_EQ(before.observations()[0].time, 100.0);

  const auto after = store.snapshot(key_a());
  ASSERT_EQ(after.size(), 3u);
  EXPECT_DOUBLE_EQ(after.observations()[0].time, 50.0);
}

TEST(HistoryStoreTest, OutOfOrderInsertsKeepTimeOrderAndBumpGeneration) {
  HistoryStore store(quiet());
  store.append(key_a(), obs(300.0));
  store.append(key_a(), obs(100.0));
  store.append(key_a(), obs(200.0));
  const auto snap = store.snapshot(key_a());
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.observations()[0].time, 100.0);
  EXPECT_DOUBLE_EQ(snap.observations()[1].time, 200.0);
  EXPECT_DOUBLE_EQ(snap.observations()[2].time, 300.0);
  EXPECT_EQ(snap.epoch(), 3u);
  EXPECT_EQ(snap.generation(), 2u);  // two prefix-invalidating inserts
}

TEST(HistoryStoreTest, EqualTimestampsAppendStably) {
  HistoryStore store(quiet());
  store.append(key_a(), obs(100.0, 1.0));
  store.append(key_a(), obs(100.0, 2.0));
  const auto snap = store.snapshot(key_a());
  ASSERT_EQ(snap.size(), 2u);
  // Ties extend the tail (no generation bump, first-come order kept).
  EXPECT_DOUBLE_EQ(snap.observations()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(snap.observations()[1].value, 2.0);
  EXPECT_EQ(snap.generation(), 0u);
}

TEST(HistoryStoreTest, RetentionCapEvictsOldest) {
  HistoryStore store(quiet(1, /*retention=*/5));
  for (int i = 0; i < 8; ++i) {
    store.append(key_a(), obs(100.0 + i));
  }
  const auto snap = store.snapshot(key_a());
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_DOUBLE_EQ(snap.observations().front().time, 103.0);
  EXPECT_DOUBLE_EQ(snap.back().time, 107.0);
  EXPECT_EQ(snap.evicted(), 3u);
  // Every eviction invalidated the prefix.
  EXPECT_EQ(snap.generation(), 3u);
}

TEST(HistoryStoreTest, RecordsRouteThroughTheAdapter) {
  HistoryStore store(quiet());
  store.append(record(1000.0, 20 * kMB));
  const auto snap = store.snapshot(key_a());
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.back().time, 1000.0);
  EXPECT_DOUBLE_EQ(snap.back().value, 20.0 * kMB / 10.0);
  EXPECT_EQ(snap.back().file_size, 20 * kMB);
}

TEST(HistoryStoreTest, AttachBackfillsAndMirrorsLiveAppends) {
  gridftp::TransferLog log;
  log.append(record(100.0, kMB));
  log.append(record(200.0, kMB));

  HistoryStore store(quiet());
  EXPECT_EQ(store.attach(log), 2u);
  EXPECT_EQ(store.total_observations(), 2u);

  // Live path: appends to the log flow into the store automatically.
  log.append(record(300.0, kMB));
  EXPECT_EQ(store.total_observations(), 3u);
  EXPECT_DOUBLE_EQ(store.snapshot(key_a()).back().time, 300.0);
}

TEST(HistoryStoreTest, IngestLogPullsEveryRecord) {
  gridftp::TransferLog log;
  for (int i = 0; i < 5; ++i) log.append(record(100.0 + i, kMB));
  HistoryStore store(quiet());
  EXPECT_EQ(store.ingest_log(log), 5u);
  EXPECT_EQ(store.total_observations(), 5u);
}

TEST(HistoryStoreTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(HistoryStore(quiet(3)).shard_count(), 4u);
  EXPECT_EQ(HistoryStore(quiet(1)).shard_count(), 1u);
  EXPECT_EQ(HistoryStore(quiet(16)).shard_count(), 16u);
  EXPECT_EQ(HistoryStore(quiet(0)).shard_count(), 1u);
  EXPECT_EQ(HistoryStore(quiet(1000)).shard_count(), 64u);  // clamped
}

TEST(HistoryStoreTest, KeysAreSortedAndFilterableByHost) {
  HistoryStore store(quiet());
  store.append({.host = "b", .remote_ip = "1", .op = gridftp::Operation::kRead},
               obs(1.0));
  store.append({.host = "a", .remote_ip = "2", .op = gridftp::Operation::kRead},
               obs(1.0));
  store.append({.host = "a", .remote_ip = "1", .op = gridftp::Operation::kRead},
               obs(1.0));
  const auto keys = store.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].host, "a");
  EXPECT_EQ(keys[0].remote_ip, "1");
  EXPECT_EQ(keys[1].host, "a");
  EXPECT_EQ(keys[1].remote_ip, "2");
  EXPECT_EQ(keys[2].host, "b");
  EXPECT_EQ(store.keys_for_host("a").size(), 2u);
  EXPECT_TRUE(store.keys_for_host("c").empty());
}

TEST(HistoryStoreTest, ShardStatsAccountForEverySeries) {
  HistoryStore store(quiet(4));
  for (int s = 0; s < 10; ++s) {
    const SeriesKey key{.host = "h" + std::to_string(s), .remote_ip = "r",
                        .op = gridftp::Operation::kRead};
    store.append(key, obs(1.0));
    store.append(key, obs(2.0));
  }
  const auto stats = store.shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::size_t series = 0, observations = 0;
  std::uint64_t appends = 0;
  for (const auto& shard : stats) {
    series += shard.series_count;
    observations += shard.observation_count;
    appends += shard.appends;
  }
  EXPECT_EQ(series, 10u);
  EXPECT_EQ(observations, 20u);
  EXPECT_EQ(appends, 20u);
}

TEST(HistoryStoreTest, SeriesInfoReportsPerSeriesWatermarks) {
  HistoryStore store(quiet());
  store.append(key_a(), obs(200.0));
  store.append(key_a(), obs(100.0));  // generation bump
  const auto info = store.series_info();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].key, key_a());
  EXPECT_EQ(info[0].observations, 2u);
  EXPECT_EQ(info[0].epoch, 2u);
  EXPECT_EQ(info[0].generation, 1u);
  EXPECT_EQ(info[0].evicted, 0u);
}

TEST(HistoryStoreTest, HashSeparatesFieldBoundaries) {
  // FNV-1a with separators: ("ab","c") and ("a","bc") must not collide
  // by construction (regression guard on the mixing scheme).
  const SeriesKey ab_c{.host = "ab", .remote_ip = "c",
                       .op = gridftp::Operation::kRead};
  const SeriesKey a_bc{.host = "a", .remote_ip = "bc",
                       .op = gridftp::Operation::kRead};
  EXPECT_NE(hash_of(ab_c), hash_of(a_bc));
  const SeriesKey write = {.host = "ab", .remote_ip = "c",
                           .op = gridftp::Operation::kWrite};
  EXPECT_NE(hash_of(ab_c), hash_of(write));
}

TEST(HistoryStoreTest, InstrumentedStoreCountsIntoGlobalRegistry) {
  auto& registry = obs::Registry::global();
  auto& ooo = registry.counter("wadp_history_out_of_order_total");
  auto& evicted = registry.counter("wadp_history_evicted_total");
  auto& snapshots = registry.counter("wadp_history_snapshots_total");
  auto& cow = registry.counter("wadp_history_cow_copies_total");
  const auto ooo0 = ooo.value();
  const auto evicted0 = evicted.value();
  const auto snapshots0 = snapshots.value();
  const auto cow0 = cow.value();

  HistoryStore store(
      StoreConfig{.shard_count = 2, .max_observations_per_series = 3,
                  .instrumented = true});
  store.append(key_a(), obs(100.0));
  const auto held = store.snapshot(key_a());   // forces COW on next append
  store.append(key_a(), obs(50.0));            // out of order
  for (int i = 0; i < 4; ++i) store.append(key_a(), obs(200.0 + i));

  EXPECT_EQ(ooo.value(), ooo0 + 1);
  EXPECT_GE(evicted.value(), evicted0 + 3);
  EXPECT_EQ(snapshots.value(), snapshots0 + 1);
  EXPECT_GE(cow.value(), cow0 + 1);
  EXPECT_GE(registry.counter("wadp_history_appends_total",
                             {{"shard", "0"}})
                    .value() +
                registry.counter("wadp_history_appends_total",
                                 {{"shard", "1"}})
                    .value(),
            6u);
}

}  // namespace
}  // namespace wadp::history
