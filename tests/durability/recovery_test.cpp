// End-to-end recovery: snapshot + WAL tail back to *bit-identical*
// predictor state.  "Bit-identical" is asserted the strong way — the
// recovered store's observation vectors compare equal as doubles, the
// full predictor battery answers EXPECT_DOUBLE_EQ the same, and the
// offline predict::Evaluator computes the exact same error statistics
// over the recovered series as over the originals.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "core/prediction_service.hpp"
#include "durability/manager.hpp"
#include "history/adapter.hpp"

namespace wadp::durability {
namespace {

namespace fs = std::filesystem;

history::StoreConfig dedup_config() {
  return history::StoreConfig{.shard_count = 4,
                              .instrumented = false,
                              .dedupe_records = true};
}

gridftp::TransferRecord record(double end, const std::string& remote,
                               std::uint64_t trace, Bytes size = 10 * kMB,
                               bool ok = true) {
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
  r.ok = ok;
  r.trace_id = trace;
  return r;
}

std::string scratch(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / ("wadp_recover_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

DurabilityConfig durability_config(std::string dir) {
  DurabilityConfig config;
  config.dir = std::move(dir);
  config.fsync = FsyncPolicy::kNone;
  config.group_commit_records = 8;
  config.instrumented = false;
  return config;
}

/// Ingests a two-series campaign with size variety, an out-of-order
/// arrival, and a failed attempt — everything that exercises epochs,
/// generations, and the ok flag.
void ingest_campaign(history::HistoryStore& store) {
  for (int i = 0; i < 40; ++i) {
    store.append(record(1000.0 + 25.0 * i, "140.221.65.69", 10'000 + i,
                        (i % 3 + 1) * 10 * kMB));
    store.append(record(1003.0 + 25.0 * i, "131.243.2.91", 20'000 + i,
                        5 * kMB + i * kKB));
  }
  store.append(record(1010.0, "140.221.65.69", 30'000));      // out of order
  store.append(record(2100.0, "131.243.2.91", 30'001, 10 * kMB,
                      /*ok=*/false));                          // failed attempt
}

void expect_stores_bit_identical(const history::HistoryStore& want,
                                 history::HistoryStore& got) {
  ASSERT_EQ(got.keys(), want.keys());
  EXPECT_EQ(got.total_observations(), want.total_observations());
  for (const auto& key : want.keys()) {
    const auto before = want.snapshot(key);
    const auto after = got.snapshot(key);
    // Observation operator== compares the raw doubles: one ULP of
    // drift anywhere fails this.
    EXPECT_EQ(after.observations(), before.observations()) << key.to_string();
    EXPECT_EQ(after.epoch(), before.epoch()) << key.to_string();
    EXPECT_EQ(after.generation(), before.generation()) << key.to_string();
    EXPECT_EQ(after.evicted(), before.evicted()) << key.to_string();
    // The serving plane's invalidation watermark published the same
    // epoch, so epoch-stamped cache entries validate after a restart.
    EXPECT_EQ(got.watermark(key)->load(), before.epoch()) << key.to_string();
  }
}

void expect_battery_bit_identical(const core::PredictionService& want,
                                  const core::PredictionService& got,
                                  const history::SeriesKey& key) {
  const auto before = want.predict_all(key, 10 * kMB, 5000.0);
  const auto after = got.predict_all(key, 10 * kMB, 5000.0);
  ASSERT_EQ(after.size(), before.size());
  ASSERT_FALSE(before.empty());
  std::size_t answered = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].first, before[i].first);
    ASSERT_EQ(after[i].second.has_value(), before[i].second.has_value())
        << before[i].first;
    if (before[i].second) {
      EXPECT_DOUBLE_EQ(*after[i].second, *before[i].second)
          << before[i].first;
      ++answered;
    }
  }
  EXPECT_GT(answered, 0u) << "battery answered nothing for " << key.to_string();

  // Offline ground truth: the Evaluator re-derives every predictor's
  // error statistics from the stored series alone.
  const auto eval_before = want.evaluate(key);
  const auto eval_after = got.evaluate(key);
  ASSERT_EQ(eval_after.has_value(), eval_before.has_value());
  if (!eval_before) return;
  const auto& names = eval_before->predictor_names();
  ASSERT_EQ(eval_after->predictor_names(), names);
  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto& want_err = eval_before->errors(p);
    const auto& got_err = eval_after->errors(p);
    EXPECT_EQ(got_err.count(), want_err.count()) << names[p];
    EXPECT_DOUBLE_EQ(got_err.mean(), want_err.mean()) << names[p];
    EXPECT_DOUBLE_EQ(got_err.stddev(), want_err.stddev()) << names[p];
  }
}

TEST(RecoveryTest, SnapshotPlusWalTailRebuildsBitIdenticalState) {
  const auto root = scratch("full");
  auto store = std::make_shared<history::HistoryStore>(dedup_config());
  DurabilityManager manager(store, durability_config(root));
  manager.attach();

  // Phase 1, then a snapshot (which truncates sealed WAL segments),
  // then a tail of further ingest that only the WAL holds.
  ingest_campaign(*store);
  const auto meta = manager.snapshot_now();
  ASSERT_TRUE(meta.ok()) << meta.error();
  ASSERT_GT(meta.value().sealed_lsn, 0u);
  for (int i = 0; i < 10; ++i) {
    store->append(record(3000.0 + 25.0 * i, "140.221.65.69", 40'000 + i));
  }
  manager.flush();  // the crash loses nothing past this point

  core::PredictionService service(store);

  // "Crash": a fresh process recovers into an empty store.
  auto recovered = std::make_shared<history::HistoryStore>(dedup_config());
  const auto stats = DurabilityManager::recover(root, *recovered);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_TRUE(stats.value().snapshot_loaded);
  EXPECT_EQ(stats.value().snapshot_seq, 1u);
  EXPECT_EQ(stats.value().sealed_lsn, meta.value().sealed_lsn);
  EXPECT_EQ(stats.value().records_applied, 10u);
  EXPECT_EQ(stats.value().torn_frames, 0u);

  expect_stores_bit_identical(*store, *recovered);

  core::PredictionService recovered_service(recovered);
  EXPECT_GT(recovered_service.warm_up(), 0u);
  for (const auto& key : store->keys()) {
    expect_battery_bit_identical(service, recovered_service, key);
  }
}

TEST(RecoveryTest, WalOnlyRecoveryWithoutAnySnapshot) {
  const auto root = scratch("wal_only");
  auto store = std::make_shared<history::HistoryStore>(dedup_config());
  DurabilityManager manager(store, durability_config(root));
  manager.attach();
  ingest_campaign(*store);
  manager.flush();

  auto recovered = std::make_shared<history::HistoryStore>(dedup_config());
  const auto stats = DurabilityManager::recover(root, *recovered);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_FALSE(stats.value().snapshot_loaded);
  EXPECT_EQ(stats.value().records_applied, store->total_observations());
  expect_stores_bit_identical(*store, *recovered);
}

TEST(RecoveryTest, TornWalTailRecoversThePrefixCleanly) {
  const auto root = scratch("torn");
  auto store = std::make_shared<history::HistoryStore>(dedup_config());
  DurabilityManager manager(store, durability_config(root));
  manager.attach();
  for (int i = 0; i < 12; ++i) {
    store->append(record(1000.0 + 25.0 * i, "140.221.65.69", 50'000 + i));
  }
  manager.flush();

  // Tear the active segment mid-frame, as a crash during a write would.
  const auto segments = WriteAheadLog::list_segments(wal_dir(root));
  ASSERT_FALSE(segments.empty());
  const auto& tail_path = segments.back();
  std::ifstream in(tail_path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(data.size(), 5u);
  std::ofstream out(tail_path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() - 5));
  out.close();

  auto recovered = std::make_shared<history::HistoryStore>(dedup_config());
  const auto stats = DurabilityManager::recover(root, *recovered);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().torn_frames, 1u);
  EXPECT_EQ(stats.value().records_applied, 11u);  // all but the torn one
  const auto key = history::series_key_for(record(0.0, "140.221.65.69", 0));
  EXPECT_EQ(recovered->snapshot(key).size(), 11u);
}

TEST(RecoveryTest, ChecksumValidFrameWithAnInvalidRecordIsRefused) {
  // A frame whose CRC is right but whose record has zero duration once
  // decoded and then aborted recovery in TransferRecord::bandwidth()
  // when the store adapted it.  It now takes the torn-frame path.
  const auto root = scratch("invalid_record");
  auto store = std::make_shared<history::HistoryStore>(dedup_config());
  DurabilityManager manager(store, durability_config(root));
  manager.attach();
  for (int i = 0; i < 12; ++i) {
    store->append(record(1000.0 + 25.0 * i, "140.221.65.69", 60'000 + i));
  }
  manager.flush();

  auto bad = record(2000.0, "140.221.65.69", 61'000);
  bad.start_time = bad.end_time;
  std::string frame_bytes;
  append_framed_entry(frame_bytes, 13, bad);
  const auto segments = WriteAheadLog::list_segments(wal_dir(root));
  ASSERT_FALSE(segments.empty());
  std::ofstream out(segments.back(), std::ios::binary | std::ios::app);
  out.write(frame_bytes.data(), static_cast<std::streamsize>(frame_bytes.size()));
  out.close();

  auto recovered = std::make_shared<history::HistoryStore>(dedup_config());
  const auto stats = DurabilityManager::recover(root, *recovered);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().torn_frames, 1u);
  EXPECT_EQ(stats.value().records_applied, 12u);
  const auto key = history::series_key_for(record(0.0, "140.221.65.69", 0));
  EXPECT_EQ(recovered->snapshot(key).size(), 12u);
}

TEST(RecoveryTest, AttachBackfillAfterRecoveryIsIdempotent) {
  const auto root = scratch("attach");
  auto store = std::make_shared<history::HistoryStore>(dedup_config());
  DurabilityManager manager(store, durability_config(root));
  manager.attach();

  // The server's own bounded log holds the same records the WAL does.
  gridftp::TransferLog log;
  for (int i = 0; i < 20; ++i) {
    auto r = record(1000.0 + 25.0 * i, "140.221.65.69", 60'000 + i);
    log.append(r);
    store->append(r);
  }
  manager.flush();

  auto recovered = std::make_shared<history::HistoryStore>(dedup_config());
  ASSERT_TRUE(DurabilityManager::recover(root, *recovered).ok());
  const auto observations = recovered->total_observations();
  ASSERT_EQ(observations, 20u);

  // Re-attaching the server log backfills the same 20 records; the
  // dedupe index absorbs every one.  Then a fresh record flows through
  // the attached log normally.
  recovered->attach(log);
  EXPECT_EQ(recovered->total_observations(), observations);
  EXPECT_EQ(recovered->dedup_skipped(), 20u);
  log.append(record(9000.0, "140.221.65.69", 70'000));
  EXPECT_EQ(recovered->total_observations(), observations + 1);
}

TEST(RecoveryTest, FirstBootWithNoDurabilityDirIsEmptyNotAnError) {
  const auto root =
      (fs::path(::testing::TempDir()) / "wadp_recover_never_existed").string();
  history::HistoryStore store(dedup_config());
  const auto stats = DurabilityManager::recover(root, store);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_FALSE(stats.value().snapshot_loaded);
  EXPECT_EQ(stats.value().records_applied, 0u);
  EXPECT_EQ(store.total_observations(), 0u);
}

TEST(RecoveryTest, RecoveryDemandsDedupeAndAnEmptyStore) {
  const auto root = scratch("preconditions");
  {
    history::HistoryStore no_dedupe(
        history::StoreConfig{.instrumented = false});
    EXPECT_FALSE(DurabilityManager::recover(root, no_dedupe).ok());
  }
  {
    history::HistoryStore occupied(dedup_config());
    occupied.append(record(100.0, "140.221.65.69", 1));
    EXPECT_FALSE(DurabilityManager::recover(root, occupied).ok());
  }
}

TEST(RecoveryTest, SecondRecoveryAfterMoreIngestAlsoMatches) {
  // Recover, serve, ingest more, snapshot, crash again: the durable
  // state composes across process generations.
  const auto root = scratch("generations");
  auto gen1 = std::make_shared<history::HistoryStore>(dedup_config());
  {
    DurabilityManager manager(gen1, durability_config(root));
    manager.attach();
    ingest_campaign(*gen1);
    ASSERT_TRUE(manager.snapshot_now().ok());
  }

  auto gen2 = std::make_shared<history::HistoryStore>(dedup_config());
  ASSERT_TRUE(DurabilityManager::recover(root, *gen2).ok());
  {
    DurabilityManager manager(gen2, durability_config(root));
    manager.attach();
    for (int i = 0; i < 5; ++i) {
      gen2->append(record(5000.0 + 25.0 * i, "131.243.2.91", 80'000 + i));
    }
    ASSERT_TRUE(manager.snapshot_now().ok());
  }

  auto gen3 = std::make_shared<history::HistoryStore>(dedup_config());
  const auto stats = DurabilityManager::recover(root, *gen3);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().snapshot_seq, 2u);
  expect_stores_bit_identical(*gen2, *gen3);
}

}  // namespace
}  // namespace wadp::durability
