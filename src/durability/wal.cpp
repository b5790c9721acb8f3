#include "durability/wal.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wadp::durability {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kSegmentMagic = "WADPWAL\x01";
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::size_t kSegmentHeaderBytes = 8 + 4 + 4 + 8;

std::string segment_name(std::uint64_t base_lsn) {
  return util::format("wal-%016llx.seg",
                      static_cast<unsigned long long>(base_lsn));
}

/// Reads a whole file into a string; empty on failure (a vanished or
/// unreadable segment reads as zero frames, never as a crash).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// Parses a segment header.  Returns the base LSN, or nullopt when the
/// header is missing or from an unknown version.
std::optional<std::uint64_t> parse_header(std::string_view data) {
  if (data.size() < kSegmentHeaderBytes) return std::nullopt;
  if (data.substr(0, kSegmentMagic.size()) != kSegmentMagic) {
    return std::nullopt;
  }
  ByteReader reader(data.substr(8));
  std::uint32_t version = 0, reserved = 0;
  std::uint64_t base_lsn = 0;
  if (!reader.u32(version) || !reader.u32(reserved) ||
      !reader.u64(base_lsn)) {
    return std::nullopt;
  }
  if (version != kSegmentVersion) return std::nullopt;
  return base_lsn;
}

std::string make_header(std::uint64_t base_lsn) {
  ByteWriter w;
  w.raw(kSegmentMagic);
  w.u32(kSegmentVersion);
  w.u32(0);
  w.u64(base_lsn);
  return w.take();
}

/// Reads just the fixed-size header of a segment file and returns its
/// base LSN — no reason to pull megabytes of frames through the page
/// cache to learn 8 bytes.
std::optional<std::uint64_t> read_segment_base(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  char buf[kSegmentHeaderBytes];
  in.read(buf, static_cast<std::streamsize>(kSegmentHeaderBytes));
  if (static_cast<std::size_t>(in.gcount()) < kSegmentHeaderBytes) {
    return std::nullopt;
  }
  return parse_header(std::string_view(buf, kSegmentHeaderBytes));
}

obs::Counter& torn_counter() {
  return obs::Registry::global().counter(
      "wadp_wal_torn_frames_total", {},
      "WAL frames refused during replay (torn tail, bad checksum)");
}

}  // namespace

const char* to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kBatch: return "batch";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

WriteAheadLog::WriteAheadLog(WalConfig config) : config_(std::move(config)) {
  WADP_CHECK_MSG(!config_.dir.empty(), "WAL needs a directory");
  if (config_.group_commit_records == 0) config_.group_commit_records = 1;
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  WADP_CHECK_MSG(!ec, "cannot create WAL directory");

  if (config_.instrumented) {
    auto& registry = obs::Registry::global();
    metrics_.appends = &registry.counter(
        "wadp_wal_appends_total", {}, "Records appended to the WAL");
    metrics_.batches = &registry.counter(
        "wadp_wal_commit_batches_total", {},
        "Group-commit batches written to WAL segments");
    metrics_.fsyncs = &registry.counter(
        "wadp_wal_fsyncs_total", {}, "fsync() calls issued by the WAL");
    metrics_.written_bytes = &registry.counter(
        "wadp_wal_written_bytes_total", {},
        "Framed bytes written to WAL segments");
    metrics_.truncated_segments = &registry.counter(
        "wadp_wal_truncated_segments_total", {},
        "WAL segments deleted because a snapshot sealed past them");
    metrics_.size_bytes = &registry.gauge(
        "wadp_wal_size_bytes", {}, "Bytes on disk across WAL segments");
    metrics_.segments = &registry.gauge(
        "wadp_wal_segments", {}, "WAL segment files on disk");
    metrics_.fsync_seconds = &registry.histogram(
        "wadp_wal_fsync_seconds", {},
        "Wall-clock latency of WAL fsync() calls — the wal.fsync_p99 "
        "SLO rule watches this");
  }

  // Continue the LSN sequence past whatever segments already exist.
  // The scan walks valid frames only — a torn tail simply does not
  // advance the LSN, which is exactly the durability contract.
  std::uint64_t max_lsn = 0;
  for (const auto& path : list_segments(config_.dir)) {
    const std::string data = slurp(path);
    const auto base = parse_header(data);
    if (!base) continue;
    std::size_t offset = kSegmentHeaderBytes;
    std::string_view payload;
    while (next_frame(data, offset, payload) == FrameStatus::kOk) {
      if (const auto entry = decode_entry(payload)) {
        max_lsn = std::max(max_lsn, entry->lsn);
      }
    }
    max_lsn = std::max(max_lsn, *base == 0 ? 0 : *base - 1);
  }
  next_lsn_ = max_lsn + 1;

  std::lock_guard<std::mutex> lock(mu_);
  open_segment_locked(next_lsn_);
}

WriteAheadLog::~WriteAheadLog() {
  flush();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void WriteAheadLog::open_segment_locked(std::uint64_t base_lsn) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_path_ = (fs::path(config_.dir) / segment_name(base_lsn)).string();
  file_ = std::fopen(file_path_.c_str(), "wb");
  WADP_CHECK_MSG(file_ != nullptr, "cannot open WAL segment");
  const std::string header = make_header(base_lsn);
  std::fwrite(header.data(), 1, header.size(), file_);
  std::fflush(file_);
  segment_written_ = header.size();
  ++stats_.segments;
  if (metrics_.segments != nullptr) {
    metrics_.segments->set(static_cast<double>(list_segments(config_.dir).size()));
  }
}

std::uint64_t WriteAheadLog::append(const gridftp::TransferRecord& record) {
  std::uint64_t lsn = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    lsn = next_lsn_++;
    if (pending_.empty()) first_pending_lsn_ = lsn;
    append_framed_entry(pending_, lsn, record);
    ++pending_records_;
    ++stats_.appended;
    stats_.last_lsn = lsn;
    if (config_.fsync == FsyncPolicy::kAlways ||
        pending_records_ >= config_.group_commit_records) {
      flush_with_lock(lock);
    }
  }
  if (metrics_.appends != nullptr) metrics_.appends->inc();
  return lsn;
}

void WriteAheadLog::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  flush_with_lock(lock);
}

void WriteAheadLog::flush_with_lock(std::unique_lock<std::mutex>& lock) {
  // Single-flusher group commit: exactly one thread at a time owns the
  // unlocked IO window.  Producers keep filling `pending_` while the
  // flusher's batch is on its way to disk — an fsync stall costs the
  // ingest path nothing unless a second batch fills before the first
  // lands (then the next flusher waits here, which *is* the group
  // commit).  A caller whose records were moved into the in-flight
  // batch still waits for that batch: flush() returning means durable
  // per policy.
  while (flushing_) {
    const std::uint64_t wanted = stats_.last_lsn;
    flush_cv_.wait(lock);
    if (stats_.durable_lsn >= wanted && pending_.empty()) return;
  }
  if (pending_.empty()) return;
  flushing_ = true;
  // Rotate before the batch when the active segment is full: a batch
  // lands wholly in one segment, so the segment's base LSN names its
  // first record exactly.
  if (segment_written_ >= config_.segment_bytes) {
    open_segment_locked(first_pending_lsn_);
  }
  io_buf_.clear();
  std::swap(io_buf_, pending_);
  pending_records_ = 0;
  const std::uint64_t batch_last_lsn = stats_.last_lsn;
  std::FILE* file = file_;  // rotation only happens here, under flushing_

  lock.unlock();
  const std::size_t written =
      std::fwrite(io_buf_.data(), 1, io_buf_.size(), file);
  WADP_CHECK_MSG(written == io_buf_.size(), "short WAL write");
  std::fflush(file);
  const bool synced = config_.fsync != FsyncPolicy::kNone;
  if (synced) {
    // Timed off-lock: the histogram record is lock-free and the fsync
    // latency distribution is what the wal.fsync_p99 SLO rule watches.
    const auto fsync_start = std::chrono::steady_clock::now();
    ::fsync(fileno(file));
    if (metrics_.fsync_seconds != nullptr) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - fsync_start;
      metrics_.fsync_seconds->record(elapsed.count());
    }
  }
  lock.lock();

  segment_written_ += io_buf_.size();
  stats_.bytes_written += io_buf_.size();
  stats_.durable_lsn = std::max(stats_.durable_lsn, batch_last_lsn);
  ++stats_.batches;
  if (synced) ++stats_.fsyncs;
  if (metrics_.batches != nullptr) {
    metrics_.batches->inc();
    metrics_.written_bytes->inc(io_buf_.size());
    metrics_.size_bytes->set(static_cast<double>(size_bytes()));
    if (synced) metrics_.fsyncs->inc();
  }
  flushing_ = false;
  flush_cv_.notify_all();
}

WalStats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t WriteAheadLog::truncate_through(std::uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  // Segment i is fully covered when the *next* segment starts at or
  // below lsn+1 (its own records all have LSN < next base).  The
  // active segment is never deleted.
  const auto paths = list_segments(config_.dir);
  std::vector<std::uint64_t> bases;
  bases.reserve(paths.size());
  for (const auto& path : paths) {
    bases.push_back(read_segment_base(path).value_or(0));
  }
  std::size_t removed = 0;
  for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
    if (paths[i] == file_path_) continue;
    if (bases[i + 1] == 0 || bases[i + 1] > lsn + 1) continue;
    std::error_code ec;
    if (fs::remove(paths[i], ec) && !ec) ++removed;
  }
  if (metrics_.truncated_segments != nullptr && removed > 0) {
    metrics_.truncated_segments->inc(removed);
    metrics_.segments->set(
        static_cast<double>(list_segments(config_.dir).size()));
    metrics_.size_bytes->set(static_cast<double>(size_bytes()));
  }
  return removed;
}

std::vector<std::string> WriteAheadLog::segments() const {
  return list_segments(config_.dir);
}

std::uint64_t WriteAheadLog::size_bytes() const {
  std::uint64_t total = 0;
  for (const auto& path : list_segments(config_.dir)) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec) total += size;
  }
  return total;
}

std::vector<std::string> WriteAheadLog::list_segments(
    const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".seg")) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());  // hex base LSN sorts by name
  return out;
}

ReplayStats WriteAheadLog::replay(const std::string& dir, const EntryFn& fn) {
  ReplayStats stats;
  auto& torn = torn_counter();
  const auto paths = list_segments(dir);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ++stats.segments;
    const std::string data = slurp(paths[i]);
    bool refused = false;
    if (!parse_header(data)) {
      // A header that never finished writing is a torn frame zero.
      torn.inc();
      ++stats.torn_frames;
      refused = true;
    } else {
      std::size_t offset = kSegmentHeaderBytes;
      bool stop = false;
      while (!stop) {
        std::string_view payload;
        switch (next_frame(data, offset, payload)) {
          case FrameStatus::kEnd:
            stop = true;
            break;
          case FrameStatus::kOk: {
            const auto entry = decode_entry(payload);
            if (!entry) {
              // Checksum-valid but undecodable: a version we do not
              // know, or a record that fails the validity rule.  Treat
              // like corruption — refuse, do not guess.
              torn.inc();
              ++stats.torn_frames;
              refused = true;
              stop = true;
              break;
            }
            ++stats.entries;
            stats.bytes += 8 + payload.size();
            stats.max_lsn = std::max(stats.max_lsn, entry->lsn);
            fn(*entry);
            break;
          }
          case FrameStatus::kTorn:
          case FrameStatus::kCorrupt:
            torn.inc();
            ++stats.torn_frames;
            refused = true;
            stop = true;
            break;
        }
      }
    }
    if (!refused) continue;
    // A refused frame ends the pass — replay never skips over damage
    // within a segment — UNLESS the next segment's base LSN is exactly
    // the last valid LSN + 1.  Only a writer that restarted after this
    // very tear produces that (a fresh WriteAheadLog resumes the LSN
    // sequence from the last *valid* frame, so the torn frame's LSN is
    // reissued in the new segment).  Records fsync-acknowledged after
    // the restart live in those later segments and are durable; mid-
    // history damage cannot fake the match because its following
    // segment starts at torn LSN + 1, leaving a gap of one.
    if (i + 1 < paths.size()) {
      const auto next_base = read_segment_base(paths[i + 1]);
      if (next_base && *next_base == stats.max_lsn + 1) continue;
    }
    stats.stopped_early = true;
    break;
  }
  return stats;
}

}  // namespace wadp::durability
