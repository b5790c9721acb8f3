#include "durability/codec.hpp"

#include <array>
#include <cstring>

namespace wadp::durability {
namespace {

/// CRC32C lookup tables for slicing-by-8 (Castagnoli, reflected),
/// built once.  Table 0 is the classic byte-at-a-time table; tables
/// 1..7 fold bytes processed 8 at a time, which runs ~6-8x faster on
/// the ~100-byte payloads the WAL frames — the difference between the
/// checksum dominating the ingest hook and disappearing into it.
const std::array<std::array<std::uint32_t, 256>, 8>& crc_tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data) {
  const auto& t = crc_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    // Little-endian byte order within each 32-bit half; the explicit
    // byte extraction keeps the fold endian-correct everywhere.
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*p++)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(std::string_view data) {
  return crc32c(std::as_bytes(std::span(data.data(), data.size())));
}

void ByteWriter::u8(std::uint8_t v) { buf_->push_back(static_cast<char>(v)); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view v) {
  const auto n = static_cast<std::uint16_t>(
      v.size() > 0xFFFF ? 0xFFFF : v.size());
  u16(n);
  buf_->append(v.data(), n);
}

void ByteWriter::raw(std::string_view v) { buf_->append(v); }

bool ByteReader::u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = static_cast<std::uint8_t>(data_[pos_++]);
  return true;
}

bool ByteReader::u16(std::uint16_t& v) {
  std::uint8_t lo = 0, hi = 0;
  if (remaining() < 2 || !u8(lo) || !u8(hi)) return false;
  v = static_cast<std::uint16_t>(lo | (hi << 8));
  return true;
}

bool ByteReader::u32(std::uint32_t& v) {
  std::uint16_t lo = 0, hi = 0;
  if (remaining() < 4 || !u16(lo) || !u16(hi)) return false;
  v = static_cast<std::uint32_t>(lo) |
      (static_cast<std::uint32_t>(hi) << 16);
  return true;
}

bool ByteReader::u64(std::uint64_t& v) {
  std::uint32_t lo = 0, hi = 0;
  if (remaining() < 8 || !u32(lo) || !u32(hi)) return false;
  v = static_cast<std::uint64_t>(lo) |
      (static_cast<std::uint64_t>(hi) << 32);
  return true;
}

bool ByteReader::f64(double& v) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool ByteReader::str(std::string& v) {
  std::uint16_t n = 0;
  if (!u16(n) || remaining() < n) return false;
  v.assign(data_.substr(pos_, n));
  pos_ += n;
  return true;
}

namespace {

void encode_fields(ByteWriter& w, std::uint64_t lsn,
                   const gridftp::TransferRecord& r) {
  w.u8(kRecordVersion);
  w.u64(lsn);
  w.str(r.host);
  w.str(r.source_ip);
  w.str(r.file_name);
  w.str(r.volume);
  w.u64(r.file_size);
  w.f64(r.start_time);
  w.f64(r.end_time);
  w.u8(r.op == gridftp::Operation::kWrite ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(r.streams));
  w.u64(r.tcp_buffer);
  w.u8(r.ok ? 1 : 0);
  w.u64(r.trace_id);
  // v2 fields.
  w.f64(r.disk_throughput);
  w.f64(r.net_probe);
}

}  // namespace

std::string encode_entry(const WalEntry& entry) {
  ByteWriter w;
  encode_fields(w, entry.lsn, entry.record);
  return w.take();
}

std::optional<WalEntry> decode_entry(std::string_view payload) {
  ByteReader reader(payload);
  std::uint8_t version = 0;
  if (!reader.u8(version)) return std::nullopt;
  // Versions newer than ours may have *reordered* fields; only trust
  // versions we know.  Every version we do know decodes: the shared
  // prefix reads identically and version-gated fields default.
  if (version == 0 || version > kRecordVersion) return std::nullopt;
  WalEntry entry;
  auto& r = entry.record;
  std::uint8_t op = 0, ok = 1;
  std::uint32_t streams = 1;
  if (!reader.u64(entry.lsn) || !reader.str(r.host) ||
      !reader.str(r.source_ip) || !reader.str(r.file_name) ||
      !reader.str(r.volume) || !reader.u64(r.file_size) ||
      !reader.f64(r.start_time) || !reader.f64(r.end_time) ||
      !reader.u8(op) || !reader.u32(streams) || !reader.u64(r.tcp_buffer) ||
      !reader.u8(ok) || !reader.u64(r.trace_id)) {
    return std::nullopt;
  }
  r.op = op == 1 ? gridftp::Operation::kWrite : gridftp::Operation::kRead;
  r.streams = static_cast<int>(streams);
  r.ok = ok != 0;
  // v2 appended the regression fields; v1 payloads leave them at 0.
  if (version >= 2 &&
      (!reader.f64(r.disk_throughput) || !reader.f64(r.net_probe))) {
    return std::nullopt;
  }
  // A checksum-valid frame can still carry a record no decoder may
  // accept (the writer was fed one, or the bytes were forged); the
  // shared validity rule refuses it like corruption.
  if (!r.valid()) return std::nullopt;
  // Trailing bytes are a future field from a same-version writer that
  // appended to the encoding; ignore them.
  return entry;
}

std::string frame(std::string_view payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32c(payload));
  w.raw(payload);
  return w.take();
}

void append_framed_entry(std::string& buf, std::uint64_t lsn,
                         const gridftp::TransferRecord& record) {
  const std::size_t header_at = buf.size();
  buf.append(8, '\0');  // [u32 length][u32 crc], patched below
  const std::size_t payload_at = buf.size();
  ByteWriter w(buf);
  encode_fields(w, lsn, record);
  const std::string_view payload(buf.data() + payload_at,
                                 buf.size() - payload_at);
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32c(payload);
  for (int i = 0; i < 4; ++i) {
    buf[header_at + static_cast<std::size_t>(i)] =
        static_cast<char>(length >> (8 * i));
    buf[header_at + 4 + static_cast<std::size_t>(i)] =
        static_cast<char>(crc >> (8 * i));
  }
}

FrameStatus next_frame(std::string_view data, std::size_t& offset,
                       std::string_view& payload) {
  const std::size_t remaining = data.size() - offset;
  if (remaining == 0) return FrameStatus::kEnd;
  if (remaining < 8) return FrameStatus::kTorn;
  ByteReader header(data.substr(offset, 8));
  std::uint32_t length = 0, crc = 0;
  header.u32(length);
  header.u32(crc);
  if (length > kMaxFrameBytes) return FrameStatus::kCorrupt;
  if (remaining - 8 < length) return FrameStatus::kTorn;
  const std::string_view body = data.substr(offset + 8, length);
  if (crc32c(body) != crc) return FrameStatus::kCorrupt;
  payload = body;
  offset += 8 + length;
  return FrameStatus::kOk;
}

}  // namespace wadp::durability
