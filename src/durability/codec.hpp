// Binary record codec for the durability plane.
//
// The WAL and the snapshot files share one wire vocabulary, defined
// here and specified byte-for-byte in docs/DURABILITY.md:
//
//   * little-endian fixed-width integers, written explicitly byte by
//     byte (the format is the contract, not the host's memory layout);
//   * doubles as their IEEE-754 bit patterns, so a decoded observation
//     is *bit-identical* to the one that was encoded — the property
//     the whole recovery plane rests on;
//   * length-prefixed strings (u16 length, unterminated bytes);
//   * CRC32C (Castagnoli) integrity frames: [u32 length][u32 crc]
//     [payload], crc over the payload only.  A torn tail or a flipped
//     bit fails the frame, never the process;
//   * a one-byte record version inside every payload.  Decoders read
//     the fields they know in order and ignore trailing bytes, so a
//     future field appended to the encoding is backward-readable
//     (old reader skips it; new reader defaults it on old records).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "gridftp/record.hpp"

namespace wadp::durability {

/// CRC32C (Castagnoli polynomial, reflected 0x82F63B78), the checksum
/// modern storage systems frame their logs with.  Software table
/// implementation — no hardware dependency.
std::uint32_t crc32c(std::span<const std::byte> data);
std::uint32_t crc32c(std::string_view data);

/// Appends little-endian primitives to a byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  ///< IEEE-754 bit pattern via u64
  /// u16 length prefix + raw bytes; strings longer than 65535 bytes
  /// are truncated (no field in a TransferRecord legitimately is).
  void str(std::string_view v);
  void raw(std::string_view v);

  /// Owns its buffer by default; the hot path hands in an external
  /// buffer to append to instead (no temporary, no copy).
  ByteWriter() : buf_(&owned_) {}
  explicit ByteWriter(std::string& out) : buf_(&out) {}

  const std::string& bytes() const { return *buf_; }
  std::string take() { return std::move(owned_); }
  std::size_t size() const { return buf_->size(); }

 private:
  std::string owned_;
  std::string* buf_;
};

/// Consumes little-endian primitives from a byte span.  Every read
/// reports success; a short buffer never traps — the caller decides
/// whether a missing trailing field is an error (mid-record cut) or a
/// version skew (older writer), which is what makes the record format
/// forward- and backward-readable.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v);
  bool u16(std::uint16_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool f64(double& v);
  bool str(std::string& v);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Current version of the TransferRecord payload encoding.
/// v1: the original Fig. 3 field set (through trace_id).
/// v2: appends f64 disk_throughput + f64 net_probe (the regression
///     battery's regressors); v1 payloads decode with both fields 0.
inline constexpr std::uint8_t kRecordVersion = 2;

/// One WAL entry: a transfer record plus its log sequence number.
/// LSNs are assigned by the WAL, monotone from 1, and are the
/// coordinate system snapshots seal against.
struct WalEntry {
  std::uint64_t lsn = 0;
  gridftp::TransferRecord record;

  bool operator==(const WalEntry&) const = default;
};

/// Encodes an entry payload (record version byte + lsn + record
/// fields; see docs/DURABILITY.md for the exact field order).
std::string encode_entry(const WalEntry& entry);

/// Decodes a payload.  nullopt when the payload is cut mid-field,
/// carries an unknown (newer major) record version, or decodes to a
/// record that fails gridftp::TransferRecord::valid().  Trailing bytes
/// beyond the known fields are ignored.
std::optional<WalEntry> decode_entry(std::string_view payload);

/// Frames a payload for appending to a WAL segment:
/// [u32 length][u32 crc32c(payload)][payload].
std::string frame(std::string_view payload);

/// Appends one complete frame — header plus encoded entry payload —
/// directly onto `buf`.  Byte-for-byte identical to
/// `frame(encode_entry(...))` but with no temporary strings and no
/// TransferRecord copy: this is the WAL append hot path, charged to
/// every ingested record.
void append_framed_entry(std::string& buf, std::uint64_t lsn,
                         const gridftp::TransferRecord& record);

/// Why frame consumption stopped.
enum class FrameStatus {
  kOk,         ///< a whole, checksum-valid frame was consumed
  kEnd,        ///< clean end of input (zero bytes left)
  kTorn,       ///< header or payload cut short (crash mid-write)
  kCorrupt,    ///< checksum mismatch or insane length
};

/// Consumes one frame from `data` starting at `offset`.  On kOk the
/// payload view (into `data`) is stored in `payload` and `offset`
/// advances past the frame; on anything else `offset` is unchanged.
FrameStatus next_frame(std::string_view data, std::size_t& offset,
                       std::string_view& payload);

/// Upper bound a frame length field may claim before the stream is
/// declared corrupt (a real entry is < 1 KB; 16 MB of slack keeps the
/// format open to bulk records without trusting garbage lengths).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

}  // namespace wadp::durability
