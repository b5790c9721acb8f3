#include "durability/codec.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <string_view>

namespace wadp::durability {
namespace {

gridftp::TransferRecord full_record() {
  gridftp::TransferRecord r;
  r.host = "dpsslx04.lbl.gov";
  r.source_ip = "140.221.65.69";
  r.file_name = "/home/ftp/vazhkuda/10 MB";
  r.file_size = 10 * kMB;
  r.volume = "/home/ftp";
  r.start_time = 997587000.25;
  r.end_time = 997587010.75;
  r.op = gridftp::Operation::kWrite;
  r.streams = 8;
  r.tcp_buffer = 1'000'000;
  r.ok = false;
  r.trace_id = 0xDEADBEEFCAFEF00Dull;
  return r;
}

TEST(DurabilityCodecTest, Crc32cMatchesReferenceCheckValue) {
  // The standard CRC-32C check value for "123456789".
  EXPECT_EQ(crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string_view("")), 0x00000000u);
}

TEST(DurabilityCodecTest, GoldenRoundTripPreservesEveryField) {
  const WalEntry entry{.lsn = 42, .record = full_record()};
  const auto decoded = decode_entry(encode_entry(entry));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, entry);
  // The fields the durability plane exists for, spelled out:
  EXPECT_EQ(decoded->record.trace_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_FALSE(decoded->record.ok);
  EXPECT_EQ(decoded->record.op, gridftp::Operation::kWrite);
  // Doubles survive as exact bit patterns, not formatted text.
  EXPECT_EQ(decoded->record.start_time, 997587000.25);
  EXPECT_EQ(decoded->record.end_time, 997587010.75);
}

TEST(DurabilityCodecTest, HotPathFramingIsByteIdenticalToTheSlowPath) {
  // The WAL append hot path (append_framed_entry) must never drift
  // from the spec'd encoding (frame + encode_entry).
  const WalEntry entry{.lsn = 42, .record = full_record()};
  std::string hot = "prefix";  // appends after existing bytes
  append_framed_entry(hot, entry.lsn, entry.record);
  EXPECT_EQ(hot.substr(6), frame(encode_entry(entry)));

  // Also for a minimal record (empty strings, defaults).
  std::string hot2;
  append_framed_entry(hot2, 1, gridftp::TransferRecord{});
  EXPECT_EQ(hot2,
            frame(encode_entry(WalEntry{.lsn = 1, .record = {}})));

  // CRC over long inputs exercises the slicing-by-8 fold across both
  // aligned and tail bytes.
  std::string long_payload;
  for (int i = 0; i < 300; ++i) long_payload.push_back(static_cast<char>(i));
  for (std::size_t cut = 0; cut <= long_payload.size(); ++cut) {
    const std::string_view slice(long_payload.data(), cut);
    std::uint32_t reference = 0xFFFFFFFFu;
    for (const char c : slice) {
      reference ^= static_cast<std::uint8_t>(c);
      for (int bit = 0; bit < 8; ++bit) {
        reference = (reference >> 1) ^ ((reference & 1u) ? 0x82F63B78u : 0u);
      }
    }
    ASSERT_EQ(crc32c(slice), reference ^ 0xFFFFFFFFu) << "cut=" << cut;
  }
}

TEST(DurabilityCodecTest, GoldenBytes) {
  // A minimal entry whose encoding is spelled out byte for byte.  If
  // this test breaks, the on-disk format changed: bump kRecordVersion
  // and update docs/DURABILITY.md instead of editing the bytes.
  gridftp::TransferRecord r;
  r.host = "h";
  r.source_ip = "i";
  r.file_name = "f";
  r.volume = "v";
  r.file_size = 3;
  r.start_time = 0.0;
  r.end_time = 1.5;
  r.op = gridftp::Operation::kRead;
  r.streams = 4;
  r.tcp_buffer = 5;
  r.ok = true;
  r.trace_id = 6;
  r.disk_throughput = 2.5;
  r.net_probe = 0.75;
  const std::string encoded = encode_entry(WalEntry{.lsn = 2, .record = r});

  const unsigned char expected[] = {
      0x02,                                            // record version
      0x02, 0, 0, 0, 0, 0, 0, 0,                       // lsn = 2
      0x01, 0x00, 'h',                                 // host
      0x01, 0x00, 'i',                                 // source_ip
      0x01, 0x00, 'f',                                 // file_name
      0x01, 0x00, 'v',                                 // volume
      0x03, 0, 0, 0, 0, 0, 0, 0,                       // file_size = 3
      0, 0, 0, 0, 0, 0, 0, 0,                          // start_time = 0.0
      0, 0, 0, 0, 0, 0, 0xF8, 0x3F,                    // end_time = 1.5
      0x00,                                            // op = kRead
      0x04, 0, 0, 0,                                   // streams = 4
      0x05, 0, 0, 0, 0, 0, 0, 0,                       // tcp_buffer = 5
      0x01,                                            // ok
      0x06, 0, 0, 0, 0, 0, 0, 0,                       // trace_id = 6
      0, 0, 0, 0, 0, 0, 0x04, 0x40,                    // disk_throughput = 2.5
      0, 0, 0, 0, 0, 0, 0xE8, 0x3F,                    // net_probe = 0.75
  };
  ASSERT_EQ(encoded.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(encoded[i]), expected[i])
        << "byte " << i;
  }
}

TEST(DurabilityCodecTest, DecodesVersion1PayloadsWithDefaultedFields) {
  // A v1 WAL written before the regression fields existed: the exact
  // golden bytes of the previous format.  It must keep decoding, with
  // the v2 fields defaulting to zero — crash recovery across the
  // version bump depends on it.
  const unsigned char v1[] = {
      0x01,                                            // record version 1
      0x02, 0, 0, 0, 0, 0, 0, 0,                       // lsn = 2
      0x01, 0x00, 'h',                                 // host
      0x01, 0x00, 'i',                                 // source_ip
      0x01, 0x00, 'f',                                 // file_name
      0x01, 0x00, 'v',                                 // volume
      0x03, 0, 0, 0, 0, 0, 0, 0,                       // file_size = 3
      0, 0, 0, 0, 0, 0, 0, 0,                          // start_time = 0.0
      0, 0, 0, 0, 0, 0, 0xF8, 0x3F,                    // end_time = 1.5
      0x00,                                            // op = kRead
      0x04, 0, 0, 0,                                   // streams = 4
      0x05, 0, 0, 0, 0, 0, 0, 0,                       // tcp_buffer = 5
      0x01,                                            // ok
      0x06, 0, 0, 0, 0, 0, 0, 0,                       // trace_id = 6
  };
  const auto decoded = decode_entry(
      std::string_view(reinterpret_cast<const char*>(v1), sizeof(v1)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->lsn, 2u);
  EXPECT_EQ(decoded->record.host, "h");
  EXPECT_EQ(decoded->record.file_size, 3u);
  EXPECT_EQ(decoded->record.end_time, 1.5);
  EXPECT_EQ(decoded->record.trace_id, 6u);
  EXPECT_EQ(decoded->record.disk_throughput, 0.0);
  EXPECT_EQ(decoded->record.net_probe, 0.0);
}

TEST(DurabilityCodecTest, OutOfOrderTimestampsRoundTripVerbatim) {
  // The codec is an encoding, not a sort: entries whose end times go
  // backwards (merged logs interleave) come back in write order with
  // the exact timestamps.
  auto first = full_record();
  first.start_time = 1990.0;
  first.end_time = 2000.0;
  auto second = full_record();
  second.start_time = 990.0;
  second.end_time = 1000.0;  // earlier than its predecessor
  const auto a = decode_entry(encode_entry(WalEntry{.lsn = 1, .record = first}));
  const auto b =
      decode_entry(encode_entry(WalEntry{.lsn = 2, .record = second}));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->record.end_time, 2000.0);
  EXPECT_EQ(b->record.end_time, 1000.0);
  EXPECT_LT(a->lsn, b->lsn);
}

TEST(DurabilityCodecTest, TrailingBytesAreIgnoredForForwardCompat) {
  // A same-version writer that *appended* a field produces payloads an
  // old reader must still decode (ignoring the tail).
  const WalEntry entry{.lsn = 7, .record = full_record()};
  std::string payload = encode_entry(entry);
  payload += "\x01\x02\x03future-field";
  const auto decoded = decode_entry(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, entry);
}

TEST(DurabilityCodecTest, UnknownVersionsAreRejected) {
  std::string payload = encode_entry(WalEntry{.lsn = 1, .record = full_record()});
  payload[0] = 0;  // version 0 never existed
  EXPECT_FALSE(decode_entry(payload).has_value());
  payload[0] = static_cast<char>(kRecordVersion + 1);  // from the future
  EXPECT_FALSE(decode_entry(payload).has_value());
}

TEST(DurabilityCodecTest, InvalidRecordsAreRejected) {
  // A checksum-valid payload whose record fails the shared validity
  // rule decodes to nothing, exactly as TransferRecord::from_ulm
  // refuses the same record as a log line.
  using Record = gridftp::TransferRecord;
  const auto decodes = [](const Record& r) {
    return decode_entry(encode_entry(WalEntry{.lsn = 1, .record = r}))
        .has_value();
  };
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, void (*)(Record&)> cases[] = {
      {"zero duration", [](Record& r) { r.end_time = r.start_time; }},
      {"NaN start", [](Record& r) { r.start_time = kNan; }},
      {"infinite end", [](Record& r) { r.end_time = kInf; }},
      {"no streams", [](Record& r) { r.streams = 0; }},
      {"no buffer", [](Record& r) { r.tcp_buffer = 0; }},
      {"empty success",
       [](Record& r) {
         r.ok = true;
         r.file_size = 0;
       }},
      {"negative DISK", [](Record& r) { r.disk_throughput = -1.0; }},
      {"NaN PROBE", [](Record& r) { r.net_probe = kNan; }},
  };
  for (const auto& [name, mutate] : cases) {
    Record r = full_record();
    mutate(r);
    EXPECT_FALSE(r.valid()) << name;
    EXPECT_FALSE(decodes(r)) << name;
  }

  Record failed = full_record();  // ok = false
  failed.file_size = 0;           // a failed attempt may move nothing
  EXPECT_TRUE(decodes(failed));
}

TEST(DurabilityCodecTest, TruncatedPayloadsAreRejectedAtEveryCut) {
  const std::string payload =
      encode_entry(WalEntry{.lsn = 9, .record = full_record()});
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_entry(payload.substr(0, cut)).has_value())
        << "cut at " << cut;
  }
  EXPECT_TRUE(decode_entry(payload).has_value());
}

TEST(DurabilityCodecTest, FrameRoundTripAndStatuses) {
  const std::string payload = "hello, frames";
  const std::string framed = frame(payload);
  ASSERT_EQ(framed.size(), 8 + payload.size());

  std::size_t offset = 0;
  std::string_view out;
  EXPECT_EQ(next_frame(framed, offset, out), FrameStatus::kOk);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(offset, framed.size());
  EXPECT_EQ(next_frame(framed, offset, out), FrameStatus::kEnd);
}

TEST(DurabilityCodecTest, FlippedBitFailsTheChecksum) {
  std::string framed = frame("payload-under-test");
  framed[12] = static_cast<char>(framed[12] ^ 0x40);  // inside the payload
  std::size_t offset = 0;
  std::string_view out;
  EXPECT_EQ(next_frame(framed, offset, out), FrameStatus::kCorrupt);
  EXPECT_EQ(offset, 0u);  // a refused frame never advances
}

TEST(DurabilityCodecTest, ShortHeaderAndShortPayloadAreTorn) {
  const std::string framed = frame("abc");
  std::string_view out;
  for (std::size_t cut = 1; cut < framed.size(); ++cut) {
    std::size_t offset = 0;
    EXPECT_EQ(next_frame(framed.substr(0, cut), offset, out),
              FrameStatus::kTorn)
        << "cut at " << cut;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(DurabilityCodecTest, InsaneLengthIsCorruptNotAllocated) {
  ByteWriter w;
  w.u32(kMaxFrameBytes + 1);
  w.u32(0);
  const std::string framed = w.take();
  std::size_t offset = 0;
  std::string_view out;
  EXPECT_EQ(next_frame(framed, offset, out), FrameStatus::kCorrupt);
}

}  // namespace
}  // namespace wadp::durability
