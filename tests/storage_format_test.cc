// On-disk format fuzzing (the storage counterpart of net_protocol_test's
// decoder sweeps): every storage decoder — segment file, WAL, manifest —
// must be total over arbitrary input. Systematic truncation at every byte
// boundary, exhaustive single-byte corruption, and seeded random multi-byte
// corruption; run under ASan/UBSan in CI, where any over-read or
// uninitialized interpretation turns into a hard failure.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/file_io.h"
#include "storage/manifest.h"
#include "storage/segment_file.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "vdms/segment.h"

namespace vdt {
namespace {

using testing_util::RandomMatrix;

std::vector<uint8_t> EncodeTestSegment(IndexType type, size_t rows,
                                       size_t dim, bool with_ids) {
  Segment segment(100, dim);
  const FloatMatrix data = RandomMatrix(rows, dim, 42);
  for (size_t r = 0; r < rows; ++r) {
    if (with_ids) {
      segment.AppendWithId(data.Row(r), dim, 100 + static_cast<int64_t>(r) * 3);
    } else {
      segment.Append(data.Row(r), dim);
    }
  }
  IndexParams params;
  params.nlist = 4;
  params.nprobe = 4;
  params.m = 4;
  params.hnsw_m = 8;
  params.ef_construction = 32;
  params.ef = 16;
  EXPECT_TRUE(
      segment.Seal(type, Metric::kAngular, params, /*build_threshold=*/16, 7)
          .ok());
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(EncodeSegmentFile(segment, Metric::kAngular, &bytes).ok());
  return bytes;
}

// ------------------------------------------------------------ segment file

class SegmentFormatFuzzTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(SegmentFormatFuzzTest, RoundTripsAndSurvivesTruncation) {
  const std::vector<uint8_t> bytes =
      EncodeTestSegment(GetParam(), 48, 8, true);

  // The intact image decodes.
  auto full = DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                                nullptr);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ((*full)->rows(), 48u);
  EXPECT_EQ((*full)->IdAt(1), 103);

  // Every proper prefix must yield a typed error (a section is missing or
  // cut short), and must never crash or over-read.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DecodeSegmentFile(bytes.data(), len, Metric::kAngular, nullptr);
    EXPECT_FALSE(r.ok()) << "truncated to " << len << " decoded";
  }
}

TEST_P(SegmentFormatFuzzTest, SurvivesSingleByteCorruption) {
  std::vector<uint8_t> bytes = EncodeTestSegment(GetParam(), 32, 8, false);
  // Exhaustive single-byte flips. CRC or structural validation rejects
  // almost all of them; the assertion here is totality (no crash), plus
  // basic sanity when a flip happens to decode (e.g. inside a length field
  // that still frames validly).
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    const uint8_t original = bytes[pos];
    bytes[pos] ^= 0x5A;
    auto r =
        DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                          nullptr);
    if (r.ok()) {
      EXPECT_EQ((*r)->rows(), 32u);
    }
    bytes[pos] = original;
  }
}

INSTANTIATE_TEST_SUITE_P(IndexFamilies, SegmentFormatFuzzTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq, IndexType::kHnsw,
                                           IndexType::kScann,
                                           IndexType::kAutoIndex));

TEST(SegmentFormatTest, RandomCorruptionNeverCrashes) {
  const std::vector<uint8_t> pristine =
      EncodeTestSegment(IndexType::kHnsw, 64, 8, true);
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.UniformInt(8));
    for (int f = 0; f < flips; ++f) {
      bytes[static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(bytes.size())))] =
          static_cast<uint8_t>(rng.UniformInt(256));
    }
    auto r = DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                               nullptr);
    if (r.ok()) {
      EXPECT_EQ((*r)->rows(), 64u);
    }
  }
}

TEST(SegmentFormatTest, WrongMetricIsRejected) {
  const std::vector<uint8_t> bytes =
      EncodeTestSegment(IndexType::kFlat, 32, 6, false);
  auto r = DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kL2, nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("metric"), std::string::npos);
}

// Version 1 files carried a seal-time tombstone section that no reader
// used; the version-2 decoder refuses them by their version field alone.
TEST(SegmentFormatTest, VersionOneImageIsRefused) {
  std::vector<uint8_t> bytes =
      EncodeTestSegment(IndexType::kFlat, 32, 6, false);
  ASSERT_TRUE(DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                                nullptr)
                  .ok());
  // The version is the little-endian u32 right after the magic.
  bytes[4] = 1;
  bytes[5] = bytes[6] = bytes[7] = 0;
  auto r = DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                             nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

// --------------------------------------------------------------------- WAL

/// The bytes of a fresh WAL file after `append` has written its records.
std::vector<uint8_t> WriteTestWal(
    const std::function<void(WalWriter*)>& append) {
  char tmpl[] = "/tmp/vdt_wal_fuzz_XXXXXX";
  const int fd = mkstemp(tmpl);
  EXPECT_GE(fd, 0);
  close(fd);
  const std::string path = tmpl;
  (void)RemoveFileIfExists(path);
  {
    auto writer = WalWriter::Open(path, WalSyncPolicy::kNone, nullptr);
    EXPECT_TRUE(writer.ok());
    append(writer->get());
  }
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  (void)RemoveFileIfExists(path);
  return *bytes;
}

std::vector<uint8_t> EncodeTestWal() {
  return WriteTestWal([](WalWriter* writer) {
    const FloatMatrix rows = RandomMatrix(10, 4, 9);
    EXPECT_TRUE(writer->AppendInsert(rows).ok());
    EXPECT_TRUE(writer->AppendDelete({1, 5, 9}).ok());
    SystemConfig sys;
    sys.cache_ratio = 0.5;
    EXPECT_TRUE(writer->AppendSystemOverride(sys).ok());
    IndexParams params;
    params.nprobe = 3;
    EXPECT_TRUE(writer->AppendSearchParams(params).ok());
    EXPECT_TRUE(writer->AppendCompact().ok());
  });
}

TEST(WalFormatTest, TruncationYieldsExactValidPrefix) {
  const std::vector<uint8_t> bytes = EncodeTestWal();
  auto full = DecodeWal(bytes.data(), bytes.size());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->records.size(), 5u);
  EXPECT_FALSE(full->torn_tail);
  EXPECT_EQ(full->valid_bytes, bytes.size());

  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DecodeWal(bytes.data(), len);
    if (len < 8) {
      // Shorter than the header: not a WAL at all.
      EXPECT_FALSE(r.ok()) << "len " << len;
      continue;
    }
    ASSERT_TRUE(r.ok()) << "len " << len;
    // A truncated log is a torn tail: fewer (never garbled) records, and
    // valid_bytes marks exactly where appending may resume.
    EXPECT_LE(r->records.size(), full->records.size());
    EXPECT_LE(r->valid_bytes, len);
    if (len < bytes.size()) {
      EXPECT_TRUE(r->torn_tail || r->valid_bytes == len) << "len " << len;
    }
    for (const WalRecord& rec : r->records) {
      EXPECT_GE(rec.type, WalRecord::kInsert);
      EXPECT_LE(rec.type, WalRecord::kCompact);
    }
  }
}

TEST(WalFormatTest, SingleByteCorruptionNeverCrashes) {
  std::vector<uint8_t> bytes = EncodeTestWal();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    const uint8_t original = bytes[pos];
    bytes[pos] ^= 0xA5;
    auto r = DecodeWal(bytes.data(), bytes.size());
    if (r.ok()) {
      // Corruption inside a record body trips its CRC -> torn tail before
      // that record; corruption in the header is a typed error instead.
      EXPECT_LE(r->records.size(), 5u);
    }
    bytes[pos] = original;
  }
}

TEST(WalFormatTest, RandomCorruptionNeverCrashes) {
  const std::vector<uint8_t> pristine = EncodeTestWal();
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.UniformInt(6));
    for (int f = 0; f < flips; ++f) {
      bytes[static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(bytes.size())))] =
          static_cast<uint8_t>(rng.UniformInt(256));
    }
    (void)DecodeWal(bytes.data(), bytes.size());
  }
}

// ---------------------------------------------------------------- manifest

ManifestData MakeTestManifest() {
  ManifestData m;
  m.options.name = "fuzz";
  m.options.metric = Metric::kAngular;
  m.options.system.num_shards = 2;
  m.dim = 8;
  m.next_id = 500;
  m.compactions = 3;
  m.next_segment_uid = 9;
  m.wal_epoch = 2;
  m.shards.resize(2);
  ManifestSegment seg;
  seg.uid = 4;
  seg.rows = 10;
  seg.deleted = 2;
  seg.tombstones.assign(10, 0);
  seg.tombstones[0] = seg.tombstones[7] = 1;
  m.shards[0].push_back(seg);
  seg.uid = 6;
  seg.deleted = 0;
  seg.tombstones.assign(10, 0);
  m.shards[1].push_back(seg);
  return m;
}

TEST(ManifestFormatTest, RoundTrip) {
  const ManifestData m = MakeTestManifest();
  std::vector<uint8_t> bytes;
  EncodeManifest(m, &bytes);
  auto r = DecodeManifest(bytes.data(), bytes.size());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->options.name, "fuzz");
  EXPECT_EQ(r->next_id, 500);
  EXPECT_EQ(r->next_segment_uid, 9u);
  EXPECT_EQ(r->wal_epoch, 2u);
  ASSERT_EQ(r->shards.size(), 2u);
  ASSERT_EQ(r->shards[0].size(), 1u);
  EXPECT_EQ(r->shards[0][0].uid, 4u);
  EXPECT_EQ(r->shards[0][0].deleted, 2u);
  EXPECT_EQ(r->shards[0][0].tombstones[7], 1);
}

TEST(ManifestFormatTest, EveryTruncationAndFlipIsRejected) {
  std::vector<uint8_t> bytes;
  EncodeManifest(MakeTestManifest(), &bytes);
  // The whole payload sits under one CRC, so every proper prefix and every
  // single-byte flip must be rejected outright — a manifest is either
  // bit-exact or refused (this is the commit point of the durability
  // protocol; "mostly right" is not a state it can have).
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeManifest(bytes.data(), len).ok()) << "len " << len;
  }
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    const uint8_t original = bytes[pos];
    bytes[pos] ^= 0x3C;
    EXPECT_FALSE(DecodeManifest(bytes.data(), bytes.size()).ok())
        << "flip at " << pos;
    bytes[pos] = original;
  }
}

TEST(ManifestFormatTest, RandomCorruptionNeverCrashes) {
  std::vector<uint8_t> pristine;
  EncodeManifest(MakeTestManifest(), &pristine);
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.UniformInt(6));
    for (int f = 0; f < flips; ++f) {
      bytes[static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(bytes.size())))] =
          static_cast<uint8_t>(rng.UniformInt(256));
    }
    (void)DecodeManifest(bytes.data(), bytes.size());
  }
}

// ------------------------------------------------------------ golden bytes

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (const uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

/// Nine distinct values, so a swapped or dropped IndexParams field changes
/// the bytes.
IndexParams DistinctIndexParams() {
  IndexParams p;
  p.nlist = 11;
  p.nprobe = 12;
  p.m = 13;
  p.nbits = 14;
  p.hnsw_m = 15;
  p.ef_construction = 16;
  p.ef = 17;
  p.reorder_k = 18;
  p.build_threads = 19;
  return p;
}

// Both on-disk homes of IndexParams (the manifest's collection options and
// the WAL's SearchParams record) are pinned byte for byte: a codec change
// that reorders, resizes or drops a field breaks every stored collection.
TEST(StorageGoldenBytesTest, ManifestAndSearchParamsRecord) {
  ManifestData m = MakeTestManifest();
  m.options.index.type = IndexType::kHnsw;
  m.options.index.params = DistinctIndexParams();
  std::vector<uint8_t> manifest;
  EncodeManifest(m, &manifest);
  EXPECT_EQ(Hex(manifest),
            "564d414e01000000b1118611040066757a7a020d000000000000000000000000"
            "008040b81e85eb51b8be3f0000000000003040000000000088b3402000000080"
            "000000333333333333d33f9a9999999999c93f02000000040b0000000c000000"
            "0d0000000e0000000f0000001000000011000000120000001300000000000000"
            "00807d40000000000000000001000000000000000800000000000000f4010000"
            "0000000003000000000000000900000000000000020000000000000002000000"
            "010000000000000004000000000000000a000000000000000200000000000000"
            "8100010000000000000006000000000000000a00000000000000000000000000"
            "00000000");

  const std::vector<uint8_t> wal = WriteTestWal([](WalWriter* writer) {
    EXPECT_TRUE(writer->AppendSearchParams(DistinctIndexParams()).ok());
  });
  // Header, then type 4, payload_len 36, CRC, and the nine fields as i32.
  EXPECT_EQ(Hex(wal),
            "5657414c010000000424000000116396d50b0000000c0000000d0000000e0000"
            "000f00000010000000110000001200000013000000");

  auto decoded = DecodeWal(wal.data(), wal.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->records.size(), 1u);
  EXPECT_EQ(decoded->records[0].type, WalRecord::kSearchParams);
}

}  // namespace
}  // namespace vdt
