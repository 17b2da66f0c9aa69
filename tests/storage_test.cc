// Persistence subsystem tests: restart parity (a collection sealed, flushed,
// mutated through the WAL, then reopened must return bit-identical Search
// and Stats to the never-restarted collection — for every index family and
// across a compaction boundary; after replayed filtered compactions the
// next checkpoint writes byte-identical segment files), the checkpoint
// write protocol (segment files are written only by the checkpoint that
// first names them; a failed write or WAL append changes nothing),
// kill-style crash recovery against the brute-force live-set oracle, engine
// data-dir handling, and typed refusal of foreign/corrupt on-disk state.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "storage/collection_store.h"
#include "storage/file_io.h"
#include "storage/manifest.h"
#include "tests/test_util.h"
#include "vdms/vdms.h"

namespace vdt {
namespace {

using testing_util::ClusteredMatrix;
using testing_util::FileSizeLimitGuard;
using testing_util::RandomMatrix;
using testing_util::SearchOne;
using testing_util::TempDir;

CollectionOptions ChurnOptions(IndexType type, size_t actual_rows,
                               uint64_t seed) {
  CollectionOptions opts;
  opts.name = "c";
  opts.metric = Metric::kAngular;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = actual_rows;
  opts.index.type = type;
  // Generous search effort: these tests probe persistence correctness, not
  // recall/speed tradeoffs.
  opts.index.params.nlist = 12;
  opts.index.params.nprobe = 12;
  opts.index.params.m = 8;
  opts.index.params.nbits = 8;
  opts.index.params.hnsw_m = 16;
  opts.index.params.ef_construction = 96;
  opts.index.params.ef = 96;
  opts.index.params.reorder_k = 120;
  // Layout: ~135-row sealed segments, ~36-row insert buffer, everything
  // above 32 rows indexed, compaction at >25% tombstoned, two shards.
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.15;
  opts.system.insert_buf_size_mb = 4.0;
  opts.system.build_index_threshold = 32;
  opts.system.compaction_deleted_ratio = 0.25;
  opts.system.num_shards = 2;
  opts.seed = seed;
  return opts;
}

void ExpectStatsEqual(const CollectionStats& a, const CollectionStats& b) {
  EXPECT_EQ(a.total_rows, b.total_rows);
  EXPECT_EQ(a.stored_rows, b.stored_rows);
  EXPECT_EQ(a.live_rows, b.live_rows);
  EXPECT_EQ(a.tombstoned_rows, b.tombstoned_rows);
  EXPECT_EQ(a.num_compactions, b.num_compactions);
  EXPECT_EQ(a.num_sealed_segments, b.num_sealed_segments);
  EXPECT_EQ(a.num_indexed_segments, b.num_indexed_segments);
  EXPECT_EQ(a.growing_rows, b.growing_rows);
  EXPECT_EQ(a.buffered_rows, b.buffered_rows);
  EXPECT_EQ(a.index_bytes_actual, b.index_bytes_actual);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].stored_rows, b.shards[s].stored_rows);
    EXPECT_EQ(a.shards[s].live_rows, b.shards[s].live_rows);
    EXPECT_EQ(a.shards[s].sealed_segments, b.shards[s].sealed_segments);
  }
}

// ------------------------------------------------------- restart parity

class RestartParityTest : public ::testing::TestWithParam<IndexType> {};

// The acceptance bar of the persistence subsystem: run a full lifecycle
// (seal, checkpointing flush, compaction-triggering deletes, a WAL tail of
// un-checkpointed inserts/deletes), record Search + Stats, tear the engine
// down, recover from disk, and demand *bit-identical* results — same ids,
// same float distances, same counters.
TEST_P(RestartParityTest, ReopenedCollectionIsBitIdentical) {
  const IndexType type = GetParam();
  const size_t n = 900, dim = 16, k = 10;
  const uint64_t seed = 77;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed);
  const FloatMatrix queries = ClusteredMatrix(12, dim, 10, 0.33, seed ^ 0x9);

  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();

  std::vector<std::vector<Neighbor>> expected;
  CollectionStats expected_stats;
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(engine.CreateCollection(ChurnOptions(type, n, seed)).ok());
    // Sealed history: 600 rows, flushed (checkpoint: manifest + segment
    // files, WAL rotated away).
    ASSERT_TRUE(engine.Insert("c", data.Slice(0, 600)).ok());
    ASSERT_TRUE(engine.Flush("c").ok());
    // Compaction boundary: a dense delete of the oldest rows pushes early
    // segments past the 25% trigger, so replay must also reproduce the
    // rewrites (and their rebuild seeds).
    std::vector<int64_t> doomed;
    for (int64_t id = 0; id < 150; ++id) doomed.push_back(id);
    ASSERT_TRUE(engine.Delete("c", doomed).ok());
    ASSERT_TRUE(engine.Flush("c").ok());
    // WAL tail: everything after this checkpoint lives only in the log —
    // inserts (buffer + growing + an inline seal), deletes, and whatever
    // compaction they trigger.
    ASSERT_TRUE(engine.Insert("c", data.Slice(600, 900)).ok());
    std::vector<int64_t> tail_doomed;
    for (int64_t id = 600; id < 660; ++id) tail_doomed.push_back(id);
    ASSERT_TRUE(engine.Delete("c", tail_doomed).ok());

    auto handle = engine.Open("c");
    ASSERT_TRUE(handle.ok());
    expected_stats = (*handle)->Stats();
    ASSERT_GT(expected_stats.num_compactions, 0u)
        << "test layout no longer crosses a compaction boundary";
    for (size_t q = 0; q < queries.rows(); ++q) {
      expected.push_back(SearchOne(**handle, queries.Row(q), k, nullptr));
    }
  }  // engine torn down: only the files remain

  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  auto handle = reopened.Open("c");
  ASSERT_TRUE(handle.ok());
  ExpectStatsEqual((*handle)->Stats(), expected_stats);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto got = SearchOne(**handle, queries.Row(q), k, nullptr);
    ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[q][i].id) << "query " << q << " rank " << i;
      // Bit-identical, not approximately equal: the restored collection
      // serves the same float bytes through the same index structures.
      EXPECT_EQ(got[i].distance, expected[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexTypes, RestartParityTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq, IndexType::kHnsw,
                                           IndexType::kScann,
                                           IndexType::kAutoIndex));

/// Every seg-<uid>.vseg file in `dir`, name -> bytes.
std::map<std::string, std::vector<uint8_t>> SegmentFiles(
    const std::string& dir) {
  std::map<std::string, std::vector<uint8_t>> files;
  auto names = ListDir(dir);
  EXPECT_TRUE(names.ok());
  if (!names.ok()) return files;
  for (const std::string& name : *names) {
    if (name.find(".vseg") == std::string::npos) continue;
    auto bytes = ReadFileBytes(dir + "/" + name);
    EXPECT_TRUE(bytes.ok()) << name;
    if (bytes.ok()) files[name] = std::move(*bytes);
  }
  return files;
}

class FilteredCompactionRestartTest
    : public ::testing::TestWithParam<IndexType> {};

// Chained filtered compactions across a restart. A sliding window of
// deletes over the oldest rows compacts each shard's first segment once
// before a checkpoint and twice more in the WAL tail, so replay filters an
// index restored from its segment file, then filters that copy again. The
// crashed engine leaves the tail only in its WAL (segment files are written
// at checkpoints), so after recovery searches and stats must be
// bit-identical, and the first checkpoint must write the same segment files
// as a crash-free engine's checkpoint at the same point in the history.
TEST_P(FilteredCompactionRestartTest, ReplayRegeneratesIdenticalFiles) {
  const IndexType type = GetParam();
  const size_t n = 900, dim = 16, k = 10;
  const uint64_t seed = 78;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed);
  const FloatMatrix queries = ClusteredMatrix(12, dim, 10, 0.33, seed ^ 0x9);
  auto window = [](int64_t begin, int64_t end) {
    std::vector<int64_t> ids;
    for (int64_t id = begin; id < end; ++id) ids.push_back(id);
    return ids;
  };
  // Two checkpoints, then a WAL tail: two more windows around a batch of
  // inserts (which seal new segments inline).
  std::map<std::string, std::vector<uint8_t>> checkpointed;
  auto run_history = [&](VdmsEngine& engine, const std::string& dir) {
    ASSERT_TRUE(engine.CreateCollection(ChurnOptions(type, n, seed)).ok());
    ASSERT_TRUE(engine.Insert("c", data.Slice(0, 600)).ok());
    ASSERT_TRUE(engine.Flush("c").ok());
    ASSERT_TRUE(engine.Delete("c", window(0, 80)).ok());
    ASSERT_TRUE(engine.Flush("c").ok());
    checkpointed = SegmentFiles(dir);
    ASSERT_TRUE(engine.Delete("c", window(80, 140)).ok());
    ASSERT_TRUE(engine.Insert("c", data.Slice(600, 900)).ok());
    ASSERT_TRUE(engine.Delete("c", window(140, 185)).ok());
  };

  // The crash-free reference: the same history, then the checkpoint.
  TempDir reference_td;
  VdmsEngineOptions reference_opts;
  reference_opts.data_dir = reference_td.path();
  const std::string reference_dir = reference_td.path() + "/c";
  std::map<std::string, std::vector<uint8_t>> reference_files;
  {
    VdmsEngine engine(reference_opts);
    run_history(engine, reference_dir);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(engine.Flush("c").ok());
    reference_files = SegmentFiles(reference_dir);
  }
  size_t written_by_checkpoint = 0;
  for (const auto& [name, bytes] : reference_files) {
    written_by_checkpoint += checkpointed.count(name) == 0 ? 1 : 0;
  }
  ASSERT_GT(written_by_checkpoint, 0u)
      << "the WAL tail no longer leaves segments for the checkpoint to write";

  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  const std::string dir = td.path() + "/c";
  std::vector<std::vector<Neighbor>> expected;
  CollectionStats expected_stats;
  {
    VdmsEngine engine(eopts);
    run_history(engine, dir);
    if (HasFatalFailure()) return;
    auto handle = engine.Open("c");
    ASSERT_TRUE(handle.ok());
    expected_stats = (*handle)->Stats();
    ASSERT_GE(expected_stats.num_compactions, 6u)
        << "test layout no longer chains three compactions per shard";
    for (const ShardView& shard : (*handle)->Snapshot()->shards) {
      ASSERT_TRUE(shard.sealed.front().segment->indexed())
          << "the last compaction no longer filters an index";
    }
    for (size_t q = 0; q < queries.rows(); ++q) {
      expected.push_back(SearchOne(**handle, queries.Row(q), k, nullptr));
    }
  }  // crashed: the tail lives only in the WAL

  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  auto handle = reopened.Open("c");
  ASSERT_TRUE(handle.ok());
  ExpectStatsEqual((*handle)->Stats(), expected_stats);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto got = SearchOne(**handle, queries.Row(q), k, nullptr);
    ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(got[i].distance, expected[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
  ASSERT_TRUE(reopened.Flush("c").ok());
  const auto written = SegmentFiles(dir);
  for (const auto& [name, bytes] : reference_files) {
    const auto it = written.find(name);
    ASSERT_NE(it, written.end()) << name << " was not written after replay";
    EXPECT_TRUE(it->second == bytes) << name << " differs after replay";
  }
  EXPECT_EQ(written.size(), reference_files.size());
}

INSTANTIATE_TEST_SUITE_P(KMeansFamily, FilteredCompactionRestartTest,
                         ::testing::Values(IndexType::kIvfFlat,
                                           IndexType::kIvfPq));

// ------------------------------------------ checkpoint write protocol

/// The segment uids the collection's committed MANIFEST names.
std::set<uint64_t> ManifestUids(const std::string& dir) {
  std::set<uint64_t> uids;
  auto bytes = ReadFileBytes(dir + "/MANIFEST");
  EXPECT_TRUE(bytes.ok());
  if (!bytes.ok()) return uids;
  auto manifest = DecodeManifest(bytes->data(), bytes->size());
  EXPECT_TRUE(manifest.ok());
  if (!manifest.ok()) return uids;
  for (const auto& shard : manifest->shards) {
    for (const ManifestSegment& seg : shard) uids.insert(seg.uid);
  }
  return uids;
}

std::string SegmentName(uint64_t uid) {
  return "seg-" + std::to_string(uid) + ".vseg";
}

// Segment files are written by the checkpoint that first names them, never
// at seal or compaction time: a window of deletes that compacts a shard's
// first segment three times leaves the directory's segment files untouched
// until the next Flush, which writes exactly the segments its manifest
// names. The intermediate rewrites never get a file.
TEST(CheckpointWriteTest, SegmentFilesAreWrittenOnlyByTheCheckpoint) {
  const size_t n = 600, dim = 16;
  const uint64_t seed = 79;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed);
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  const std::string dir = td.path() + "/c";

  VdmsEngine engine(eopts);
  ASSERT_TRUE(
      engine.CreateCollection(ChurnOptions(IndexType::kIvfFlat, n, seed)).ok());
  ASSERT_TRUE(engine.Insert("c", data).ok());
  ASSERT_TRUE(engine.Flush("c").ok());
  const auto checkpointed = SegmentFiles(dir);
  ASSERT_FALSE(checkpointed.empty());
  auto handle = engine.Open("c");
  ASSERT_TRUE(handle.ok());

  // Every uid shard 0's first segment takes, oldest first.
  std::vector<uint64_t> first_uids = {
      (*handle)->Snapshot()->shards[0].sealed.front().segment->storage_uid()};
  std::set<uint64_t> seen_uids;
  for (int64_t begin = 0; begin < 200; begin += 20) {
    std::vector<int64_t> ids;
    for (int64_t id = begin; id < begin + 20; ++id) ids.push_back(id);
    ASSERT_TRUE(engine.Delete("c", ids).ok());
    for (const ShardView& shard : (*handle)->Snapshot()->shards) {
      for (const SegmentView& view : shard.sealed) {
        seen_uids.insert(view.segment->storage_uid());
      }
    }
    const uint64_t uid =
        (*handle)->Snapshot()->shards[0].sealed.front().segment->storage_uid();
    if (uid != first_uids.back()) first_uids.push_back(uid);
    // Byte for byte: no file appears, changes, or goes away.
    EXPECT_TRUE(SegmentFiles(dir) == checkpointed)
        << "segment files changed before the checkpoint (window " << begin
        << ")";
  }
  ASSERT_GE(first_uids.size(), 4u)
      << "the delete window no longer compacts the first segment 3 times";

  ASSERT_TRUE(engine.Flush("c").ok());
  const std::set<uint64_t> named = ManifestUids(dir);
  std::set<std::string> expected_names;
  for (const uint64_t uid : named) expected_names.insert(SegmentName(uid));
  std::set<std::string> names;
  for (const auto& [name, bytes] : SegmentFiles(dir)) names.insert(name);
  EXPECT_EQ(names, expected_names);
  size_t intermediate = 0;
  for (const uint64_t uid : seen_uids) {
    if (named.count(uid) != 0) continue;
    ++intermediate;
    EXPECT_FALSE(PathExists(dir + "/" + SegmentName(uid)))
        << "a file exists for replaced segment " << uid;
  }
  EXPECT_GE(intermediate, 2u);
}

// A checkpoint whose segment write fails (here: the file-size limit, a
// disk-full stand-in) returns that error before the manifest is touched, so
// the previous root stays in force. The next Flush writes what is pending,
// and a reopened engine serves bit-identical results.
TEST(CheckpointWriteTest, FailedSegmentWriteKeepsTheOldRoot) {
  const size_t n = 900, dim = 16, k = 10;
  const uint64_t seed = 80;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed);
  const FloatMatrix queries = ClusteredMatrix(12, dim, 10, 0.33, seed ^ 0x9);
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  const std::string dir = td.path() + "/c";

  std::vector<std::vector<Neighbor>> expected;
  CollectionStats expected_stats;
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kIvfFlat, n, seed))
            .ok());
    ASSERT_TRUE(engine.Insert("c", data.Slice(0, 600)).ok());
    ASSERT_TRUE(engine.Flush("c").ok());
    std::vector<int64_t> doomed;
    for (int64_t id = 0; id < 100; ++id) doomed.push_back(id);
    ASSERT_TRUE(engine.Delete("c", doomed).ok());
    ASSERT_TRUE(engine.Insert("c", data.Slice(600, 900)).ok());
    const auto manifest = ReadFileBytes(dir + "/MANIFEST");
    ASSERT_TRUE(manifest.ok());
    const auto files = ListDir(dir);
    ASSERT_TRUE(files.ok());

    Status refused;
    {
      // Every segment file here is larger than 1 KiB.
      FileSizeLimitGuard guard(1024);
      ASSERT_TRUE(guard.active());
      refused = engine.Flush("c");
    }
    EXPECT_FALSE(refused.ok());
    EXPECT_NE(refused.message().find("File too large"), std::string::npos)
        << refused.ToString();
    const auto manifest_after = ReadFileBytes(dir + "/MANIFEST");
    ASSERT_TRUE(manifest_after.ok());
    EXPECT_TRUE(*manifest_after == *manifest) << "the manifest moved";
    const auto files_after = ListDir(dir);
    ASSERT_TRUE(files_after.ok());
    EXPECT_EQ(*files_after, *files) << "a file was left behind";

    ASSERT_TRUE(engine.Flush("c").ok());
    std::set<std::string> names;
    for (const auto& [name, bytes] : SegmentFiles(dir)) names.insert(name);
    std::set<std::string> expected_names;
    for (const uint64_t uid : ManifestUids(dir)) {
      expected_names.insert(SegmentName(uid));
    }
    EXPECT_EQ(names, expected_names);
    auto handle = engine.Open("c");
    ASSERT_TRUE(handle.ok());
    expected_stats = (*handle)->Stats();
    ASSERT_GT(expected_stats.num_compactions, 0u);
    for (size_t q = 0; q < queries.rows(); ++q) {
      expected.push_back(SearchOne(**handle, queries.Row(q), k, nullptr));
    }
  }

  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  auto handle = reopened.Open("c");
  ASSERT_TRUE(handle.ok());
  ExpectStatsEqual((*handle)->Stats(), expected_stats);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto got = SearchOne(**handle, queries.Row(q), k, nullptr);
    ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(got[i].distance, expected[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

// Write-ahead for the knob mutators: when the WAL refuses the record, the
// change is neither applied nor published, and a restart does not bring it
// back.
TEST(CheckpointWriteTest, RefusedKnobChangeIsNotApplied) {
  const size_t n = 500, dim = 12;
  const FloatMatrix data = ClusteredMatrix(n, dim, 8, 0.3, 5);
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  const CollectionOptions opts = ChurnOptions(IndexType::kIvfFlat, n, 5);
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(engine.CreateCollection(opts).ok());
    // Not flushed: the WAL already holds the rows, far beyond the limit
    // below, so any further append fails whole.
    ASSERT_TRUE(engine.Insert("c", data).ok());
    auto handle = engine.Open("c");
    ASSERT_TRUE(handle.ok());
    IndexParams tightened = opts.index.params;
    tightened.nprobe = 2;
    SystemConfig sys = opts.system;
    sys.compaction_deleted_ratio = 0.9;
    Status params_st, system_st;
    {
      FileSizeLimitGuard guard(4096);
      ASSERT_TRUE(guard.active());
      params_st = (*handle)->UpdateSearchParams(tightened);
      system_st = (*handle)->OverrideRuntimeSystem(sys);
    }
    EXPECT_FALSE(params_st.ok());
    EXPECT_FALSE(system_st.ok());
    const auto snap = (*handle)->Snapshot();
    EXPECT_EQ(snap->params.nprobe, opts.index.params.nprobe);
    EXPECT_DOUBLE_EQ(snap->system.compaction_deleted_ratio,
                     opts.system.compaction_deleted_ratio);
    EXPECT_EQ((*handle)->options().index.params.nprobe,
              opts.index.params.nprobe);
  }

  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  auto handle = reopened.Open("c");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->Stats().live_rows, n);
  const auto snap = (*handle)->Snapshot();
  EXPECT_EQ(snap->params.nprobe, opts.index.params.nprobe);
  EXPECT_DOUBLE_EQ(snap->system.compaction_deleted_ratio,
                   opts.system.compaction_deleted_ratio);
}

// Knob updates (search params, runtime system overrides) land in the WAL,
// so a reopened collection searches under the same knobs it crashed with.
TEST(StorageTest, KnobChangesSurviveRestart) {
  const size_t n = 500, dim = 12, k = 8;
  const FloatMatrix data = ClusteredMatrix(n, dim, 8, 0.3, 5);
  const FloatMatrix queries = ClusteredMatrix(6, dim, 8, 0.33, 6);

  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();

  std::vector<std::vector<Neighbor>> expected;
  IndexParams tightened;
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kIvfFlat, n, 5)).ok());
    ASSERT_TRUE(engine.Insert("c", data).ok());
    ASSERT_TRUE(engine.Flush("c").ok());
    auto handle = engine.Open("c");
    ASSERT_TRUE(handle.ok());
    tightened = (*handle)->options().index.params;
    tightened.nprobe = 2;  // deliberately lossy: results must still match
    ASSERT_TRUE((*handle)->UpdateSearchParams(tightened).ok());
    SystemConfig sys = (*handle)->options().system;
    sys.compaction_deleted_ratio = 0.9;
    ASSERT_TRUE((*handle)->OverrideRuntimeSystem(sys).ok());
    for (size_t q = 0; q < queries.rows(); ++q) {
      expected.push_back(SearchOne(**handle, queries.Row(q), k, nullptr));
    }
  }

  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  auto handle = reopened.Open("c");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->options().index.params.nprobe, tightened.nprobe);
  EXPECT_DOUBLE_EQ((*handle)->options().system.compaction_deleted_ratio, 0.9);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto got = SearchOne(**handle, queries.Row(q), k, nullptr);
    ASSERT_EQ(got.size(), expected[q].size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[q][i].id);
      EXPECT_EQ(got[i].distance, expected[q][i].distance);
    }
  }
}

// --------------------------------------------- crash-recovery vs oracle

/// Brute-force live-set mirror (same shape as property_test.cc's oracle:
/// shares no code path with the system under test).
class LiveSetOracle {
 public:
  LiveSetOracle(const FloatMatrix* data, Metric metric)
      : data_(data), metric_(metric), state_(data->rows(), 0) {}

  void Insert(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) state_[i] = 1;
  }
  void Delete(int64_t id) {
    if (id >= 0 && id < static_cast<int64_t>(state_.size())) state_[id] = 2;
  }
  std::vector<int64_t> LiveIds() const {
    std::vector<int64_t> ids;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == 1) ids.push_back(static_cast<int64_t>(i));
    }
    return ids;
  }
  std::vector<int64_t> TopK(const float* query, size_t k) const {
    std::vector<std::pair<float, int64_t>> scored;
    for (size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] != 1) continue;
      scored.emplace_back(
          Distance(metric_, query, data_->Row(i), data_->dim()),
          static_cast<int64_t>(i));
    }
    std::sort(scored.begin(), scored.end());
    if (scored.size() > k) scored.resize(k);
    std::vector<int64_t> ids;
    ids.reserve(scored.size());
    for (const auto& [d, id] : scored) ids.push_back(id);
    return ids;
  }

 private:
  const FloatMatrix* data_;
  Metric metric_;
  std::vector<uint8_t> state_;
};

// Seeded churn (inserts, deletes, a mid-stream checkpoint), then a
// kill-style abandon: the engine is destroyed with un-checkpointed WAL
// records outstanding and *no* final Flush. Recovery must reconstruct the
// exact live set — verified against the brute-force oracle with FLAT
// (exact) search.
TEST(StorageTest, KillStyleChurnRecoveryMatchesOracle) {
  const size_t n = 1200, dim = 12, k = 10;
  const uint64_t seed = 909;
  const FloatMatrix data = ClusteredMatrix(n, dim, 10, 0.3, seed);
  const FloatMatrix queries = ClusteredMatrix(10, dim, 10, 0.33, seed ^ 0x5);

  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  LiveSetOracle oracle(&data, Metric::kAngular);
  Rng rng(seed);

  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kFlat, n, seed)).ok());
    size_t pos = 0;
    size_t steps = 0;
    while (pos < n) {
      const size_t chunk =
          std::min(n - pos, 50 + static_cast<size_t>(rng.UniformInt(150)));
      ASSERT_TRUE(engine.Insert("c", data.Slice(pos, pos + chunk)).ok());
      oracle.Insert(pos, pos + chunk);
      pos += chunk;
      if (rng.Uniform() < 0.7) {
        auto live_ids = oracle.LiveIds();
        rng.Shuffle(&live_ids);
        live_ids.resize(static_cast<size_t>(
            static_cast<double>(live_ids.size()) * rng.Uniform(0.05, 0.2)));
        ASSERT_TRUE(engine.Delete("c", live_ids).ok());
        for (const int64_t id : live_ids) oracle.Delete(id);
      }
      // One mid-stream checkpoint, so recovery exercises manifest-sealed
      // state *and* a WAL tail on top of it.
      if (++steps == 3) {
        ASSERT_TRUE(engine.Flush("c").ok());
      }
    }
  }  // killed: no final Flush, WAL tail outstanding

  VdmsEngine engine(eopts);
  ASSERT_TRUE(engine.Open().ok());
  auto handle = engine.Open("c");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->Stats().live_rows, oracle.LiveIds().size());
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto got = SearchOne(**handle, queries.Row(q), k, nullptr);
    const auto expected = oracle.TopK(queries.Row(q), k);
    ASSERT_EQ(got.size(), expected.size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i]) << "query " << q << " rank " << i;
    }
  }
}

// ------------------------------------------------- engine dir handling

TEST(StorageTest, OpenRequiresDataDir) {
  VdmsEngine engine;
  const Status st = engine.Open();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(StorageTest, OpenOnEmptyDirRecoversNothing) {
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path() + "/fresh";  // not yet created
  VdmsEngine engine(eopts);
  ASSERT_TRUE(engine.Open().ok());
  EXPECT_TRUE(engine.ListCollections().empty());
}

TEST(StorageTest, UnstorableCollectionNameIsRejected) {
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  VdmsEngine engine(eopts);
  CollectionOptions opts;
  for (const char* name : {"", "a/b", "..", "a b"}) {
    opts.name = name;
    const Status st = engine.CreateCollection(opts);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "'" << name << "'";
  }
  // In-memory engines keep accepting arbitrary names.
  VdmsEngine loose;
  opts.name = "a/b";
  EXPECT_TRUE(loose.CreateCollection(opts).ok());
}

TEST(StorageTest, DropCollectionRemovesDirectory) {
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  {
    VdmsEngine engine(eopts);
    CollectionOptions opts = ChurnOptions(IndexType::kFlat, 100, 1);
    ASSERT_TRUE(engine.CreateCollection(opts).ok());
    ASSERT_TRUE(PathExists(td.path() + "/c/MANIFEST"));
    ASSERT_TRUE(engine.DropCollection("c").ok());
    EXPECT_FALSE(PathExists(td.path() + "/c"));
  }
  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_TRUE(reopened.ListCollections().empty());
}

TEST(StorageTest, RecoveredNameCollidesWithCreate) {
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kFlat, 100, 1)).ok());
  }
  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  const Status st =
      reopened.CreateCollection(ChurnOptions(IndexType::kFlat, 100, 1));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

// --------------------------------------------- typed corruption refusal

TEST(StorageTest, ForeignManifestRefusesStartup) {
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  ASSERT_TRUE(EnsureDir(td.path() + "/c").ok());
  const std::string garbage = "definitely not a VMAN manifest";
  ASSERT_TRUE(AtomicWriteFile(td.path() + "/c/MANIFEST",
                              std::vector<uint8_t>(garbage.begin(),
                                                   garbage.end()))
                  .ok());
  VdmsEngine engine(eopts);
  const Status st = engine.Open();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("manifest"), std::string::npos);
}

TEST(StorageTest, RelocatedManifestRefusesStartup) {
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kFlat, 100, 1)).ok());
  }
  // A valid store copied under the wrong directory name is someone else's
  // data: refuse rather than serve it under either name.
  ASSERT_EQ(std::rename((td.path() + "/c").c_str(),
                        (td.path() + "/not_c").c_str()),
            0);
  VdmsEngine engine(eopts);
  const Status st = engine.Open();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("foreign"), std::string::npos);
}

TEST(StorageTest, CorruptSegmentFileRefusesStartup) {
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kIvfFlat, 400, 3))
            .ok());
    const FloatMatrix data = RandomMatrix(400, 8, 3);
    ASSERT_TRUE(engine.Insert("c", data).ok());
    ASSERT_TRUE(engine.Flush("c").ok());
  }
  // Flip one byte in the middle of the first segment file.
  auto names = ListDir(td.path() + "/c");
  ASSERT_TRUE(names.ok());
  std::string victim;
  for (const std::string& name : *names) {
    if (name.find(".vseg") != std::string::npos) {
      victim = td.path() + "/c/" + name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  auto bytes = ReadFileBytes(victim);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0xFF;
  ASSERT_TRUE(AtomicWriteFile(victim, *bytes).ok());

  VdmsEngine engine(eopts);
  const Status st = engine.Open();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

/// The path of the live WAL in collection dir `dir` ("" when none).
std::string WalFileIn(const std::string& dir) {
  const auto names = ListDir(dir);
  if (!names.ok()) return "";
  for (const std::string& name : *names) {
    if (name.find(".vwal") != std::string::npos) return dir + "/" + name;
  }
  return "";
}

// A WAL append that fails part-way (the file-size limit, a disk-full
// stand-in, cuts the record short) is cut back out of the log before the
// error returns. The log stays a valid prefix, so an insert acknowledged
// after the refusal survives a restart instead of sitting behind a tear
// that replay stops at.
TEST(StorageTest, FailedWalAppendKeepsTheLogAValidPrefix) {
  const size_t dim = 16, k = 10;
  const FloatMatrix data = RandomMatrix(200, dim, 23);
  const FloatMatrix queries = RandomMatrix(8, dim, 24);
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  eopts.wal_sync = WalSyncPolicy::kEveryRecord;
  std::vector<std::vector<Neighbor>> expected;
  CollectionStats expected_stats;
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kFlat, 200, 23)).ok());
    ASSERT_TRUE(engine.Insert("c", data.Slice(0, 100)).ok());
    const std::string wal = WalFileIn(td.path() + "/c");
    ASSERT_FALSE(wal.empty());
    const auto before = ReadFileBytes(wal);
    ASSERT_TRUE(before.ok());

    Status refused;
    {
      // Room for part of the 50-row record, not all of it.
      FileSizeLimitGuard guard(before->size() + 1000);
      ASSERT_TRUE(guard.active());
      refused = engine.Insert("c", data.Slice(100, 150));
    }
    EXPECT_FALSE(refused.ok());
    EXPECT_NE(refused.message().find("File too large"), std::string::npos)
        << refused.ToString();
    const auto after = ReadFileBytes(wal);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(*after == *before) << "the refused record stayed in the WAL";

    ASSERT_TRUE(engine.Insert("c", data.Slice(150, 200)).ok());
    const auto stats = engine.GetStats("c");
    ASSERT_TRUE(stats.ok());
    expected_stats = *stats;
    EXPECT_EQ(expected_stats.live_rows, 150u);
    const auto response = engine.Search("c", SearchRequest::Batch(queries, k));
    ASSERT_TRUE(response.ok());
    expected = response->neighbors;
  }

  VdmsEngine reopened(eopts);
  ASSERT_TRUE(reopened.Open().ok());
  const auto stats = reopened.GetStats("c");
  ASSERT_TRUE(stats.ok());
  ExpectStatsEqual(*stats, expected_stats);
  const auto response = reopened.Search("c", SearchRequest::Batch(queries, k));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->neighbors.size(), expected.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    const auto& got = response->neighbors[q];
    ASSERT_EQ(got.size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(got[i].distance, expected[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(StorageTest, TornWalTailIsTruncatedAndRecovered) {
  const size_t n = 300, dim = 8, k = 5;
  const FloatMatrix data = RandomMatrix(n, dim, 11);
  TempDir td;
  VdmsEngineOptions eopts;
  eopts.data_dir = td.path();
  std::vector<Neighbor> expected;
  {
    VdmsEngine engine(eopts);
    ASSERT_TRUE(
        engine.CreateCollection(ChurnOptions(IndexType::kFlat, n, 11)).ok());
    ASSERT_TRUE(engine.Insert("c", data).ok());  // WAL only, never flushed
    auto handle = engine.Open("c");
    ASSERT_TRUE(handle.ok());
    expected = SearchOne(**handle, data.Row(0), k, nullptr);
  }
  // A torn final record: garbage bytes appended mid-write by the "crash".
  auto names = ListDir(td.path() + "/c");
  ASSERT_TRUE(names.ok());
  std::string wal;
  for (const std::string& name : *names) {
    if (name.find(".vwal") != std::string::npos) wal = td.path() + "/c/" + name;
  }
  ASSERT_FALSE(wal.empty());
  auto bytes = ReadFileBytes(wal);
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> torn = *bytes;
  torn.push_back(2);  // a Delete type byte with a nonsense frame behind it
  torn.push_back(0xAB);
  torn.push_back(0xCD);
  ASSERT_TRUE(AtomicWriteFile(wal, torn).ok());

  VdmsEngine engine(eopts);
  ASSERT_TRUE(engine.Open().ok());
  auto handle = engine.Open("c");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->Stats().live_rows, n);
  const auto got = SearchOne(**handle, data.Row(0), k, nullptr);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id);
    EXPECT_EQ(got[i].distance, expected[i].distance);
  }
}

}  // namespace
}  // namespace vdt
