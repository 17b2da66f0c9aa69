// Concurrency tests for the engine's snapshot read model: N searcher
// threads run against live Insert/Delete/Compact/Flush/Drop traffic and
// must always observe a valid published snapshot — k live rows, sorted,
// never a row tombstoned before the search began, never freed memory. The
// churn test also runs durable, where each Flush writes segment files.
// This suite runs under the ASan/UBSan and TSan CI jobs; the sanitizers
// are the real assertions for the lifetime and data-race claims.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"
#include "vdms/vdms.h"

namespace vdt {
namespace {

using testing_util::RandomMatrix;
using testing_util::SearchOne;
using testing_util::TempDir;

constexpr size_t kDim = 8;

CollectionOptions ChurnyOptions(const std::string& name, size_t rows,
                                double compaction_ratio = 0.2) {
  CollectionOptions opts;
  opts.name = name;
  opts.metric = Metric::kAngular;
  opts.index.type = IndexType::kIvfFlat;
  opts.index.params.nlist = 8;
  opts.index.params.nprobe = 8;
  opts.scale.dataset_mb = 100.0;
  opts.scale.actual_rows = rows;
  opts.system.segment_max_size_mb = 100.0;
  opts.system.seal_proportion = 0.1;  // ~10 sealed segments per full load
  opts.system.insert_buf_size_mb = 2.5;
  opts.system.build_index_threshold = 32;
  opts.system.compaction_deleted_ratio = compaction_ratio;
  return opts;
}

/// Structural invariants every result must satisfy no matter which snapshot
/// served it: at most k rows, ids in [0, max_id), unique, sorted by
/// distance ascending.
void ValidateHits(const std::vector<Neighbor>& hits, size_t k,
                  int64_t max_id) {
  EXPECT_LE(hits.size(), k);
  std::set<int64_t> seen;
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_GE(hits[i].id, 0);
    EXPECT_LT(hits[i].id, max_id);
    EXPECT_TRUE(seen.insert(hits[i].id).second) << "duplicate id";
    if (i > 0) {
      EXPECT_LE(hits[i - 1].distance, hits[i].distance);
    }
  }
}

/// Runs in memory and durable: on a durable engine every Flush is a
/// checkpoint that encodes and writes the segments the searchers are
/// scanning.
class ChurnConcurrencyTest : public ::testing::TestWithParam<bool> {};

TEST_P(ChurnConcurrencyTest, SearchersSurviveInsertDeleteCompactFlush) {
  const size_t kRows = 600;
  const size_t kK = 5;
  const FloatMatrix data = RandomMatrix(kRows, kDim, 91);
  TempDir td;
  VdmsEngineOptions eopts;
  if (GetParam()) eopts.data_dir = td.path();
  VdmsEngine engine(eopts);
  ASSERT_TRUE(engine.CreateCollection(ChurnyOptions("churn", kRows)).ok());
  ASSERT_TRUE(engine.Insert("churn", data.Slice(0, kRows / 2)).ok());
  ASSERT_TRUE(engine.Flush("churn").ok());
  // Unsealed rows, so the snapshot the searchers pin holds growing chunks.
  size_t inserted = kRows / 2 + kRows / 24;
  ASSERT_TRUE(engine.Insert("churn", data.Slice(kRows / 2, inserted)).ok());
  auto handle = engine.Open("churn");
  ASSERT_TRUE(handle.ok());
  const auto pinned_before_writes = (*handle)->Snapshot();
  ASSERT_FALSE(pinned_before_writes->shards[0].growing.chunks.empty());

  std::atomic<bool> stop{false};
  std::atomic<size_t> searches{0};
  auto searcher = [&](uint64_t seed) {
    const FloatMatrix queries = RandomMatrix(8, kDim, seed);
    // A snapshot kept across the writer's Inserts, which share its growing
    // chunks until Flush seals them: re-searching it must keep returning
    // exactly what it returned the first time.
    const auto pinned = pinned_before_writes;
    const auto first = pinned->Search(SearchRequest::Batch(queries, kK));
    ASSERT_TRUE(first.ok());
    size_t q = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (q % queries.rows() == 0) {
        const auto again = pinned->Search(SearchRequest::Batch(queries, kK));
        ASSERT_TRUE(again.ok());
        for (size_t i = 0; i < queries.rows(); ++i) {
          ASSERT_EQ(again->top(i).size(), first->top(i).size());
          for (size_t j = 0; j < first->top(i).size(); ++j) {
            EXPECT_EQ(again->top(i)[j].id, first->top(i)[j].id);
            EXPECT_EQ(again->top(i)[j].distance, first->top(i)[j].distance);
          }
        }
      }
      const auto response = engine.Search(
          "churn",
          SearchRequest::Single(queries.Row(q++ % queries.rows()), kDim, kK));
      EXPECT_TRUE(response.ok());
      if (!response.ok()) return;
      ValidateHits(response->top(), kK, static_cast<int64_t>(kRows));
      // Snapshot-consistent stats ride with every response.
      EXPECT_EQ(response->stats.live_rows + response->stats.tombstoned_rows,
                response->stats.stored_rows);
      searches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) threads.emplace_back(searcher, 101 + t);

  // The writer drives the full mutation surface while searches run.
  for (size_t round = 0; round < 6; ++round) {
    const size_t end = std::min(kRows, inserted + kRows / 12);
    if (end > inserted) {
      EXPECT_TRUE(engine.Insert("churn", data.Slice(inserted, end)).ok());
      inserted = end;
    }
    std::vector<int64_t> victims;
    for (size_t v = round; v < inserted; v += 17) {
      victims.push_back(static_cast<int64_t>(v));
    }
    EXPECT_TRUE(engine.Delete("churn", victims).ok());
    EXPECT_TRUE(engine.Compact("churn").ok());
    EXPECT_TRUE(engine.Flush("churn").ok());
  }

  // On a loaded (or single-core) machine the writer can finish before the
  // searchers get scheduled; keep them running until some searches landed.
  while (searches.load(std::memory_order_relaxed) < 40) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(searches.load(), 0u);
  const auto stats = engine.GetStats("churn");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total_rows, kRows);
}

INSTANTIATE_TEST_SUITE_P(Storage, ChurnConcurrencyTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Durable" : "InMemory";
                         });

TEST(EngineConcurrencyTest, RowsTombstonedBeforeTheSearchNeverSurface) {
  const size_t kRows = 500;
  const int64_t kDeletedUpTo = 150;
  const FloatMatrix data = RandomMatrix(kRows, kDim, 92);
  VdmsEngine engine;
  ASSERT_TRUE(engine.CreateCollection(ChurnyOptions("tomb", kRows)).ok());
  ASSERT_TRUE(engine.Insert("tomb", data).ok());
  ASSERT_TRUE(engine.Flush("tomb").ok());

  // Synchronously tombstone [0, 150): every snapshot published from here on
  // excludes them, so no concurrent search may ever return one — snapshots
  // only move forward.
  std::vector<int64_t> victims;
  for (int64_t id = 0; id < kDeletedUpTo; ++id) victims.push_back(id);
  size_t deleted = 0;
  ASSERT_TRUE(engine.Delete("tomb", victims, &deleted).ok());
  ASSERT_EQ(deleted, static_cast<size_t>(kDeletedUpTo));

  std::atomic<bool> stop{false};
  std::atomic<size_t> searches{0};
  auto searcher = [&](uint64_t seed) {
    const FloatMatrix queries = RandomMatrix(8, kDim, seed);
    size_t q = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto response = engine.Search(
          "tomb",
          SearchRequest::Single(queries.Row(q++ % queries.rows()), kDim, 10));
      EXPECT_TRUE(response.ok());
      if (!response.ok()) return;
      for (const Neighbor& n : response->top()) {
        EXPECT_GE(n.id, kDeletedUpTo)
            << "row tombstoned before the search surfaced";
      }
      searches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 3; ++t) threads.emplace_back(searcher, 111 + t);

  // Concurrent deletes and compactions of *other* rows: older snapshots may
  // legally still return these, so the searchers only assert on [0, 150).
  for (int64_t id = kDeletedUpTo; id < kDeletedUpTo + 120; id += 3) {
    EXPECT_TRUE(engine.Delete("tomb", {id, id + 1}).ok());
  }
  EXPECT_TRUE(engine.Compact("tomb").ok());

  while (searches.load(std::memory_order_relaxed) < 30) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : threads) t.join();
}

TEST(EngineConcurrencyTest, InFlightSearchesFinishAcrossDrop) {
  const size_t kRows = 400;
  const FloatMatrix data = RandomMatrix(kRows, kDim, 93);
  VdmsEngine engine;
  ASSERT_TRUE(engine.CreateCollection(ChurnyOptions("gone", kRows)).ok());
  ASSERT_TRUE(engine.Insert("gone", data).ok());
  ASSERT_TRUE(engine.Flush("gone").ok());

  std::atomic<size_t> searches{0};
  auto searcher = [&](uint64_t seed) {
    const FloatMatrix queries = RandomMatrix(4, kDim, seed);
    size_t q = 0;
    while (true) {
      const auto response = engine.Search(
          "gone",
          SearchRequest::Single(queries.Row(q++ % queries.rows()), kDim, 3));
      if (!response.ok()) {
        // After the drop the only acceptable outcome is NotFound.
        EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
        return;
      }
      ValidateHits(response->top(), 3, static_cast<int64_t>(kRows));
      searches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) threads.emplace_back(searcher, 121 + t);

  // Let the searchers get going, then drop out from under them. No handles
  // are open, so the drop succeeds; in-flight searches finish on their own
  // reference and the collection is freed when the last one completes
  // (ASan/TSan verify the lifetime claim).
  while (searches.load(std::memory_order_relaxed) < 50) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(engine.DropCollection("gone").ok());
  for (auto& t : threads) t.join();
  EXPECT_FALSE(engine.HasCollection("gone"));
}

TEST(EngineConcurrencyTest, StatsStaySnapshotConsistentMidChurn) {
  const size_t kRows = 500;
  const FloatMatrix data = RandomMatrix(kRows, kDim, 94);
  VdmsEngine engine;
  // Compaction disabled: tombstones accumulate, so a torn read would show
  // stored != live + tombstoned.
  ASSERT_TRUE(
      engine.CreateCollection(ChurnyOptions("stats", kRows, 1.0)).ok());
  ASSERT_TRUE(engine.Insert("stats", data).ok());
  ASSERT_TRUE(engine.Flush("stats").ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto stats = engine.GetStats("stats");
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->live_rows + stats->tombstoned_rows,
                stats->stored_rows);
      EXPECT_LE(stats->live_rows, stats->total_rows);
      EXPECT_LE(stats->stored_rows, stats->total_rows);
      const auto memory = engine.GetMemory("stats");
      ASSERT_TRUE(memory.ok());
      EXPECT_GT(memory->TotalMb(), 0.0);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(reader);

  for (int64_t id = 0; id + 4 < static_cast<int64_t>(kRows); id += 5) {
    EXPECT_TRUE(engine.Delete("stats", {id, id + 1, id + 2}).ok());
  }

  while (reads.load(std::memory_order_relaxed) < 30) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const auto final_stats = engine.GetStats("stats");
  ASSERT_TRUE(final_stats.ok());
  EXPECT_GT(final_stats->tombstoned_rows, 0u);
}

TEST(EngineConcurrencyTest, HandleChurnRacesDropSafely) {
  const size_t kRows = 64;
  const FloatMatrix data = RandomMatrix(kRows, kDim, 95);
  VdmsEngine engine;
  ASSERT_TRUE(engine.CreateCollection(ChurnyOptions("held", kRows)).ok());
  ASSERT_TRUE(engine.Insert("held", data).ok());

  auto churner = [&](uint64_t seed) {
    const FloatMatrix queries = RandomMatrix(2, kDim, seed);
    for (int i = 0; i < 200; ++i) {
      Result<CollectionHandle> opened = engine.Open("held");
      if (!opened.ok()) return;  // already dropped: fine
      CollectionHandle handle = std::move(*opened);
      CollectionHandle copy = handle;  // copies count
      const auto hits = SearchOne(*copy, queries.Row(i % 2), 2, nullptr);
      EXPECT_LE(hits.size(), 2u);
      // Both handles release at scope exit.
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) threads.emplace_back(churner, 131 + t);

  // A dropper races the handle churn: every refusal must name a positive
  // live-handle count, and the drop must eventually succeed once the
  // churners are done.
  bool dropped = false;
  while (!dropped) {
    const Status st = engine.DropCollection("held");
    if (st.ok()) {
      dropped = true;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(st.ToString().find("live handle"), std::string::npos);
      std::this_thread::yield();
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(engine.HasCollection("held"));
}

}  // namespace
}  // namespace vdt
