// Mixed-operation workloads for the dynamic data lifecycle: seeded
// insert/delete/search timelines whose search ops carry exact ground truth
// recomputed against the rows *live* at that point in the timeline, plus a
// churn replay mode that drives a Collection through the timeline and
// scores it with the same deterministic cost model as static replay.
//
// This is the extension surface the ROADMAP's online/drift scenarios need:
// real VDBMS deployments ingest and delete while serving (segment-with-
// tombstone lifecycle), and update/delete/compaction paths are where vector
// databases historically break — so the oracle-backed timeline doubles as a
// correctness harness (tests/property_test.cc).
#ifndef VDTUNER_WORKLOAD_CHURN_H_
#define VDTUNER_WORKLOAD_CHURN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/replay.h"
#include "workload/workload.h"

namespace vdt {

/// The operation kinds of a mixed timeline.
enum class OpKind { kInsert, kDelete, kSearch };

/// One timeline step. Exactly the fields for its kind are meaningful.
struct ChurnOp {
  OpKind kind = OpKind::kSearch;
  // kInsert: insert rows [insert_begin, insert_end) of the base matrix
  // (collection ids equal base row ids because inserts walk the base in
  // order).
  size_t insert_begin = 0;
  size_t insert_end = 0;
  // kDelete: collection ids to tombstone.
  std::vector<int64_t> delete_ids;
  // kSearch: row of ChurnWorkload::queries, plus the exact top-k ids over
  // the rows live at this point (the brute-force live-set oracle).
  size_t query = 0;
  std::vector<int64_t> truth;
};

/// A replayable mixed-operation timeline.
struct ChurnWorkload {
  DatasetProfile profile = DatasetProfile::kGlove;
  /// Insert source; non-owning, must outlive the workload. Collection ids
  /// equal base row ids.
  const FloatMatrix* base = nullptr;
  FloatMatrix queries;
  size_t k = 10;
  int concurrency = 10;
  std::vector<ChurnOp> ops;

  size_t num_searches() const;
  size_t num_deletes() const;
};

/// Shape of a generated timeline.
struct ChurnSpec {
  size_t num_queries = 16;   // distinct query vectors (search ops cycle them)
  size_t k = 10;
  int concurrency = 10;
  /// Fraction of the base matrix ingested before the eventful phase.
  double initial_fraction = 0.5;
  /// Insert+delete+search rounds after the initial load; each round ingests
  /// an equal share of the remaining base rows.
  size_t rounds = 4;
  /// Fraction of live rows tombstoned per round.
  double delete_fraction = 0.15;
  size_t searches_per_round = 4;
};

/// Generates a seeded timeline over `data`: an initial bulk insert, then
/// `rounds` of (insert chunk, delete a random sample of live ids, search)
/// with every search op's ground truth brute-forced against the live set at
/// that point. Deterministic given (data, spec, seed).
ChurnWorkload MakeChurnWorkload(DatasetProfile profile, const FloatMatrix& data,
                                const ChurnSpec& spec, uint64_t seed);

/// Outcome of replaying one churn timeline against one collection.
struct ChurnReplayResult {
  bool failed = false;
  std::string fail_reason;

  double qps = 0.0;      // cost-model QPS over the timeline's search ops
  double recall = 0.0;   // mean live-set recall@k over search ops
  MemoryBreakdown memory;  // paper-scale projection of the *final* state
  double memory_gib = 0.0;

  WorkCounters work;     // aggregate search work
  size_t searches = 0;
  size_t rows_deleted = 0;     // rows newly tombstoned by the timeline
  size_t compactions = 0;      // segment rewrites triggered by the timeline
  double replay_seconds = 0.0;
};

/// Drives `collection` (typically empty) through `workload`'s timeline:
/// inserts feed the normal buffer/seal/build path, deletes tombstone and may
/// trigger inline compaction, and runs of consecutive search ops execute as
/// one deterministic batch (across options.executor, like ReplayWorkload)
/// with recall folded in op order — results are identical at any thread
/// width. Only ReplayMode::kCostModel is supported.
ChurnReplayResult ReplayChurn(Collection* collection,
                              const ChurnWorkload& workload,
                              const ReplayOptions& options);

}  // namespace vdt

#endif  // VDTUNER_WORKLOAD_CHURN_H_
