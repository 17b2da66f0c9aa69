// The tunable system parameters of the VDMS (paper §V-A tunes 7 system
// parameters recommended by the Milvus configuration documentation, plus the
// index type and 8 index parameters = 16 dimensions; this tree adds an 8th
// system knob, the compaction trigger ratio, for the dynamic-data
// extension).
#ifndef VDTUNER_VDMS_SYSTEM_CONFIG_H_
#define VDTUNER_VDMS_SYSTEM_CONFIG_H_

#include <string>

namespace vdt {

/// System-level knobs shared by every index type. Semantics mirror Milvus:
///  - segment_max_size_mb     dataCoord.segment.maxSize: capacity of one
///                            segment; a shard's growing tier seals at
///                            maxSize * seal_proportion (checked at its
///                            flush points).
///  - seal_proportion         dataCoord.segment.sealProportion.
///  - insert_buf_size_mb      dataNode.flush.insertBufSize: sets each
///                            shard's flush points (one per this many MB
///                            of rows routed to it), where its growing
///                            tier may seal; so it decides which rows each
///                            sealed segment gets. Unsealed rows are
///                            searched brute-force either way.
///  - graceful_time_ms        common.gracefulTime: bounded-staleness window;
///                            queries stall while the ingest clock lags by
///                            more than this.
///  - max_read_concurrency    queryNode.scheduler.maxReadConcurrency.
///  - build_index_threshold   sealed segments with fewer rows than this are
///                            scanned brute-force instead of being indexed
///                            (Milvus' growing/small-segment behaviour).
///  - cache_ratio             queryNode cache budget as a fraction of the
///                            collection size; misses pay a bandwidth
///                            penalty, residency costs memory.
///  - compaction_deleted_ratio  dataCoord.compaction singleCompaction
///                            deleted-rows proportion: a sealed segment
///                            whose tombstoned fraction *exceeds* this is
///                            rewritten from its live rows (k-means-family
///                            index filtered, others rebuilt).
///                            1.0 disables compaction (a ratio can never
///                            exceed it).
///  - num_shards              common.shardsNum: independent shards the
///                            collection scatters rows across by stable
///                            id-hash. Each shard is its own segment chain
///                            (growing -> sealed, with the per-shard
///                            thresholds above); searches fan out
///                            across shards and gather per-shard top-k
///                            through a deterministic (distance, id) merge.
///                            Layout-affecting (like segment_max_size_mb):
///                            fixed at collection creation, keyed by the
///                            evaluator's build cache, and never changed by
///                            OverrideRuntimeSystem. 1 = unsharded
///                            (bit-for-bit the pre-sharding behavior).
struct SystemConfig {
  double segment_max_size_mb = 512.0;
  double seal_proportion = 0.12;
  double insert_buf_size_mb = 16.0;
  double graceful_time_ms = 5000.0;
  int max_read_concurrency = 32;
  int build_index_threshold = 128;
  double cache_ratio = 0.30;
  double compaction_deleted_ratio = 0.2;
  int num_shards = 1;

  std::string ToString() const;
};

}  // namespace vdt

#endif  // VDTUNER_VDMS_SYSTEM_CONFIG_H_
