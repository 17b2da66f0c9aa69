// HNSW: Hierarchical Navigable Small World graph (Malkov & Yashunin, TPAMI
// 2018; paper Table I). Build parameters: M (graph degree), efConstruction
// (build beam width). Search parameter: ef (query beam width).
//
// Construction inserts nodes in fixed batches of 16, each in two passes
// spread over the build executor (or run inline when build_threads is 1).
// The first pass searches each node's candidates against the graph the
// earlier batches left and, in the same item, selects the node's own lists
// from them. The second adds the batch's back-links, grouped by the node
// whose lists they land in: each list takes its back-links in node order,
// and an item of the pass owns whole lists. Nodes of one batch do not link
// to each other, so every back-link lands in a list of an earlier batch's
// node and no two items touch one list; only the grouping and the
// entry-point update are serial. The graph is a function of (data, params,
// seed): build_threads sets only the build's speed.
//
// A back-link that overflows a list re-prunes it incrementally: each list
// carries build-only state (per link, the member's distance to the owner
// and whether the last selection pass kept it or which member pruned it),
// so a re-prune reuses the last pass's decisions and recomputes only the
// checks the new member can change. The graph is byte-identical to
// re-running the selection from scratch on every overflow. Every list is
// reserved once at its layer's max degree and never grows past it. The
// state takes 8 bytes per reserved slot: 16*M bytes per node at layer 0,
// twice the finished level-0 list. It is freed, and every list trimmed to
// its size, when Build returns.
#ifndef VDTUNER_INDEX_HNSW_INDEX_H_
#define VDTUNER_INDEX_HNSW_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "index/index.h"

namespace vdt {

class HnswIndex : public VectorIndex {
 public:
  HnswIndex(Metric metric, const IndexParams& params, uint64_t seed)
      : metric_(metric), params_(params), seed_(seed) {}

  Status Build(const FloatMatrix& data) override;
  /// Reads ef from `knobs` (null = the built params).
  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kHnsw; }
  size_t Size() const override { return data_ ? data_->rows() : 0; }

  /// Graph state: params, seed, entry point, per-node levels, level-0 and
  /// upper-layer adjacency. Restore validates every link target and the
  /// entry point against `data` before the graph is searchable.
  Status SerializeState(ByteWriter* writer) const override;
  Status RestoreState(ByteReader* reader, const FloatMatrix& data) override;

 private:
  /// Distance from `query` to node `id`, with work accounting.
  float Dist(const float* query, uint32_t id, WorkCounters* counters) const;

  /// Beam search within one layer starting from `entry`; returns up to `ef`
  /// nearest *live* nodes sorted by distance ascending. Tombstoned nodes
  /// (filter != null) are traversed — the graph stays connected through
  /// them — but never collected, so the beam keeps expanding until `ef`
  /// live nodes are found or the component is exhausted.
  std::vector<Neighbor> SearchLayer(const float* query, uint32_t entry,
                                    size_t ef, int level,
                                    const RowFilter* filter,
                                    WorkCounters* counters) const;

  /// Build-only per-link state (hnsw_index.cc).
  struct BuildState;
  /// Selection scratch of one build item (hnsw_index.cc).
  struct SelectionScratch;

  /// Malkov's diversity heuristic over `scratch`'s candidates (sorted by
  /// distance to `owner`, ties by id): keeps a candidate only if it is
  /// closer to the owner than to every neighbor kept before it, then
  /// backfills with pruned candidates, up to MaxDegree(level). Writes the
  /// result, kept run first, to (owner, level) and its per-link state, and
  /// touches no other list.
  void SelectLinks(BuildState* state, SelectionScratch* scratch,
                   uint32_t owner, int level);

  /// Adds `node` at `distance` to (owner, level): appends it while the list
  /// has room, else re-prunes the full list plus `node` from its per-link
  /// state.
  void LinkBack(BuildState* state, SelectionScratch* scratch, uint32_t owner,
                int level, uint32_t node, float distance);

  std::vector<uint32_t>& LinksAt(uint32_t node, int level);
  const std::vector<uint32_t>& LinksAt(uint32_t node, int level) const;

  /// Maximum degree at `level` (2M at level 0, M above).
  size_t MaxDegree(int level) const;

  Metric metric_;
  IndexParams params_;
  uint64_t seed_;
  const FloatMatrix* data_ = nullptr;

  int max_level_ = -1;
  uint32_t entry_ = 0;
  std::vector<int> node_level_;
  std::vector<std::vector<uint32_t>> links0_;  // level-0 adjacency
  // upper_[node][l-1] = adjacency of `node` at level l (l >= 1).
  std::vector<std::vector<std::vector<uint32_t>>> upper_;
};

}  // namespace vdt

#endif  // VDTUNER_INDEX_HNSW_INDEX_H_
