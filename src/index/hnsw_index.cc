#include "index/hnsw_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <queue>
#include <string>

#include "common/parallel_executor.h"
#include "index/index_io.h"
#include "index/topk.h"

namespace vdt {

namespace {
/// Nodes whose candidate searches run against one graph snapshot, side by
/// side on the build executor or inline without one. Fixed (never derived
/// from the executor width) so the built graph is identical for any thread
/// count; nodes within one batch do not see each other. A batch's back-links
/// are applied in at most this many items too.
constexpr size_t kBuildBatch = 16;

/// Outcome of the last selection pass over a list, per member: kept, not
/// examined (appended since that pass), or — any other value — pruned by
/// that member, which the same pass kept.
constexpr uint32_t kKept = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kUnexamined = kKept - 1;

/// A selection candidate, ordered like Neighbor: by distance to the list
/// owner, ties by id.
struct Candidate {
  float distance;
  uint32_t id;
  uint32_t outcome;  // of the last pass that examined it

  bool operator<(const Candidate& other) const {
    return distance < other.distance ||
           (distance == other.distance && id < other.id);
  }
};

/// A back-link of a batch: `node` joins list (owner, level) at `distance`.
struct BackLink {
  uint32_t owner;
  int level;
  uint32_t node;
  float distance;
};
}  // namespace

/// Slot s of list (node, level) describes LinksAt(node, level)[s]: the
/// member's distance to the owner and its last outcome. Each list owns
/// MaxDegree(level) slots, as many as it can hold.
struct HnswIndex::BuildState {
  struct Link {
    float distance;
    uint32_t outcome;
  };

  BuildState(const std::vector<int>& node_level, size_t max_degree0,
             size_t max_degree)
      : slots0(max_degree0), slots(max_degree), first(node_level.size()) {
    size_t total = 0;
    for (size_t i = 0; i < node_level.size(); ++i) {
      first[i] = total;
      total += slots0 + static_cast<size_t>(node_level[i]) * slots;
    }
    links.resize(total);
  }

  Link* At(uint32_t node, int level) {
    return &links[first[node] +
                  (level == 0 ? 0 : slots0 + (level - 1) * slots)];
  }

  size_t slots0;              // per level-0 list
  size_t slots;               // per upper-layer list
  std::vector<size_t> first;  // per node: its level-0 list's first slot
  std::vector<Link> links;
};

/// Reused across the selections of one build item. The executor does not
/// say which thread runs an item, so a pass's item r uses scratch r; no
/// pass has more than kBuildBatch items. Aligned to a cache line, since
/// items on different threads grow their scratches' vectors side by side.
struct alignas(64) HnswIndex::SelectionScratch {
  explicit SelectionScratch(size_t nodes) : kept(nodes, 0) {}

  std::vector<Candidate> candidates;
  std::vector<Candidate> merged;
  std::vector<Candidate> pruned;
  std::vector<uint32_t> fresh;  // kept by this pass but not by the last one
  std::vector<uint8_t> kept;    // per node: kept so far by this pass
};

float HnswIndex::Dist(const float* query, uint32_t id,
                      WorkCounters* counters) const {
  if (counters != nullptr) ++counters->full_distance_evals;
  return Distance(metric_, query, data_->Row(id), data_->dim());
}

size_t HnswIndex::MaxDegree(int level) const {
  const size_t m = static_cast<size_t>(std::max(2, params_.hnsw_m));
  return level == 0 ? 2 * m : m;
}

std::vector<uint32_t>& HnswIndex::LinksAt(uint32_t node, int level) {
  if (level == 0) return links0_[node];
  return upper_[node][level - 1];
}

const std::vector<uint32_t>& HnswIndex::LinksAt(uint32_t node,
                                                int level) const {
  if (level == 0) return links0_[node];
  return upper_[node][level - 1];
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query,
                                             uint32_t entry, size_t ef,
                                             int level,
                                             const RowFilter* filter,
                                             WorkCounters* counters) const {
  const size_t dim = data_->dim();
  std::vector<uint8_t> visited(data_->rows(), 0);

  // Min-heap of frontier candidates; bounded max-heap of results.
  struct FurthestFirst {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return b < a;  // invert: the top of the heap is the nearest candidate
    }
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, FurthestFirst> frontier;
  TopKCollector results(ef);

  const float d0 = Dist(query, entry, counters);
  frontier.push({static_cast<int64_t>(entry), d0});
  if (RowIsLive(filter, entry)) results.Offer(entry, d0);
  visited[entry] = 1;

  // Expansion scratch, reused across hops: the unvisited neighbors of one
  // node, their rows gathered into a contiguous block, and one one-to-many
  // scan over it. Processing order stays link order, so results (and the
  // visited-set evolution) are identical to the per-row loop; the distance
  // values are too, by kernel block-invariance.
  std::vector<uint32_t> expand;
  std::vector<float> gathered;
  std::vector<float> expand_dist;

  while (!frontier.empty()) {
    const Neighbor cur = frontier.top();
    frontier.pop();
    if (results.Full() && cur.distance > results.WorstDistance()) break;
    if (counters != nullptr) ++counters->graph_hops;

    const std::vector<uint32_t>& links =
        LinksAt(static_cast<uint32_t>(cur.id), level);
    expand.clear();
    for (uint32_t next : links) {
      if (visited[next]) continue;
      visited[next] = 1;
      expand.push_back(next);
    }
    if (expand.empty()) continue;
    gathered.resize(expand.size() * dim);
    for (size_t j = 0; j < expand.size(); ++j) {
      std::copy_n(data_->Row(expand[j]), dim, &gathered[j * dim]);
    }
    expand_dist.resize(expand.size());
    DistanceBatch(metric_, query, gathered.data(), dim, expand.size(),
                  expand_dist.data());
    if (counters != nullptr) counters->full_distance_evals += expand.size();

    for (size_t j = 0; j < expand.size(); ++j) {
      const uint32_t next = expand[j];
      const float d = expand_dist[j];
      if (!results.Full() || d < results.WorstDistance()) {
        // Tombstoned nodes stay on the frontier (they route the beam) but
        // never enter the results, which is the internal over-fetch: an
        // unfilled result heap keeps the expansion going.
        frontier.push({static_cast<int64_t>(next), d});
        if (RowIsLive(filter, next)) results.Offer(next, d);
      }
    }
  }
  return results.Take();
}

void HnswIndex::SelectLinks(BuildState* state, SelectionScratch* scratch,
                            uint32_t owner, int level) {
  const size_t max_m = MaxDegree(level);
  const size_t dim = data_->dim();
  // The first of `among` closer to `c` than the owner is, or kKept.
  auto pruned_by = [&](const Candidate& c,
                       const std::vector<uint32_t>& among) {
    const float* row = data_->Row(c.id);
    for (uint32_t s : among) {
      if (Distance(metric_, row, data_->Row(s), dim) < c.distance) return s;
    }
    return kKept;
  };

  // A pruned candidate never changes another's decision, so the last pass's
  // decisions carry over: a member it kept can only be pruned by a member
  // this pass keeps and it did not; one it pruned stays pruned while its
  // pruner is kept. Everything else gets the full check.
  std::vector<uint32_t>& links = LinksAt(owner, level);
  BuildState::Link* slots = state->At(owner, level);
  links.clear();
  scratch->fresh.clear();
  scratch->pruned.clear();
  for (const Candidate& c : scratch->candidates) {
    if (links.size() >= max_m) break;
    uint32_t outcome;
    if (c.outcome == kKept) {
      outcome = pruned_by(c, scratch->fresh);
    } else if (c.outcome != kUnexamined && scratch->kept[c.outcome] != 0) {
      outcome = c.outcome;
    } else {
      outcome = pruned_by(c, links);
    }
    if (outcome != kKept) {
      scratch->pruned.push_back({c.distance, c.id, outcome});
      continue;
    }
    if (c.outcome != kKept) scratch->fresh.push_back(c.id);
    scratch->kept[c.id] = 1;
    slots[links.size()] = {c.distance, kKept};
    links.push_back(c.id);
  }
  for (uint32_t id : links) scratch->kept[id] = 0;
  for (const Candidate& p : scratch->pruned) {
    if (links.size() >= max_m) break;
    slots[links.size()] = {p.distance, p.outcome};
    links.push_back(p.id);
  }
}

void HnswIndex::LinkBack(BuildState* state, SelectionScratch* scratch,
                         uint32_t owner, int level, uint32_t node,
                         float distance) {
  std::vector<uint32_t>& links = LinksAt(owner, level);
  BuildState::Link* slots = state->At(owner, level);
  if (links.size() < MaxDegree(level)) {
    slots[links.size()] = {distance, kUnexamined};
    links.push_back(node);
    return;
  }

  // Overflow: the full list plus the new member, at the distances already
  // recorded, go through the selection again.
  std::vector<Candidate>& cands = scratch->candidates;
  cands.clear();
  for (size_t s = 0; s < links.size(); ++s) {
    cands.push_back({slots[s].distance, links[s], slots[s].outcome});
  }
  // A finished pass left its kept run, then its backfilled run, each in
  // order, so merging the two and placing the new member sorts the list.
  // Members appended before the list first overflowed are unordered and
  // need a sort. Sorting on every overflow instead costs 1.3x the build
  // time at M=16 and 2.5x at M=64 (48-d rows, AVX-512).
  const Candidate added{distance, node, kUnexamined};
  const auto kept_end =
      std::find_if(cands.begin(), cands.end(),
                   [](const Candidate& c) { return c.outcome != kKept; });
  const bool ordered =
      std::none_of(kept_end, cands.end(), [](const Candidate& c) {
        return c.outcome == kUnexamined;
      });
  if (ordered) {
    std::vector<Candidate>& merged = scratch->merged;
    merged.clear();
    std::merge(cands.begin(), kept_end, kept_end, cands.end(),
               std::back_inserter(merged));
    merged.insert(std::upper_bound(merged.begin(), merged.end(), added),
                  added);
    cands.swap(merged);
  } else {
    cands.push_back(added);
    std::sort(cands.begin(), cands.end());
  }
  SelectLinks(state, scratch, owner, level);
}

Status HnswIndex::Build(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("HNSW build: empty data");
  if (params_.hnsw_m < 2 || params_.hnsw_m > 512) {
    return Status::InvalidArgument("HNSW build: M out of range [2, 512] (got " +
                                   std::to_string(params_.hnsw_m) + ")");
  }
  if (params_.ef_construction < 8) {
    return Status::InvalidArgument(
        "HNSW build: efConstruction must be >= 8 (got " +
        std::to_string(params_.ef_construction) + ")");
  }
  // Node ids are 32-bit, and the build reserves the top two as outcomes.
  if (data.rows() >= kUnexamined) {
    return Status::InvalidArgument("HNSW build: too many rows (got " +
                                   std::to_string(data.rows()) + ")");
  }
  data_ = &data;
  const size_t n = data.rows();

  ParallelExecutor* executor = ResolveBuildExecutor(params_.build_threads);

  // Exponentially distributed level draws, up front: levels are the build's
  // only random draws, so this is the same stream the per-node draw used.
  Rng rng(seed_);
  const double mult = 1.0 / std::log(static_cast<double>(params_.hnsw_m));
  node_level_.assign(n, 0);
  links0_.assign(n, {});
  upper_.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    while (u <= 1e-300) u = rng.Uniform();
    const int level = static_cast<int>(std::floor(-std::log(u) * mult));
    node_level_[i] = level;
    upper_[i].assign(static_cast<size_t>(level), {});
    // A list never holds more than its max degree (an overflowing back-link
    // is re-pruned before it lands), so this is its only allocation.
    links0_[i].reserve(MaxDegree(0));
    for (auto& links : upper_[i]) links.reserve(MaxDegree(1));
  }

  // First node becomes the entry point.
  entry_ = 0;
  max_level_ = node_level_[0];
  BuildState state(node_level_, MaxDegree(0), MaxDegree(1));
  std::vector<SelectionScratch> scratch(kBuildBatch, SelectionScratch(n));
  // Pass 2's grouping, reused across batches. group_of[node] is 1 + the
  // index of node's group among the batch's back-link owners, or 0.
  std::vector<uint32_t> group_of(n, 0);
  std::vector<uint32_t> owners;  // per group, by first back-link
  std::vector<size_t> group_end;  // per group: count, then start, then end
  std::vector<BackLink> emitted, back_links;
  std::vector<size_t> runs;  // run r applies back_links[runs[r], runs[r+1])

  const size_t ef_c = static_cast<size_t>(params_.ef_construction);
  for (size_t batch_begin = 1; batch_begin < n; batch_begin += kBuildBatch) {
    const size_t batch_end = std::min(n, batch_begin + kBuildBatch);
    const size_t batch_n = batch_end - batch_begin;

    // Pass 1, per node: its candidates at every level it joins, searched in
    // the graph of the earlier batches (no one writes those lists until
    // pass 2), and its own lists selected from them. A node's own selection
    // reads only its candidates, and nothing reaches a batch node before
    // pass 2, so its lists are final here.
    auto insert_node = [&](size_t j) {
      const uint32_t i = static_cast<uint32_t>(batch_begin + j);
      SelectionScratch& own = scratch[j];
      const float* q = data.Row(i);
      const int level = node_level_[i];
      uint32_t ep = entry_;

      // Greedy descent through layers above the node's level.
      for (int lc = max_level_; lc > level; --lc) {
        bool improved = true;
        float d_ep = Dist(q, ep, nullptr);
        while (improved) {
          improved = false;
          for (uint32_t nb : LinksAt(ep, lc)) {
            const float d = Dist(q, nb, nullptr);
            if (d < d_ep) {
              d_ep = d;
              ep = nb;
              improved = true;
            }
          }
        }
      }

      for (int lc = std::min(level, max_level_); lc >= 0; --lc) {
        const std::vector<Neighbor> nearest =
            SearchLayer(q, ep, ef_c, lc, nullptr, nullptr);
        if (!nearest.empty()) ep = static_cast<uint32_t>(nearest.front().id);
        own.candidates.clear();
        for (const Neighbor& nb : nearest) {
          own.candidates.push_back(
              {nb.distance, static_cast<uint32_t>(nb.id), kUnexamined});
        }
        SelectLinks(&state, &own, i, lc);
      }
    };
    ParallelForOrInline(executor, batch_n, insert_node);

    // Pass 2: bidirectional connections with degree-bounded pruning. Each
    // neighbor gets the distance this node's search measured: the kernels
    // are symmetric, so it is the distance a fresh call from the
    // neighbor's side would return, bit for bit. Every owner is a node of
    // an earlier batch and a re-prune touches only its own list, so the
    // lists are independent. The back-links are counted into one group per
    // owner (in the order owners first appear), which keeps each list's
    // back-links in node order, and each item applies a run of whole
    // groups of about equal length in back-links. Sorting by list instead
    // took 4 ms, all serial, of a 100 ms 2-thread build of 2,560 x 48 rows
    // at M=16, efC=128 (AVX-512 Xeon); the counting takes under 1 ms.
    emitted.clear();
    owners.clear();
    group_end.clear();
    for (size_t i = batch_begin; i < batch_end; ++i) {
      for (int lc = std::min(node_level_[i], max_level_); lc >= 0; --lc) {
        const std::vector<uint32_t>& neighbors =
            LinksAt(static_cast<uint32_t>(i), lc);
        const BuildState::Link* slots =
            state.At(static_cast<uint32_t>(i), lc);
        for (size_t s = 0; s < neighbors.size(); ++s) {
          const uint32_t owner = neighbors[s];
          if (group_of[owner] == 0) {
            owners.push_back(owner);
            group_end.push_back(0);
            group_of[owner] = static_cast<uint32_t>(owners.size());
          }
          ++group_end[group_of[owner] - 1];
          emitted.push_back({owner, lc, static_cast<uint32_t>(i),
                             slots[s].distance});
        }
      }
    }
    // Counts become starts; the scatter then moves each start to its end.
    size_t start = 0;
    for (size_t& end : group_end) {
      const size_t count = end;
      end = start;
      start += count;
    }
    back_links.resize(emitted.size());
    for (const BackLink& link : emitted) {
      back_links[group_end[group_of[link.owner] - 1]++] = link;
    }
    for (uint32_t owner : owners) group_of[owner] = 0;
    const size_t run_length =
        (back_links.size() + kBuildBatch - 1) / kBuildBatch;
    runs.assign(1, 0);
    for (size_t end : group_end) {
      if (end - runs.back() >= run_length) runs.push_back(end);
    }
    if (runs.back() < back_links.size()) runs.push_back(back_links.size());
    // Every run but the last holds at least run_length back-links.
    assert(runs.size() - 1 <= kBuildBatch);
    ParallelForOrInline(executor, runs.size() - 1, [&](size_t r) {
      for (size_t b = runs[r]; b < runs[r + 1]; ++b) {
        const BackLink& link = back_links[b];
        LinkBack(&state, &scratch[r], link.owner, link.level, link.node,
                 link.distance);
      }
    });

    for (size_t i = batch_begin; i < batch_end; ++i) {
      if (node_level_[i] > max_level_) {
        entry_ = static_cast<uint32_t>(i);
        max_level_ = node_level_[i];
      }
    }
  }
  // Lists that never filled up give back the rest of their reservation.
  for (auto& links : links0_) links.shrink_to_fit();
  for (auto& levels : upper_) {
    for (auto& links : levels) links.shrink_to_fit();
  }
  return Status::OK();
}

std::vector<Neighbor> HnswIndex::SearchFiltered(const float* query, size_t k,
                                                const RowFilter* filter,
                                                WorkCounters* counters,
                                                const IndexParams* knobs) const {
  assert(data_ != nullptr && data_->rows() > 0);
  uint32_t ep = entry_;

  // Greedy descent to layer 1.
  for (int lc = max_level_; lc >= 1; --lc) {
    bool improved = true;
    float d_ep = Dist(query, ep, counters);
    while (improved) {
      improved = false;
      if (counters != nullptr) ++counters->graph_hops;
      for (uint32_t nb : LinksAt(ep, lc)) {
        const float d = Dist(query, nb, counters);
        if (d < d_ep) {
          d_ep = d;
          ep = nb;
          improved = true;
        }
      }
    }
  }

  const int ef_knob = knobs != nullptr ? knobs->ef : params_.ef;
  const size_t ef = std::max<size_t>(static_cast<size_t>(std::max(1, ef_knob)), k);
  std::vector<Neighbor> found = SearchLayer(query, ep, ef, 0, filter, counters);
  if (found.size() > k) found.resize(k);
  return found;
}

Status HnswIndex::SerializeState(ByteWriter* writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("HNSW serialize: index not built");
  }
  WriteBuiltIndexParams(writer, params_);
  writer->U64(seed_);
  writer->I32(max_level_);
  writer->U32(entry_);
  const size_t n = node_level_.size();
  writer->U64(n);
  for (int level : node_level_) writer->I32(level);
  for (const auto& links : links0_) {
    writer->U32(static_cast<uint32_t>(links.size()));
    for (uint32_t target : links) writer->U32(target);
  }
  // upper_[i] holds exactly node_level_[i] lists, so the levels need no
  // explicit counts — the decoder re-derives them from node_level_.
  for (size_t i = 0; i < n; ++i) {
    for (const auto& links : upper_[i]) {
      writer->U32(static_cast<uint32_t>(links.size()));
      for (uint32_t target : links) writer->U32(target);
    }
  }
  return Status::OK();
}

Status HnswIndex::RestoreState(ByteReader* reader, const FloatMatrix& data) {
  if (data.empty()) {
    return MalformedIndexState(Name(), "state over empty data");
  }
  if (!ReadIndexParams(reader, &params_) || !reader->U64(&seed_) ||
      !reader->I32(&max_level_) || !reader->U32(&entry_)) {
    return MalformedIndexState(Name(), "header");
  }
  uint64_t n = 0;
  if (!reader->U64(&n) || n != data.rows()) {
    return MalformedIndexState(Name(), "node count");
  }
  if (!reader->Fits(n, sizeof(int32_t))) {
    return MalformedIndexState(Name(), "node levels");
  }
  node_level_.assign(static_cast<size_t>(n), 0);
  for (auto& level : node_level_) {
    int32_t v = 0;
    if (!reader->I32(&v) || v < 0 || v > 64) {
      return MalformedIndexState(Name(), "node level");
    }
    level = v;
  }
  // Every link target is validated against the node count (and, on upper
  // layers, the target's own level) here, so traversal never range-checks.
  auto read_links = [&](int level, std::vector<uint32_t>* links) -> bool {
    uint32_t count = 0;
    if (!reader->U32(&count) || !reader->Fits(count, sizeof(uint32_t))) {
      return false;
    }
    links->assign(count, 0);
    for (auto& target : *links) {
      if (!reader->U32(&target) || target >= n) return false;
      if (level > 0 && node_level_[target] < level) return false;
    }
    return true;
  };
  links0_.assign(static_cast<size_t>(n), {});
  for (auto& links : links0_) {
    if (!read_links(0, &links)) {
      return MalformedIndexState(Name(), "level-0 links");
    }
  }
  upper_.assign(static_cast<size_t>(n), {});
  for (size_t i = 0; i < n; ++i) {
    upper_[i].resize(static_cast<size_t>(node_level_[i]));
    for (int level = 1; level <= node_level_[i]; ++level) {
      if (!read_links(level, &upper_[i][level - 1])) {
        return MalformedIndexState(Name(), "upper-layer links");
      }
    }
  }
  if (entry_ >= n || max_level_ != node_level_[entry_]) {
    return MalformedIndexState(Name(), "entry point");
  }
  data_ = &data;
  return Status::OK();
}

size_t HnswIndex::MemoryBytes() const {
  size_t bytes = node_level_.size() * sizeof(int);
  for (const auto& l : links0_) {
    bytes += l.size() * sizeof(uint32_t) + sizeof(l);
  }
  for (const auto& levels : upper_) {
    for (const auto& l : levels) bytes += l.size() * sizeof(uint32_t) + sizeof(l);
  }
  return bytes;
}

}  // namespace vdt
