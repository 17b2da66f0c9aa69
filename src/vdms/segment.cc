#include "vdms/segment.h"

#include <algorithm>
#include <string>

namespace vdt {

Status Segment::Seal(IndexType type, Metric metric, const IndexParams& params,
                     int build_threshold, uint64_t seed) {
  if (sealed_) return Status::FailedPrecondition("segment already sealed");
  sealed_ = true;
  if (data_.rows() < static_cast<size_t>(std::max(1, build_threshold))) {
    return Status::OK();  // stays brute-force
  }
  index_ = CreateIndex(type, metric, params, seed);
  if (index_ == nullptr) {
    return Status::Internal("segment seal: unknown index type " +
                            std::to_string(static_cast<int>(type)));
  }
  Status st = index_->Build(data_);
  if (!st.ok()) index_.reset();
  return st;
}

Status Segment::SealCompacted(const Segment& source,
                              const std::vector<int64_t>& old_to_new,
                              IndexType type, Metric metric,
                              const IndexParams& params, int build_threshold,
                              uint64_t seed) {
  if (!sealed_ && source.index_ != nullptr &&
      data_.rows() >= static_cast<size_t>(std::max(1, build_threshold))) {
    index_ = source.index_->FilteredCopy(old_to_new, data_);
    if (index_ != nullptr) {
      sealed_ = true;
      return Status::OK();
    }
  }
  return Seal(type, metric, params, build_threshold, seed);
}

std::shared_ptr<Segment> Segment::Restore(int64_t base_id, FloatMatrix data,
                                          std::vector<int64_t> ids) {
  auto segment = std::make_shared<Segment>(base_id, data.dim());
  segment->data_ = std::move(data);
  segment->ids_ = std::move(ids);
  segment->sealed_ = true;
  return segment;
}

std::vector<Neighbor> Segment::Search(Metric metric, const float* query,
                                      size_t k, WorkCounters* counters,
                                      const RowFilter* filter,
                                      const IndexParams* knobs) const {
  std::vector<Neighbor> local =
      index_ ? index_->SearchFiltered(query, k, filter, counters, knobs)
             : BruteForceSearch(data_, metric, query, k, counters, filter);
  for (auto& n : local) n.id = IdAt(static_cast<size_t>(n.id));
  return local;
}

int64_t Segment::LocalOf(int64_t id) const {
  if (ids_.empty()) {
    const int64_t local = id - base_id_;
    return local >= 0 && local < static_cast<int64_t>(data_.rows()) ? local
                                                                    : -1;
  }
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return -1;
  return static_cast<int64_t>(it - ids_.begin());
}

}  // namespace vdt
