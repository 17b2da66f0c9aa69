#include "vdms/vdms.h"

#include "storage/collection_store.h"
#include "storage/file_io.h"

namespace vdt {

namespace {

/// True when `name` is safe to use as a directory name under data_dir:
/// non-empty, only [A-Za-z0-9_.-], and not a dot path.
bool IsStorableName(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------- CollectionHandle

CollectionHandle::CollectionHandle(std::shared_ptr<Collection> collection,
                                   std::shared_ptr<std::atomic<int>> count)
    : collection_(std::move(collection)), count_(std::move(count)) {
  if (count_ != nullptr) count_->fetch_add(1, std::memory_order_relaxed);
}

CollectionHandle::CollectionHandle(const CollectionHandle& other)
    : collection_(other.collection_), count_(other.count_) {
  if (count_ != nullptr) count_->fetch_add(1, std::memory_order_relaxed);
}

CollectionHandle& CollectionHandle::operator=(const CollectionHandle& other) {
  if (this == &other) return *this;
  reset();
  collection_ = other.collection_;
  count_ = other.count_;
  if (count_ != nullptr) count_->fetch_add(1, std::memory_order_relaxed);
  return *this;
}

CollectionHandle& CollectionHandle::operator=(
    CollectionHandle&& other) noexcept {
  if (this == &other) return *this;
  reset();
  collection_ = std::move(other.collection_);
  count_ = std::move(other.count_);
  return *this;
}

CollectionHandle::~CollectionHandle() { reset(); }

void CollectionHandle::reset() {
  if (count_ != nullptr) count_->fetch_sub(1, std::memory_order_relaxed);
  count_.reset();
  collection_.reset();
}

// ------------------------------------------------------------- VdmsEngine

Status VdmsEngine::Open() {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition(
        "VdmsEngine::Open requires options.data_dir");
  }
  std::lock_guard<std::mutex> lock(mu_);
  VDT_RETURN_IF_ERROR(EnsureDir(options_.data_dir));
  Result<std::vector<std::string>> names = ListDir(options_.data_dir);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    const std::string dir = options_.data_dir + "/" + name;
    if (!IsDirectory(dir) || !PathExists(dir + "/MANIFEST")) continue;
    Result<std::unique_ptr<CollectionStore>> store =
        CollectionStore::Open(dir, options_.wal_sync);
    if (!store.ok()) return store.status();
    // A manifest whose collection name disagrees with its directory was
    // copied in from somewhere else; refuse rather than guess which name
    // the operator meant.
    if ((*store)->manifest().options.name != name) {
      return Status::InvalidArgument(
          "manifest in " + dir + " names collection '" +
          (*store)->manifest().options.name + "'; refusing foreign manifest");
    }
    Result<std::shared_ptr<Collection>> collection =
        Collection::Restore(std::shared_ptr<CollectionStore>(
            std::move(*store)));
    if (!collection.ok()) {
      return Status::InvalidArgument("recovering " + dir + ": " +
                                     collection.status().message());
    }
    if (collections_.count(name) > 0) {
      return Status::AlreadyExists("collection '" + name +
                                   "' recovered twice");
    }
    Entry entry;
    entry.collection = std::move(*collection);
    entry.dir = dir;
    collections_.emplace(name, std::move(entry));
  }
  return Status::OK();
}

Status VdmsEngine::CreateCollection(const CollectionOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (collections_.count(options.name) > 0) {
    return Status::AlreadyExists("collection '" + options.name + "' exists");
  }
  Entry entry;
  if (!options_.data_dir.empty()) {
    if (!IsStorableName(options.name)) {
      return Status::InvalidArgument(
          "collection name '" + options.name +
          "' is not storable (use [A-Za-z0-9_.-])");
    }
    VDT_RETURN_IF_ERROR(EnsureDir(options_.data_dir));
    const std::string dir = options_.data_dir + "/" + options.name;
    Result<std::unique_ptr<CollectionStore>> store =
        CollectionStore::Create(dir, options, options_.wal_sync);
    if (!store.ok()) return store.status();
    entry.collection = std::make_shared<Collection>(options);
    entry.collection->AttachStore(
        std::shared_ptr<CollectionStore>(std::move(*store)));
    entry.dir = dir;
  } else {
    entry.collection = std::make_shared<Collection>(options);
  }
  collections_.emplace(options.name, std::move(entry));
  return Status::OK();
}

Status VdmsEngine::DropCollection(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  const int live = it->second.handles->load(std::memory_order_relaxed);
  if (live > 0) {
    return Status::FailedPrecondition(
        "collection '" + name + "' has " + std::to_string(live) +
        " live handle(s); release them before dropping");
  }
  const std::string dir = it->second.dir;
  collections_.erase(it);
  if (!dir.empty()) {
    // The collection (and its store, holding the WAL fd) is gone from the
    // map; in-flight operations on their own reference keep memory alive
    // but the on-disk footprint is removed now.
    VDT_RETURN_IF_ERROR(RemoveDirRecursive(dir));
  }
  return Status::OK();
}

Result<CollectionHandle> VdmsEngine::Open(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  return CollectionHandle(it->second.collection, it->second.handles);
}

std::shared_ptr<Collection> VdmsEngine::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.collection;
}

bool VdmsEngine::HasCollection(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return collections_.count(name) > 0;
}

std::vector<std::string> VdmsEngine::ListCollections() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  // std::map iterates in key order, so the listing is sorted by contract.
  for (const auto& [name, _] : collections_) names.push_back(name);
  return names;
}

Status VdmsEngine::Insert(const std::string& name, const FloatMatrix& rows) {
  auto collection = Find(name);
  if (collection == nullptr) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  return collection->Insert(rows);
}

Status VdmsEngine::Delete(const std::string& name,
                          const std::vector<int64_t>& ids, size_t* deleted) {
  auto collection = Find(name);
  if (collection == nullptr) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  return collection->Delete(ids, deleted);
}

Status VdmsEngine::Compact(const std::string& name, size_t* compacted) {
  auto collection = Find(name);
  if (collection == nullptr) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  return collection->Compact(compacted);
}

Status VdmsEngine::Flush(const std::string& name) {
  auto collection = Find(name);
  if (collection == nullptr) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  return collection->Flush();
}

Result<SearchResponse> VdmsEngine::Search(const std::string& name,
                                          const SearchRequest& request,
                                          ParallelExecutor* executor) const {
  auto collection = Find(name);
  if (collection == nullptr) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  // Snapshot read: no engine or collection lock held from here on.
  return collection->Search(request, executor);
}

Result<CollectionStats> VdmsEngine::GetStats(const std::string& name) const {
  auto collection = Find(name);
  if (collection == nullptr) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  return collection->Stats();
}

Result<MemoryBreakdown> VdmsEngine::GetMemory(const std::string& name) const {
  auto collection = Find(name);
  if (collection == nullptr) {
    return Status::NotFound("collection '" + name + "' not found");
  }
  // One snapshot supplies both stats and the system knobs, so the breakdown
  // is internally consistent even while writers run.
  const auto snapshot = collection->Snapshot();
  return ComputeMemory(snapshot->stats, snapshot->system);
}

}  // namespace vdt
