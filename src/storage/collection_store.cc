#include "storage/collection_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "storage/file_io.h"

namespace vdt {

namespace {

constexpr const char* kManifestName = "MANIFEST";

/// Parses "seg-<uid>.vseg" / "wal-<epoch>.vwal" style names; false when the
/// name does not match `prefix`+digits+`suffix` exactly.
bool ParseNumberedName(const std::string& name, const std::string& prefix,
                       const std::string& suffix, uint64_t* value) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = v;
  return true;
}

}  // namespace

std::string CollectionStore::SegmentPath(uint64_t uid) const {
  return dir_ + "/seg-" + std::to_string(uid) + ".vseg";
}

std::string CollectionStore::WalPath(uint64_t epoch) const {
  return dir_ + "/wal-" + std::to_string(epoch) + ".vwal";
}

Result<std::unique_ptr<CollectionStore>> CollectionStore::Create(
    const std::string& dir, const CollectionOptions& options,
    WalSyncPolicy sync) {
  VDT_RETURN_IF_ERROR(EnsureDir(dir));
  if (PathExists(dir + "/" + kManifestName)) {
    return Status::AlreadyExists("collection store already exists at " + dir);
  }
  std::unique_ptr<CollectionStore> store(new CollectionStore());
  store->dir_ = dir;
  store->sync_ = sync;
  store->manifest_.options = options;
  // Mirror Collection's shard-count normalization so the manifest always
  // matches the layout the collection actually builds.
  store->manifest_.options.system.num_shards =
      std::clamp(options.system.num_shards, 1, 64);
  store->manifest_.shards.resize(
      static_cast<size_t>(store->manifest_.options.system.num_shards));
  store->manifest_.next_segment_uid = 1;
  store->manifest_.wal_epoch = 0;
  store->next_uid_ = 1;

  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(store->WalPath(0), sync, nullptr);
  if (!wal.ok()) return wal.status();
  store->wal_ = std::move(*wal);

  std::vector<uint8_t> bytes;
  EncodeManifest(store->manifest_, &bytes);
  VDT_RETURN_IF_ERROR(AtomicWriteFile(dir + "/" + kManifestName, bytes));
  return store;
}

Result<std::unique_ptr<CollectionStore>> CollectionStore::Open(
    const std::string& dir, WalSyncPolicy sync) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(dir + "/" + kManifestName);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no collection manifest in " + dir);
    }
    return bytes.status();
  }
  Result<ManifestData> manifest = DecodeManifest(bytes->data(), bytes->size());
  if (!manifest.ok()) {
    return Status::InvalidArgument("unreadable manifest in " + dir + ": " +
                                   manifest.status().message());
  }

  std::unique_ptr<CollectionStore> store(new CollectionStore());
  store->dir_ = dir;
  store->sync_ = sync;
  store->manifest_ = std::move(*manifest);
  store->next_uid_ = store->manifest_.next_segment_uid;
  VDT_RETURN_IF_ERROR(store->CollectGarbage());

  WalContents contents;
  Result<std::unique_ptr<WalWriter>> wal = WalWriter::Open(
      store->WalPath(store->manifest_.wal_epoch), sync, &contents);
  if (!wal.ok()) {
    return Status::InvalidArgument("unreadable WAL in " + dir + ": " +
                                   wal.status().message());
  }
  store->wal_ = std::move(*wal);
  if (contents.torn_tail) {
    VDT_LOG(kWarning) << "WAL " << store->WalPath(store->manifest_.wal_epoch)
                      << ": torn tail truncated at byte "
                      << contents.valid_bytes;
  }
  store->wal_records_ = std::move(contents.records);
  return store;
}

Status CollectionStore::WriteSegment(const Segment& segment, Metric metric,
                                     uint64_t uid) {
  std::vector<uint8_t> bytes;
  VDT_RETURN_IF_ERROR(EncodeSegmentFile(segment, metric, &bytes));
  return AtomicWriteFile(SegmentPath(uid), bytes);
}

Result<std::shared_ptr<Segment>> CollectionStore::LoadSegment(
    uint64_t uid, Metric metric) const {
  return LoadSegmentFile(SegmentPath(uid), metric);
}

Status CollectionStore::Checkpoint(ManifestData manifest) {
  const uint64_t old_epoch = manifest_.wal_epoch;
  manifest.wal_epoch = old_epoch + 1;
  manifest.next_segment_uid = next_uid_;

  // Order matters: (1) the next WAL exists before the manifest names it,
  // (2) the manifest write is the commit point, (3) cleanup is best-effort
  // after the commit — a crash anywhere leaves a consistent root.
  Result<std::unique_ptr<WalWriter>> next_wal =
      WalWriter::Open(WalPath(manifest.wal_epoch), sync_, nullptr);
  if (!next_wal.ok()) return next_wal.status();

  std::vector<uint8_t> bytes;
  EncodeManifest(manifest, &bytes);
  VDT_RETURN_IF_ERROR(AtomicWriteFile(dir_ + "/" + kManifestName, bytes));

  manifest_ = std::move(manifest);
  wal_ = std::move(*next_wal);
  return CollectGarbage();
}

Status CollectionStore::CollectGarbage() {
  Result<std::vector<std::string>> entries = ListDir(dir_);
  if (!entries.ok()) return entries.status();
  std::vector<uint64_t> live;
  for (const auto& shard : manifest_.shards) {
    for (const ManifestSegment& seg : shard) live.push_back(seg.uid);
  }
  std::sort(live.begin(), live.end());
  for (const std::string& name : *entries) {
    const std::string path = dir_ + "/" + name;
    if (name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".tmp") == 0) {
      VDT_RETURN_IF_ERROR(RemoveFileIfExists(path));
      continue;
    }
    uint64_t value = 0;
    if (ParseNumberedName(name, "wal-", ".vwal", &value)) {
      if (value != manifest_.wal_epoch) {
        VDT_RETURN_IF_ERROR(RemoveFileIfExists(path));
      }
      continue;
    }
    if (ParseNumberedName(name, "seg-", ".vseg", &value)) {
      if (!std::binary_search(live.begin(), live.end(), value)) {
        VDT_RETURN_IF_ERROR(RemoveFileIfExists(path));
      }
      continue;
    }
  }
  return FsyncDir(dir_);
}

}  // namespace vdt
