// VdmsEngine: the top-level database API (create/drop/open collections,
// insert, delete, compact, flush, typed search). A thin, thread-safe
// management layer over Collection.
//
// Concurrency model:
//  - The engine mutex guards only the name -> collection map; it is held
//    for a lookup, never across an operation.
//  - Mutations serialize on the target collection's writer mutex.
//  - Search runs entirely against a published CollectionSnapshot with no
//    engine or collection lock held, so searches scale with client threads
//    and proceed during Insert/Delete/Compact/Flush on the same collection.
//  - Open() returns a ref-counted CollectionHandle; DropCollection refuses
//    while handles are live (the error names the live-handle count), so a
//    drop can never free memory out from under a handle holder. Name-based
//    operations in flight during a successful drop finish safely on their
//    own reference; the collection is freed when the last one completes.
#ifndef VDTUNER_VDMS_VDMS_H_
#define VDTUNER_VDMS_VDMS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/wal.h"
#include "vdms/api.h"
#include "vdms/collection.h"
#include "vdms/memory_model.h"

namespace vdt {

class ParallelExecutor;

/// Engine construction knobs.
struct VdmsEngineOptions {
  /// When non-empty, collections are durable: each lives under
  /// <data_dir>/<name>/ with a manifest, segment files, and a WAL (see
  /// storage/collection_store.h), and Open() recovers whatever is there.
  /// Empty (the default) keeps the engine fully in-memory.
  std::string data_dir;

  /// WAL fsync policy for durable collections (see WalSyncPolicy).
  WalSyncPolicy wal_sync = WalSyncPolicy::kNone;
};

/// A ref-counted lease on an open collection. While any handle is live,
/// DropCollection refuses (naming the live-handle count), so the pointed-to
/// collection can never be freed out from under the holder — the safe
/// replacement for the raw Collection* the engine used to hand out.
/// Copyable (each copy counts) and movable; release early with reset().
class CollectionHandle {
 public:
  CollectionHandle() = default;
  CollectionHandle(const CollectionHandle& other);
  CollectionHandle& operator=(const CollectionHandle& other);
  CollectionHandle(CollectionHandle&& other) noexcept = default;
  CollectionHandle& operator=(CollectionHandle&& other) noexcept;
  ~CollectionHandle();

  Collection* get() const { return collection_.get(); }
  Collection* operator->() const { return collection_.get(); }
  Collection& operator*() const { return *collection_; }
  explicit operator bool() const { return collection_ != nullptr; }

  /// Releases the lease now (the destructor otherwise does). After this the
  /// handle is empty and no longer blocks DropCollection.
  void reset();

 private:
  friend class VdmsEngine;
  CollectionHandle(std::shared_ptr<Collection> collection,
                   std::shared_ptr<std::atomic<int>> count);

  std::shared_ptr<Collection> collection_;
  std::shared_ptr<std::atomic<int>> count_;
};

/// An in-process vector data management system instance.
class VdmsEngine {
 public:
  VdmsEngine() = default;
  explicit VdmsEngine(const VdmsEngineOptions& options) : options_(options) {}

  VdmsEngine(const VdmsEngine&) = delete;
  VdmsEngine& operator=(const VdmsEngine&) = delete;

  /// Recovers every collection persisted under options.data_dir: each
  /// subdirectory holding a manifest is opened (CollectionStore::Open) and
  /// rebuilt (Collection::Restore). Any unreadable or foreign manifest,
  /// torn segment file, or manifest/directory name mismatch is a typed
  /// error and nothing is registered — the caller (e.g. vdt_server) refuses
  /// startup rather than serving partial data. FailedPrecondition when the
  /// engine has no data_dir. Call once, before traffic.
  Status Open();

  /// Creates a collection; fails with AlreadyExists on a name collision.
  /// With a data_dir, also initializes <data_dir>/<name>/ (manifest + empty
  /// WAL) and attaches the store, so every later mutation is durable; the
  /// name must then be non-empty and use only [A-Za-z0-9_.-] (it names a
  /// directory).
  Status CreateCollection(const CollectionOptions& options);

  /// Drops a collection; fails with NotFound when absent and with
  /// FailedPrecondition (naming the live-handle count) while Open() handles
  /// are outstanding. In-flight name-based operations finish safely on
  /// their own reference. With a data_dir, the collection's directory is
  /// deleted as well.
  Status DropCollection(const std::string& name);

  /// Opens a ref-counted handle on `name` for direct Collection access
  /// (the tuner's evaluator drives replay through one); NotFound when
  /// absent. The handle blocks DropCollection until released.
  Result<CollectionHandle> Open(const std::string& name);

  bool HasCollection(const std::string& name) const;
  /// Collection names, sorted ascending.
  std::vector<std::string> ListCollections() const;

  /// Inserts rows into `name`.
  Status Insert(const std::string& name, const FloatMatrix& rows);

  /// Tombstones rows of `name` by collection id; unknown/already-deleted
  /// ids are ignored. `deleted` (may be null) receives the newly-deleted
  /// count. May trigger inline compaction (see Collection::Delete).
  Status Delete(const std::string& name, const std::vector<int64_t>& ids,
                size_t* deleted = nullptr);

  /// Runs the compaction pass on `name` (see Collection::Compact).
  /// Concurrent searches keep their snapshots; replaced segments are freed
  /// when the last in-flight reader drops.
  Status Compact(const std::string& name, size_t* compacted = nullptr);

  /// Flushes buffered rows and seals growing segments of `name`.
  Status Flush(const std::string& name);

  /// Executes a typed search against `name`'s current snapshot, sharding
  /// the query batch across `executor` (the process-wide ParallelExecutor
  /// when null). No engine lock is held while searching.
  Result<SearchResponse> Search(const std::string& name,
                                const SearchRequest& request,
                                ParallelExecutor* executor = nullptr) const;

  /// Snapshot-consistent statistics (stored == live + tombstoned even while
  /// writers run).
  Result<CollectionStats> GetStats(const std::string& name) const;
  Result<MemoryBreakdown> GetMemory(const std::string& name) const;

 private:
  struct Entry {
    std::shared_ptr<Collection> collection;
    /// Live Open() handles; guards DropCollection.
    std::shared_ptr<std::atomic<int>> handles =
        std::make_shared<std::atomic<int>>(0);
    /// On-disk directory (empty for in-memory collections); removed by
    /// DropCollection.
    std::string dir;
  };

  /// The collection named `name` (nullptr when absent); holds mu_ for the
  /// map lookup only.
  std::shared_ptr<Collection> Find(const std::string& name) const;

  VdmsEngineOptions options_;
  mutable std::mutex mu_;  // guards collections_ (the map), nothing else
  std::map<std::string, Entry> collections_;
};

}  // namespace vdt

#endif  // VDTUNER_VDMS_VDMS_H_
