// Disk-backed Gear runtime.
//
// The simulation-facing GearClient measures costs; this runtime performs the
// same deployment semantics on a real filesystem (FsStore, paper Fig. 5) so
// tooling like gearctl can actually host containers:
//
//   pull     — install the image's index into <root>/images/<ref>/;
//   launch   — create a container with a persisted diff tree;
//   read     — union lookup (diff over index); the first touch of a stub
//              materializes it: shared cache -> Gear Registry, then a hard
//              link into the image's files/ directory;
//   write /  — copy-up into the container's diff with whiteouts, persisted
//   remove     across process restarts;
//   commit   — extract the diff into new Gear files + a merged index and
//              push the result as a new image.
//
// All state lives under one directory; reopening the runtime on the same
// root resumes exactly where the previous process stopped.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "docker/registry.hpp"
#include "gear/admission.hpp"
#include "gear/committer.hpp"
#include "gear/fs_store.hpp"
#include "gear/prefetch.hpp"
#include "gear/registry_api.hpp"
#include "util/thread_pool.hpp"

namespace gear {

/// One file of a batched read: what to fetch and what errors name.
struct FetchItem {
  std::string path;  // a tree path referencing the fingerprint
  Fingerprint fingerprint;
  std::uint64_t size = 0;  // raw (stub) size: batch caps and budget charge
};

/// Raw bytes per download batch of the read path. Keeps every response
/// frame well under TcpTransport's frame limit; a larger file travels alone.
inline constexpr std::uint64_t kFetchBatchBytes = 16ull << 20;

/// The runtime read path, shared by prefetch and gearctl export. Fetches
/// `items` (distinct fingerprints) through `registry.download_batch` in
/// batches cut at kDownloadBatchFiles files, at kFetchBatchBytes and, under
/// a `budget`, at its byte budget. Batches drain through drain_batches:
/// with a `pool`, later batches go on the wire while earlier ones
/// decompress. Each batch holds one background-lane lease on `budget` from
/// before its request until it has landed; leases are taken in batch order,
/// keyed by the bytes still to move. `land(i, content)` runs on the
/// caller's thread in item order. A failed batch throws a gear::Error that
/// starts with `what` and names the failing path and fingerprint.
void fetch_batched(FileRegistryApi& registry,
                   const std::vector<FetchItem>& items,
                   util::ThreadPool* pool, HostBudget* budget,
                   const std::string& what,
                   const std::function<void(std::size_t, Bytes)>& land);

class LocalRuntime {
 public:
  /// Any FileRegistryApi works — a single GearRegistry or a FleetRegistry
  /// router — so gearctl's container commands run against --shards N too.
  LocalRuntime(docker::DockerRegistry& index_registry,
               FileRegistryApi& file_registry, std::filesystem::path root);

  /// Installs `reference`'s index from the Docker registry (no-op when
  /// already installed). Throws for classic (non-Gear) references.
  void pull(const std::string& reference);

  bool has_image(const std::string& reference) const;

  /// Creates a container from an installed image; returns its id.
  std::string launch(const std::string& reference);

  /// Reads a file through the container's union view, materializing stubs
  /// on demand (cache -> registry -> hard link).
  StatusOr<Bytes> read(const std::string& container_id,
                       std::string_view path);

  /// Resolves a symlink target from the union view.
  StatusOr<std::string> read_symlink(const std::string& container_id,
                                     std::string_view path);

  /// Writes a file into the container's diff (persisted immediately).
  void write(const std::string& container_id, std::string_view path,
             BytesView content);

  /// Removes a path from the container's view (whiteout when the image
  /// still provides it). Returns false when absent.
  bool remove_path(const std::string& container_id, std::string_view path);

  /// Commits the container as a new image and pushes it to the registries.
  /// Returns the new reference.
  std::string commit(const std::string& container_id, const std::string& name,
                     const std::string& tag);

  /// Deletes the container (its diff only; the image stays launchable).
  void destroy(const std::string& container_id);

  /// Warms every still-unmaterialized file of an installed image into the
  /// on-disk cache in priority order (gear/prefetch): delta vs the newest
  /// other installed version of the series, then the persisted access
  /// profiles of the whole series, then fan-in/size tie-breakers. Files are
  /// hard-linked into the image directory afterwards. The uncached files
  /// move through fetch_batched: ⌈N/kDownloadBatchFiles⌉ download frames
  /// for N small files. Returns (files fetched from the registry, bytes
  /// moved).
  std::pair<std::size_t, std::uint64_t> prefetch(
      const std::string& reference,
      PrefetchOrder order = PrefetchOrder::kDelta);

  /// Attaches a host-wide admission budget (gearctl --host-budget-bytes):
  /// prefetch's downloads stage their bytes on the background lane,
  /// demand-fault materializations on the strict-priority demand lane. The
  /// budget must outlive the runtime; null = ungoverned (the default).
  void set_host_budget(HostBudget* budget) { host_budget_ = budget; }
  HostBudget* host_budget() const noexcept { return host_budget_; }

  /// Pool for prefetch's overlapped drain and decompression (gearctl
  /// --workers). Must outlive the runtime; null = serial (the default).
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }

  FsStore& store() noexcept { return store_; }

 private:
  /// Loads the semantic index of a container's image with already
  /// materialized files reported through the FsStore.
  vfs::FileTree load_index_tree(const std::string& reference) const;

  /// Materializer callback bound to (reference); fetches through
  /// FsStore-materialized -> cache -> registry, hard-linking on success.
  /// `size` is the stub's raw size — the demand lane's admission charge.
  Bytes materialize(const std::string& reference, const std::string& path,
                    const Fingerprint& fp, std::uint64_t size);

  docker::DockerRegistry& index_registry_;
  FileRegistryApi& file_registry_;
  FsStore store_;
  HostBudget* host_budget_ = nullptr;  // not owned
  util::ThreadPool* pool_ = nullptr;   // not owned
};

}  // namespace gear
