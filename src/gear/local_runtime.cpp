#include "gear/local_runtime.hpp"

#include <condition_variable>
#include <mutex>

#include "docker/layer.hpp"
#include "gear/converter.hpp"  // kGearIndexLabel
#include "gear/client.hpp"     // push_gear_image
#include "gear/viewer.hpp"

namespace gear {

void fetch_batched(FileRegistryApi& registry,
                   const std::vector<FetchItem>& items,
                   util::ThreadPool* pool, HostBudget* budget,
                   const std::string& what,
                   const std::function<void(std::size_t, Bytes)>& land) {
  const std::uint64_t budget_bytes =
      budget != nullptr ? budget->budget_bytes() : 0;
  // Batches are contiguous runs of `items`: first[k] is batch k's first
  // item, hint[k] the bytes still to move when it starts (the
  // smallest-remaining-first admission key).
  std::vector<PrefetchBatch> batches;
  std::vector<std::size_t> first;
  std::vector<std::uint64_t> hint;
  std::uint64_t remaining = 0;
  for (const FetchItem& item : items) remaining += item.size;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint64_t size = items[i].size;
    const bool full =
        !batches.empty() &&
        (batches.back().fps.size() >= kDownloadBatchFiles ||
         batches.back().wire_estimate + size > kFetchBatchBytes ||
         (budget_bytes != 0 &&
          batches.back().wire_estimate + size > budget_bytes));
    if (batches.empty() || full) {
      batches.emplace_back();
      first.push_back(i);
      hint.push_back(remaining);
    }
    batches.back().fps.push_back(items[i].fingerprint);
    batches.back().wire_estimate += size;
    remaining -= size;
  }

  // Leases are taken in batch order, so a batch fetched ahead never holds
  // budget that the batch the caller lands next is still waiting for.
  std::mutex turn_mutex;
  std::condition_variable turn_cv;
  std::size_t turn = 0;
  auto index_of = [&](const PrefetchBatch& b) {
    return static_cast<std::size_t>(&b - batches.data());
  };
  auto fetch = [&](const PrefetchBatch& b, util::ThreadPool* p) {
    const std::size_t k = index_of(b);
    FetchedBatch landed;
    if (budget != nullptr) {
      {
        std::unique_lock<std::mutex> lock(turn_mutex);
        turn_cv.wait(lock, [&] { return turn == k; });
        landed.budget_lease = make_budget_lease(
            budget, b.wire_estimate, AdmissionLane::kBackground, hint[k]);
        ++turn;
      }
      turn_cv.notify_all();
    }
    StatusOr<std::vector<Bytes>> got =
        registry.download_batch(b.fps, p, &landed.wire_bytes);
    if (!got.ok()) {
      // Name the member the registry blamed (kNotFound names its
      // fingerprint), else the batch's first file.
      std::size_t bad = 0;
      for (std::size_t j = 0; j < b.fps.size(); ++j) {
        if (got.message().find(b.fps[j].hex()) != std::string::npos) {
          bad = j;
          break;
        }
      }
      const FetchItem& item = items[first[k] + bad];
      throw_error(got.code(), what + ": " + item.path + " (" +
                                  item.fingerprint.hex() +
                                  "): " + got.message());
    }
    if (got->size() != b.fps.size()) {
      const FetchItem& item = items[first[k]];
      throw_error(ErrorCode::kInternal,
                  what + ": " + item.path + " (" + item.fingerprint.hex() +
                      "): batch of " + std::to_string(b.fps.size()) +
                      " answered with " + std::to_string(got->size()));
    }
    landed.contents = std::move(got).value();
    return landed;
  };
  auto account = [&](const PrefetchBatch& b, FetchedBatch landed) {
    const std::size_t base = first[index_of(b)];
    for (std::size_t j = 0; j < landed.contents.size(); ++j) {
      land(base + j, std::move(landed.contents[j]));
    }
  };
  drain_batches(batches, pool, 4 * kFetchBatchBytes, fetch, account);
}

LocalRuntime::LocalRuntime(docker::DockerRegistry& index_registry,
                           FileRegistryApi& file_registry,
                           std::filesystem::path root)
    : index_registry_(index_registry),
      file_registry_(file_registry),
      store_(std::move(root)) {}

void LocalRuntime::pull(const std::string& reference) {
  if (store_.has_index(reference)) return;
  StatusOr<docker::Manifest> manifest_or =
      index_registry_.get_manifest(reference);
  if (!manifest_or.ok()) {
    throw_error(manifest_or.code(),
                "pull: manifest of " + reference + ": " +
                    manifest_or.message());
  }
  docker::Manifest manifest = std::move(manifest_or).value();
  if (manifest.config.labels.count(kGearIndexLabel) == 0 ||
      manifest.layers.size() != 1) {
    throw_error(ErrorCode::kInvalidArgument,
                reference + " is not a Gear index image");
  }
  StatusOr<Bytes> blob =
      index_registry_.get_blob(manifest.layers[0].digest);
  if (!blob.ok()) {
    throw_error(blob.code(), "pull: index layer of " + reference + ": " +
                                 blob.message());
  }
  docker::Layer layer = docker::Layer::from_blob(std::move(blob).value(),
                                                 manifest.layers[0].digest);
  store_.install_index(reference, GearIndex::from_wire_tree(layer.to_tree()));
}

bool LocalRuntime::has_image(const std::string& reference) const {
  return store_.has_index(reference);
}

std::string LocalRuntime::launch(const std::string& reference) {
  return store_.create_container(reference);
}

vfs::FileTree LocalRuntime::load_index_tree(
    const std::string& reference) const {
  return vfs::FileTree(store_.load_index(reference).tree());
}

Bytes LocalRuntime::materialize(const std::string& reference,
                                const std::string& path, const Fingerprint& fp,
                                std::uint64_t size) {
  // Already hard-linked into the image directory by an earlier access?
  if (StatusOr<Bytes> local = store_.read_materialized(reference, path);
      local.ok()) {
    return std::move(local).value();
  }
  // A true first touch: feed the persisted access profile (load, merge the
  // new observation, save) so later prefetches of this series can schedule
  // hot files first.
  ImageAccessProfile profile;
  if (StatusOr<std::string> text = store_.load_access_profile(reference);
      text.ok()) {
    if (StatusOr<ImageAccessProfile> parsed = ImageAccessProfile::parse(*text);
        parsed.ok()) {
      profile = std::move(parsed).value();
    }
  }
  profile.record(path);
  store_.save_access_profile(reference, profile.serialize());

  // Shared cache, then the registry.
  Bytes content;
  if (StatusOr<Bytes> cached = store_.cache_get(fp); cached.ok()) {
    content = std::move(cached).value();
  } else {
    // A demand fault: its staging bytes take the strict-priority lane of
    // the host budget, ahead of any queued prefetch batch.
    BudgetLease lease(host_budget_, size, AdmissionLane::kDemand, size);
    StatusOr<Bytes> fetched = file_registry_.download(fp);
    if (!fetched.ok()) {
      throw_error(fetched.code(), "materialize of " + path + " (" + fp.hex() +
                                      "): " + fetched.message());
    }
    content = std::move(fetched).value();
    store_.cache_put(fp, content);
  }
  store_.link_file(reference, path, fp);
  return content;
}

std::pair<std::size_t, std::uint64_t> LocalRuntime::prefetch(
    const std::string& reference, PrefetchOrder order) {
  if (!store_.has_index(reference)) {
    throw_error(ErrorCode::kNotFound, "no index installed: " + reference);
  }
  vfs::FileTree index = load_index_tree(reference);

  // Delta baseline + merged profile history of the whole series.
  const std::vector<std::string> installed = store_.references();
  vfs::FileTree previous_tree;
  const vfs::FileTree* previous = nullptr;
  ImageAccessProfile profile;
  const ImageAccessProfile* profile_ptr = nullptr;
  if (order != PrefetchOrder::kPath) {
    std::string prev = newest_other_version(installed, reference);
    if (!prev.empty()) {
      previous_tree = load_index_tree(prev);
      previous = &previous_tree;
    }
    if (order == PrefetchOrder::kProfile) {
      const std::string series = series_of(reference);
      for (const std::string& ref : installed) {
        if (series_of(ref) != series) continue;
        if (StatusOr<std::string> text = store_.load_access_profile(ref);
            text.ok()) {
          if (StatusOr<ImageAccessProfile> parsed =
                  ImageAccessProfile::parse(*text);
              parsed.ok()) {
            profile.merge(*parsed);
          }
        }
      }
      if (!profile.empty()) profile_ptr = &profile;
    }
  }

  PrefetchPlan plan = build_prefetch_plan(index, order, previous, profile_ptr);
  std::vector<FetchItem> wanted;
  for (PrefetchItem& item : plan.items) {
    if (store_.cache_contains(item.fingerprint)) continue;
    wanted.push_back({std::move(item.path), item.fingerprint, item.size});
  }
  std::size_t fetched = 0;
  std::uint64_t bytes = 0;
  fetch_batched(file_registry_, wanted, pool_, host_budget_,
                "prefetch of " + reference,
                [&](std::size_t i, Bytes content) {
                  bytes += content.size();
                  ++fetched;
                  store_.cache_put(wanted[i].fingerprint, content);
                });
  // Link every still-unmaterialized stub path from the now-warm cache.
  index.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (!node.is_fingerprint()) return;
    if (store_.is_materialized(reference, path)) return;
    // Under a capacity envelope, an entry this pass cached earlier may
    // already have been evicted again before anything pinned it. Leave the
    // stub — a later read demand-faults it in.
    if (!store_.cache_contains(node.fingerprint())) return;
    store_.link_file(reference, path, node.fingerprint());
  });
  return {fetched, bytes};
}

StatusOr<Bytes> LocalRuntime::read(const std::string& container_id,
                                   std::string_view path) {
  if (!store_.has_container(container_id)) {
    return {ErrorCode::kNotFound, "no container: " + container_id};
  }
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  GearFileViewer viewer(
      index, diff,
      [this, &reference](const std::string& union_path, const Fingerprint& fp,
                         std::uint64_t size) {
        return materialize(reference, union_path, fp, size);
      });
  return viewer.read_file(path);
}

StatusOr<std::string> LocalRuntime::read_symlink(
    const std::string& container_id, std::string_view path) {
  if (!store_.has_container(container_id)) {
    return {ErrorCode::kNotFound, "no container: " + container_id};
  }
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  GearFileViewer viewer(
      index, diff,
      [](const std::string&, const Fingerprint&, std::uint64_t) -> Bytes {
        throw_error(ErrorCode::kInternal, "symlink read fetched a file");
      });
  return viewer.read_symlink(path);
}

void LocalRuntime::write(const std::string& container_id,
                         std::string_view path, BytesView content) {
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  GearFileViewer viewer(
      index, diff,
      [](const std::string&, const Fingerprint&, std::uint64_t) -> Bytes {
        throw_error(ErrorCode::kInternal, "write fetched a file");
      });
  viewer.write_file(path, Bytes(content.begin(), content.end()));
  store_.save_diff(container_id, diff);
}

bool LocalRuntime::remove_path(const std::string& container_id,
                               std::string_view path) {
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  GearFileViewer viewer(
      index, diff,
      [](const std::string&, const Fingerprint&, std::uint64_t) -> Bytes {
        throw_error(ErrorCode::kInternal, "remove fetched a file");
      });
  bool removed = viewer.remove(path);
  if (removed) store_.save_diff(container_id, diff);
  return removed;
}

std::string LocalRuntime::commit(const std::string& container_id,
                                 const std::string& name,
                                 const std::string& tag) {
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  StatusOr<docker::Manifest> manifest = index_registry_.get_manifest(reference);
  if (!manifest.ok()) {
    throw_error(manifest.code(), "commit: manifest of " + reference + ": " +
                                     manifest.message());
  }
  docker::ImageConfig config = std::move(manifest->config);

  CommitResult result =
      GearCommitter().commit(index, diff, config, name, tag);
  push_gear_image(result.image, index_registry_, file_registry_);
  return name + ":" + tag;
}

void LocalRuntime::destroy(const std::string& container_id) {
  store_.remove_container(container_id);
}

}  // namespace gear
