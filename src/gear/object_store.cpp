#include "gear/object_store.hpp"

#include <mutex>

#include "util/file_io.hpp"

namespace gear {
namespace fs = std::filesystem;

// ------------------------------------------------------------------ memory

bool MemoryObjectStore::contains(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.objects.count(fp) != 0;
}

bool MemoryObjectStore::put_if_absent(const Fingerprint& fp, Bytes compressed) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto [it, inserted] = shard.objects.emplace(fp, std::move(compressed));
  if (!inserted) return false;
  stored_bytes_.fetch_add(it->second.size(), std::memory_order_relaxed);
  return true;
}

StatusOr<Bytes> MemoryObjectStore::get(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) {
    return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
  }
  return it->second;
}

StatusOr<std::uint64_t> MemoryObjectStore::object_size(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) {
    return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
  }
  return it->second.size();
}

std::uint64_t MemoryObjectStore::erase(const Fingerprint& fp) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) return 0;
  std::uint64_t freed = it->second.size();
  shard.objects.erase(it);
  stored_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

std::vector<Fingerprint> MemoryObjectStore::list_objects() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, blob] : shard.objects) {
      (void)blob;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t MemoryObjectStore::object_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.objects.size();
  }
  return n;
}

bool MemoryObjectStore::contains_manifest(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.manifests.count(fp) != 0;
}

bool MemoryObjectStore::put_manifest_if_absent(const Fingerprint& fp,
                                               const ChunkManifest& manifest) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto [it, inserted] = shard.manifests.emplace(fp, manifest);
  if (!inserted) return false;
  stored_bytes_.fetch_add(it->second.serialize().size(),
                          std::memory_order_relaxed);
  return true;
}

StatusOr<ChunkManifest> MemoryObjectStore::get_manifest(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.manifests.find(fp);
  if (it == shard.manifests.end()) {
    return {ErrorCode::kNotFound, "manifest not found: " + fp.hex()};
  }
  return it->second;
}

std::uint64_t MemoryObjectStore::erase_manifest(const Fingerprint& fp) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto it = shard.manifests.find(fp);
  if (it == shard.manifests.end()) return 0;
  std::uint64_t freed = it->second.serialize().size();
  shard.manifests.erase(it);
  stored_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

std::vector<Fingerprint> MemoryObjectStore::list_manifests() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, manifest] : shard.manifests) {
      (void)manifest;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t MemoryObjectStore::manifest_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.manifests.size();
  }
  return n;
}

// -------------------------------------------------------------------- disk

namespace {

constexpr std::size_t kHexChars = 2 * Fingerprint::kSize;
constexpr const char* kManifestSuffix = ".gcm";

bool is_hex_name(std::string_view name) {
  if (name.size() != kHexChars) return false;
  for (char c : name) {
    bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
              (c >= 'A' && c <= 'F');
    if (!ok) return false;
  }
  return true;
}

}  // namespace

DiskObjectStore::DiskObjectStore(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_ / "objects");
  fs::create_directories(root_ / "chunked");

  for (const auto& entry : fs::directory_iterator(root_ / "objects")) {
    std::string name = entry.path().filename().string();
    if (is_durable_temp(name)) {
      // Torn write from a crash mid-upload: the object was never renamed
      // into place, so it never existed as far as readers are concerned.
      fs::remove(entry.path());
      ++reaped_temps_;
      continue;
    }
    if (!is_hex_name(name)) continue;  // foreign file: not ours to touch
    Fingerprint fp = Fingerprint::from_hex(name);
    std::uint64_t size = entry.file_size();
    shards_[object_store_shard(fp)].objects.emplace(fp, size);
    stored_bytes_.fetch_add(size, std::memory_order_relaxed);
  }

  for (const auto& entry : fs::directory_iterator(root_ / "chunked")) {
    std::string name = entry.path().filename().string();
    if (is_durable_temp(name)) {
      fs::remove(entry.path());
      ++reaped_temps_;
      continue;
    }
    if (name.size() != kHexChars + 4 ||
        name.compare(kHexChars, 4, kManifestSuffix) != 0 ||
        !is_hex_name(std::string_view(name).substr(0, kHexChars))) {
      continue;
    }
    Fingerprint fp = Fingerprint::from_hex(name.substr(0, kHexChars));
    Bytes raw = read_file_bytes(entry.path());
    // parse() throws kCorruptData on a damaged manifest — a manifest is
    // fully written before its rename, so this means real corruption.
    ChunkManifest manifest = ChunkManifest::parse(raw);
    shards_[object_store_shard(fp)].manifests.emplace(fp, std::move(manifest));
    stored_bytes_.fetch_add(raw.size(), std::memory_order_relaxed);
  }
}

fs::path DiskObjectStore::object_path(const Fingerprint& fp) const {
  return root_ / "objects" / fp.hex();
}

fs::path DiskObjectStore::manifest_path(const Fingerprint& fp) const {
  return root_ / "chunked" / (fp.hex() + kManifestSuffix);
}

bool DiskObjectStore::contains(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.objects.count(fp) != 0;
}

bool DiskObjectStore::put_if_absent(const Fingerprint& fp, Bytes compressed) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  if (shard.objects.count(fp) != 0) return false;
  // Write while holding the shard exclusively: the temp name <hex>.tmp is
  // collision-free because all writers of this fingerprint serialize here.
  write_file_durable(object_path(fp), compressed);
  shard.objects.emplace(fp, compressed.size());
  stored_bytes_.fetch_add(compressed.size(), std::memory_order_relaxed);
  return true;
}

StatusOr<Bytes> DiskObjectStore::get(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  if (shard.objects.count(fp) == 0) {
    return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
  }
  return read_file_bytes(object_path(fp));
}

StatusOr<std::uint64_t> DiskObjectStore::object_size(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) {
    return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
  }
  return it->second;
}

std::uint64_t DiskObjectStore::erase(const Fingerprint& fp) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) return 0;
  std::uint64_t freed = it->second;
  fs::remove(object_path(fp));
  shard.objects.erase(it);
  stored_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

std::vector<Fingerprint> DiskObjectStore::list_objects() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, size] : shard.objects) {
      (void)size;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t DiskObjectStore::object_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.objects.size();
  }
  return n;
}

bool DiskObjectStore::contains_manifest(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.manifests.count(fp) != 0;
}

bool DiskObjectStore::put_manifest_if_absent(const Fingerprint& fp,
                                             const ChunkManifest& manifest) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  if (shard.manifests.count(fp) != 0) return false;
  Bytes raw = manifest.serialize();
  write_file_durable(manifest_path(fp), raw);
  shard.manifests.emplace(fp, manifest);
  stored_bytes_.fetch_add(raw.size(), std::memory_order_relaxed);
  return true;
}

StatusOr<ChunkManifest> DiskObjectStore::get_manifest(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.manifests.find(fp);
  if (it == shard.manifests.end()) {
    return {ErrorCode::kNotFound, "manifest not found: " + fp.hex()};
  }
  return it->second;
}

std::uint64_t DiskObjectStore::erase_manifest(const Fingerprint& fp) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto it = shard.manifests.find(fp);
  if (it == shard.manifests.end()) return 0;
  std::uint64_t freed = it->second.serialize().size();
  fs::remove(manifest_path(fp));
  shard.manifests.erase(it);
  stored_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

std::vector<Fingerprint> DiskObjectStore::list_manifests() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, manifest] : shard.manifests) {
      (void)manifest;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t DiskObjectStore::manifest_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.manifests.size();
  }
  return n;
}

}  // namespace gear
