#include "gear/persistence.hpp"

#include <unordered_set>

#include "gear/fs_store.hpp"  // sanitize_reference
#include "util/file_io.hpp"

namespace gear {
namespace fs = std::filesystem;

namespace {

/// Unlinks every entry of `dir` not named in `keep`: entries the registry
/// no longer holds, and torn temps from an interrupted save.
void unlink_stale(const fs::path& dir,
                  const std::unordered_set<std::string>& keep) {
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (keep.count(entry.path().filename().string()) == 0) {
      stale.push_back(entry.path());
    }
  }
  for (const fs::path& path : stale) fs::remove(path);
}

}  // namespace

PersistReport save_docker_registry(const docker::DockerRegistry& registry,
                                   const fs::path& root) {
  const fs::path blobs = root / "docker" / "blobs";
  const fs::path manifests = root / "docker" / "manifests";
  fs::create_directories(blobs);
  fs::create_directories(manifests);

  // Blobs land before the manifests that name them, and stale manifests go
  // before stale blobs, so no crash point leaves a manifest without its
  // blobs on disk.
  PersistReport report;
  std::unordered_set<std::string> blob_names;
  for (const docker::Digest& digest : registry.list_blobs()) {
    std::string name = digest.hex();
    fs::path path = blobs / name;
    if (!fs::exists(path)) {  // content-addressed: same name, same bytes
      write_file_durable(path, unwrap(registry.get_blob(digest),
                                      "save: docker blob " + name));
    }
    blob_names.insert(std::move(name));
    ++report.blobs;
  }
  std::unordered_set<std::string> manifest_names;
  for (const std::string& ref : registry.list_manifests()) {
    std::string name = sanitize_reference(ref) + ".json";
    fs::path path = manifests / name;
    Bytes json = to_bytes(unwrap(registry.get_manifest_json(ref),
                                 "save: docker manifest " + ref));
    if (!fs::exists(path) || read_file_bytes(path) != json) {
      write_file_durable(path, json);
    }
    manifest_names.insert(std::move(name));
    ++report.manifests;
  }
  unlink_stale(manifests, manifest_names);
  unlink_stale(blobs, blob_names);
  return report;
}

PersistReport load_docker_registry(const fs::path& root,
                                   docker::DockerRegistry* registry) {
  if (!fs::is_directory(root / "docker")) {
    throw_error(ErrorCode::kNotFound,
                "no persisted docker registry at " + root.string());
  }
  PersistReport report;
  for (const auto& entry : fs::directory_iterator(root / "docker" / "blobs")) {
    std::string name = entry.path().filename().string();
    if (is_durable_temp(name)) continue;  // torn write: never renamed in
    Bytes blob = read_file_bytes(entry.path());
    registry->put_blob(docker::Digest::from_string(name),
                       std::move(blob));  // verifies digest
    ++report.blobs;
  }
  for (const auto& entry :
       fs::directory_iterator(root / "docker" / "manifests")) {
    if (is_durable_temp(entry.path().filename().string())) continue;
    std::string json = to_string(read_file_bytes(entry.path()));
    docker::Manifest manifest = docker::Manifest::from_json_string(json);
    registry->put_manifest_json(manifest.reference(), std::move(json));
    ++report.manifests;
  }
  return report;
}

}  // namespace gear
