// Docker registry persistence: save/load the Docker half of a store to a
// plain directory.
//
// Layout (what a real deployment would keep on the registry host's disk):
//
//   <root>/docker/blobs/<sha256-hex>         compressed layer tarballs
//   <root>/docker/manifests/<ref>.json       manifest documents
//
// The Gear files have no snapshot format: they live in a DiskObjectStore
// (gear/object_store.hpp), which is durable on its own.
//
// Crash safety: a save writes only what changed, each file through
// write_file_durable (sibling "<name>.tmp", fsync, rename), and unlinks only
// the entries the registry no longer holds. A process killed mid-save
// therefore leaves every earlier image loadable; a torn "*.tmp" is skipped
// on load and removed by the next save.
#pragma once

#include <filesystem>

#include "docker/registry.hpp"

namespace gear {

struct PersistReport {
  std::size_t blobs = 0;
  std::size_t manifests = 0;
};

/// Writes the Docker registry under `<root>/docker` (created if needed) as
/// a full snapshot: entries removed from the registry (deleted manifests,
/// GC-swept blobs) are unlinked on disk too, so they never come back on
/// load. Blobs already on disk and unchanged manifests are not rewritten.
PersistReport save_docker_registry(const docker::DockerRegistry& registry,
                                   const std::filesystem::path& root);

/// Loads the Docker registry from `<root>/docker`. Throws Error(kNotFound)
/// when the layout is missing, kCorruptData on damaged content.
PersistReport load_docker_registry(const std::filesystem::path& root,
                                   docker::DockerRegistry* registry);

}  // namespace gear
