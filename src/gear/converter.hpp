// Gear Converter: turns a root filesystem into a Gear image.
//
// Runs registry-side, once per image (paper §III-B): walk the root
// filesystem building the Gear index and the set of unique Gear files. A
// layered Docker image is first flattened (decompress the layers
// bottom-to-top, replay them applying whiteouts); a directory import
// (gearctl) hands its tree over directly, with no layers built. The index
// is packaged as a single-layer Docker image carrying the original image's
// config (env/entrypoint), so Docker tooling stores and distributes it
// unchanged (paper §III-C).
//
// Collision handling (paper §III-B): when two different contents map to the
// same fingerprint — impossible in practice with MD5, but exercised in tests
// via a truncated hasher — the converter detects it by content comparison
// and assigns the newcomer a salted unique fingerprint, disabling dedup for
// that file only.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "docker/image.hpp"
#include "gear/index.hpp"
#include "sim/disk.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace gear {

struct ConversionStats {
  std::size_t files_seen = 0;       // regular files in the root fs
  std::size_t files_unique = 0;     // distinct Gear files produced
  std::size_t collisions = 0;       // salted unique IDs assigned
  std::uint64_t bytes_seen = 0;     // logical file bytes
  std::uint64_t index_wire_bytes = 0;  // compressed index layer size

  friend bool operator==(const ConversionStats&,
                         const ConversionStats&) = default;
};

struct ConversionResult {
  GearImage image;
  ConversionStats stats;
};

class GearConverter {
 public:
  /// `existing_lookup` resolves a fingerprint to content already stored in
  /// the Gear registry, letting conversion detect collisions against files
  /// from previously converted images; pass nullptr to check only within
  /// the image being converted.
  explicit GearConverter(
      const FingerprintHasher& hasher = default_hasher(),
      std::function<std::optional<Bytes>(const Fingerprint&)> existing_lookup =
          nullptr);

  /// Converts the root filesystem `root`. The index image is named
  /// "<name>:<tag>" and carries `config`; its manifest is distinguishable
  /// from a classic image by the "gear.index" label.
  ConversionResult convert(const vfs::FileTree& root, std::string name,
                           std::string tag, docker::ImageConfig config) const;

  /// Converts a layered image: its flattened tree, under its manifest's
  /// name, tag and config.
  ConversionResult convert(const docker::Image& image) const;

  /// Converts while charging the work to a disk model: reading the
  /// compressed layers, writing back the unpacked tree, reading it for the
  /// walk, and writing unique Gear files + the index (Fig. 6's cost).
  /// Returns the simulated seconds taken alongside the result.
  ConversionResult convert_timed(const docker::Image& image,
                                 sim::DiskModel& disk,
                                 double* seconds_out) const;

  /// Sets the worker budget for convert(): per-file fingerprinting fans out
  /// across a pool of `resolved_workers()` threads; collision resolution and
  /// stats stay an ordered single-threaded reduce, so the result (index,
  /// stats, file set, salted IDs) is byte-identical at any width.
  /// A converter is not itself thread-safe: call convert() from one thread.
  void set_concurrency(const util::Concurrency& concurrency) {
    concurrency_ = concurrency;
    pool_.reset();
  }
  const util::Concurrency& concurrency() const noexcept { return concurrency_; }

  /// Resolves the fingerprint for `content`: normally hasher(content), but
  /// salted to a unique value when a different content already owns that
  /// fingerprint. `local` is the in-conversion map of assigned fingerprints.
  /// `precomputed` (optional) supplies hasher(content) when the caller has
  /// already fingerprinted the content (the parallel pre-pass).
  Fingerprint resolve_fingerprint(
      const Bytes& content,
      const std::unordered_map<Fingerprint, const Bytes*, FingerprintHash>&
          local,
      bool* collided, const Fingerprint* precomputed = nullptr) const;

 private:
  util::ThreadPool& pool() const;

  const FingerprintHasher& hasher_;
  std::function<std::optional<Bytes>(const Fingerprint&)> existing_lookup_;
  util::Concurrency concurrency_;
  mutable std::unique_ptr<util::ThreadPool> pool_;  // lazily built
};

/// Marker label the converter writes into index-image manifests.
inline constexpr const char* kGearIndexLabel = "gear.index";

}  // namespace gear
