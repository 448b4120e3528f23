#include "gear/converter.hpp"

#include <unordered_map>

#include "util/error.hpp"

namespace gear {

GearConverter::GearConverter(
    const FingerprintHasher& hasher,
    std::function<std::optional<Bytes>(const Fingerprint&)> existing_lookup)
    : hasher_(hasher), existing_lookup_(std::move(existing_lookup)) {}

util::ThreadPool& GearConverter::pool() const {
  std::size_t width = concurrency_.resolved_workers();
  if (!pool_ || pool_->worker_count() != width) {
    pool_ = std::make_unique<util::ThreadPool>(width);
  }
  return *pool_;
}

Fingerprint GearConverter::resolve_fingerprint(
    const Bytes& content,
    const std::unordered_map<Fingerprint, const Bytes*, FingerprintHash>&
        local,
    bool* collided, const Fingerprint* precomputed) const {
  *collided = false;
  Bytes salted;  // lazily built: content || 0x01 || salt varint
  std::uint64_t salt = 0;
  Fingerprint fp =
      precomputed != nullptr ? *precomputed : hasher_.fingerprint(content);
  for (;;) {
    // Compare against content already assigned this fingerprint.
    const Bytes* owner = nullptr;
    if (auto it = local.find(fp); it != local.end()) {
      owner = it->second;
    }
    std::optional<Bytes> remote;
    if (owner == nullptr && existing_lookup_) {
      remote = existing_lookup_(fp);
      if (remote.has_value()) owner = &*remote;
    }
    if (owner == nullptr || *owner == content) {
      return fp;  // fresh fingerprint, or true duplicate (dedup)
    }
    // Collision: same fingerprint, different bytes. Assign a salted unique
    // ID in place of the fingerprint (paper §III-B) and re-check.
    *collided = true;
    salted.assign(content.begin(), content.end());
    salted.push_back(0x01);
    for (std::uint64_t s = ++salt; s != 0; s >>= 8) {
      salted.push_back(static_cast<std::uint8_t>(s));
    }
    fp = hasher_.fingerprint(salted);
  }
}

ConversionResult GearConverter::convert(const docker::Image& image) const {
  return convert(image.flatten(), image.manifest.name, image.manifest.tag,
                 image.manifest.config);
}

ConversionResult GearConverter::convert(const vfs::FileTree& root,
                                        std::string name, std::string tag,
                                        docker::ImageConfig config) const {
  ConversionResult result;
  ConversionStats& stats = result.stats;

  // Parallel pre-pass: hash every regular file across the pool. Contents are
  // collected in walk order, so `raw[i]` lines up with the i-th regular file
  // the index-building walk below will visit.
  std::vector<const Bytes*> contents;
  root.walk([&contents](const std::string& path, const vfs::FileNode& node) {
    (void)path;
    if (node.type() == vfs::NodeType::kRegular) {
      contents.push_back(&node.content());
    }
  });
  std::vector<Fingerprint> raw;
  if (contents.size() < 4 || concurrency_.resolved_workers() <= 1) {
    raw.reserve(contents.size());  // too small to pay pool hand-off costs
    for (const Bytes* c : contents) raw.push_back(hasher_.fingerprint(*c));
  } else {
    raw = pool().parallel_map<Fingerprint>(
        contents.size(),
        [&](std::size_t i) { return hasher_.fingerprint(*contents[i]); },
        concurrency_.max_inflight_bytes,
        [&](std::size_t i) { return contents[i]->size(); });
  }

  // Ordered serial reduce: collision resolution and salted-ID assignment
  // walk the files in the same order as the serial implementation, so stats
  // and the unique-file set are identical at any worker count.
  std::unordered_map<Fingerprint, const Bytes*, FingerprintHash> assigned;
  std::vector<std::pair<Fingerprint, Bytes>> files;
  std::size_t next_file = 0;

  GearIndex index = GearIndex::from_root_fs(
      root, [&](const std::string& path, const Bytes& content) {
        (void)path;
        ++stats.files_seen;
        stats.bytes_seen += content.size();
        bool collided = false;
        Fingerprint fp = resolve_fingerprint(content, assigned, &collided,
                                             &raw[next_file++]);
        if (collided) ++stats.collisions;
        if (assigned.emplace(fp, &content).second) {
          files.emplace_back(fp, content);
        }
        return fp;
      });
  stats.files_unique = files.size();

  // Package the index as a single-layer Docker image with the original
  // config (env/entrypoint copied so the application still runs, §III-C).
  config.labels[kGearIndexLabel] = "1";
  docker::ImageBuilder builder;
  builder.add_snapshot(index.to_wire_tree());
  docker::Image index_image =
      builder.build(std::move(name), std::move(tag), std::move(config));
  stats.index_wire_bytes = index_image.compressed_size();

  result.image.index_image = std::move(index_image);
  result.image.index = std::move(index);
  result.image.files = std::move(files);
  return result;
}

ConversionResult GearConverter::convert_timed(const docker::Image& image,
                                              sim::DiskModel& disk,
                                              double* seconds_out) const {
  // Every modeled step returns its cost; sum them for the conversion time.
  double total = 0.0;

  // Read the compressed layer blobs from registry disk.
  for (const docker::Layer& layer : image.layers) {
    total += disk.read(layer.compressed_size());
    // Decompress + unpack the layer into the reconstruction area.
    total += disk.write(layer.uncompressed_size());
  }

  ConversionResult result = convert(image);

  // Traverse the reconstructed file system: one metadata op per tree node,
  // one read per regular file.
  vfs::TreeStats tstats = result.image.index.tree().stats();
  for (std::uint64_t i = 0;
       i < tstats.directories + tstats.symlinks + tstats.fingerprint_stubs;
       ++i) {
    total += disk.touch();
  }
  for (const auto& [fp, content] : result.image.files) {
    (void)fp;
    total += disk.read(content.size());
    total += disk.write(content.size());  // store the Gear file
  }
  // Write the index image (tiny).
  total += disk.write(result.stats.index_wire_bytes);

  if (seconds_out != nullptr) *seconds_out = total;
  return result;
}

}  // namespace gear
