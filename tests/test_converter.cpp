// Unit tests for the Gear Converter, including hash-collision handling and
// timed (Fig. 6 style) conversion.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "docker/image.hpp"
#include "gear/converter.hpp"
#include "gear/registry.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

docker::Image two_layer_image(std::uint64_t seed) {
  vfs::FileTree s0 = gear::testing::random_tree(seed, 25);
  vfs::FileTree s1 = gear::testing::mutate_tree(s0, seed + 1, 10);
  docker::ImageBuilder b;
  b.add_snapshot(s0).add_snapshot(s1);
  docker::ImageConfig cfg;
  cfg.env = {"APP=demo"};
  cfg.entrypoint = {"/bin/demo"};
  return b.build("demo", "v1", cfg);
}

TEST(Converter, IndexMatchesFlattenedImage) {
  docker::Image image = two_layer_image(500);
  ConversionResult result = GearConverter().convert(image);

  vfs::FileTree root = image.flatten();
  vfs::TreeStats root_stats = root.stats();
  EXPECT_EQ(result.stats.files_seen, root_stats.regular_files);
  EXPECT_EQ(result.stats.bytes_seen, root_stats.total_file_bytes);
  EXPECT_EQ(result.image.index.referenced_bytes(),
            root_stats.total_file_bytes);

  // Every stub resolves to a produced Gear file with matching content hash.
  std::map<Fingerprint, const Bytes*> files;
  for (const auto& [fp, content] : result.image.files) {
    files[fp] = &content;
  }
  for (const auto& stub : result.image.index.stubs()) {
    auto it = files.find(stub.fingerprint);
    ASSERT_NE(it, files.end()) << stub.path;
    const vfs::FileNode* orig = root.lookup(stub.path);
    ASSERT_NE(orig, nullptr);
    EXPECT_EQ(*it->second, orig->content()) << stub.path;
  }
}

TEST(Converter, ReconstructionIsLossless) {
  // Materializing every stub must reproduce the original root filesystem.
  docker::Image image = two_layer_image(510);
  ConversionResult result = GearConverter().convert(image);

  std::map<Fingerprint, Bytes> pool;
  for (auto& [fp, content] : result.image.files) pool[fp] = content;

  vfs::FileTree rebuilt;
  rebuilt.root().metadata() = result.image.index.tree().root().metadata();
  result.image.index.tree().walk(
      [&](const std::string& path, const vfs::FileNode& node) {
        switch (node.type()) {
          case vfs::NodeType::kDirectory:
            rebuilt.add_directory(path, node.metadata());
            break;
          case vfs::NodeType::kSymlink:
            rebuilt.add_symlink(path, node.link_target(), node.metadata());
            break;
          case vfs::NodeType::kFingerprint:
            rebuilt.add_file(path, pool.at(node.fingerprint()),
                             node.metadata());
            break;
          default:
            FAIL() << "unexpected node at " << path;
        }
      });
  EXPECT_TRUE(rebuilt.equals(image.flatten()));
}

TEST(Converter, DuplicateContentProducesOneGearFile) {
  vfs::FileTree root;
  root.add_file("a/x", to_bytes("shared-bytes"));
  root.add_file("b/y", to_bytes("shared-bytes"));
  root.add_file("c/z", to_bytes("unique-bytes"));
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("dup", "1", {});

  ConversionResult result = GearConverter().convert(image);
  EXPECT_EQ(result.stats.files_seen, 3u);
  EXPECT_EQ(result.stats.files_unique, 2u);
  EXPECT_EQ(result.stats.collisions, 0u);
}

TEST(Converter, IndexImageIsSingleLayerWithConfigAndLabel) {
  docker::Image image = two_layer_image(520);
  ConversionResult result = GearConverter().convert(image);
  const docker::Image& idx = result.image.index_image;
  EXPECT_EQ(idx.layers.size(), 1u);
  EXPECT_EQ(idx.manifest.name, "demo");
  EXPECT_EQ(idx.manifest.tag, "v1");
  // Original env/entrypoint copied (paper §III-C).
  EXPECT_EQ(idx.manifest.config.env, image.manifest.config.env);
  EXPECT_EQ(idx.manifest.config.entrypoint, image.manifest.config.entrypoint);
  EXPECT_EQ(idx.manifest.config.labels.at(kGearIndexLabel), "1");
  // And the index layer is much smaller than the original image.
  EXPECT_LT(idx.compressed_size(), image.compressed_size());
}

TEST(Converter, CollisionDetectedWithWeakHash) {
  // An 8-bit hash collides constantly; contents must still be kept distinct
  // through salted unique IDs (paper §III-B collision handling).
  TruncatedFingerprintHasher weak(8);
  vfs::FileTree root;
  Rng rng(530);
  const int kFiles = 120;  // >> 256 would guarantee; 120 makes it very likely
  for (int i = 0; i < kFiles; ++i) {
    root.add_file("f/" + std::to_string(i), rng.next_bytes(64));
  }
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("weak", "1", {});

  ConversionResult result = GearConverter(weak).convert(image);
  EXPECT_GT(result.stats.collisions, 0u);
  // Correctness first: every distinct content keeps its own Gear file.
  EXPECT_EQ(result.stats.files_unique, static_cast<std::size_t>(kFiles));
  // All assigned fingerprints distinct.
  std::set<Fingerprint> fps;
  for (const auto& [fp, content] : result.image.files) {
    (void)content;
    EXPECT_TRUE(fps.insert(fp).second);
  }
  // And every stub still resolves to the right content.
  std::map<Fingerprint, Bytes> pool;
  for (auto& [fp, content] : result.image.files) pool[fp] = content;
  vfs::FileTree flat = image.flatten();
  for (const auto& stub : result.image.index.stubs()) {
    EXPECT_EQ(pool.at(stub.fingerprint), flat.lookup(stub.path)->content());
  }
}

TEST(Converter, CollisionAgainstExistingRegistryContent) {
  TruncatedFingerprintHasher weak(4);  // 16 possible fingerprints
  GearRegistry registry;
  Bytes original = to_bytes("original-content");
  Fingerprint fp0 = weak.fingerprint(original);
  registry.upload(fp0, original);

  // Find content colliding with fp0 under the weak hash.
  Rng rng(540);
  Bytes collider;
  for (;;) {
    collider = rng.next_bytes(24);
    if (weak.fingerprint(collider) == fp0 && collider != original) break;
  }

  vfs::FileTree root;
  root.add_file("c", collider);
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("coll", "1", {});

  GearConverter converter(weak, [&registry](const Fingerprint& fp) {
    StatusOr<Bytes> got = registry.download(fp);
    return got.ok() ? std::optional<Bytes>(std::move(got).value())
                    : std::nullopt;
  });
  ConversionResult result = converter.convert(image);
  EXPECT_EQ(result.stats.collisions, 1u);
  ASSERT_EQ(result.image.files.size(), 1u);
  EXPECT_NE(result.image.files[0].first, fp0);  // salted unique ID
}

TEST(Converter, DedupAgainstExistingRegistryContent) {
  GearRegistry registry;
  Bytes shared = to_bytes("already-stored");
  Fingerprint fp = default_hasher().fingerprint(shared);
  registry.upload(fp, shared);

  vfs::FileTree root;
  root.add_file("s", shared);
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("dedup", "1", {});

  GearConverter converter(default_hasher(),
                          [&registry](const Fingerprint& f) {
                            StatusOr<Bytes> got = registry.download(f);
                            return got.ok()
                                       ? std::optional<Bytes>(std::move(got).value())
                                       : std::nullopt;
                          });
  ConversionResult result = converter.convert(image);
  EXPECT_EQ(result.stats.collisions, 0u);
  ASSERT_EQ(result.image.files.size(), 1u);
  EXPECT_EQ(result.image.files[0].first, fp);  // same fingerprint: dedup
}

TEST(Converter, TimedConversionScalesWithSizeAndDisk) {
  docker::Image small = two_layer_image(550);
  vfs::FileTree big_tree = gear::testing::random_tree(551, 120, 32768);
  docker::ImageBuilder bb;
  bb.add_snapshot(big_tree);
  docker::Image big = bb.build("big", "1", {});

  sim::SimClock clock;
  sim::DiskModel hdd = sim::DiskModel::hdd(clock);
  double t_small = 0, t_big = 0;
  GearConverter converter;
  converter.convert_timed(small, hdd, &t_small);
  converter.convert_timed(big, hdd, &t_big);
  EXPECT_GT(t_big, t_small);

  // SSD conversion markedly faster than HDD (paper: node 105 s -> 36 s).
  sim::SimClock clock2;
  sim::DiskModel ssd = sim::DiskModel::ssd(clock2);
  double t_big_ssd = 0;
  converter.convert_timed(big, ssd, &t_big_ssd);
  EXPECT_GT(t_big, t_big_ssd * 2);
}

TEST(Converter, ConversionIsDeterministic) {
  docker::Image image = two_layer_image(560);
  ConversionResult a = GearConverter().convert(image);
  ConversionResult b = GearConverter().convert(image);
  EXPECT_TRUE(a.image.index.tree().equals(b.image.index.tree()));
  EXPECT_EQ(a.image.files.size(), b.image.files.size());
  EXPECT_EQ(a.image.index_image.layers[0].digest(),
            b.image.index_image.layers[0].digest());
}

// ------------------------------------------------ direct tree conversion

/// A random tree plus what gearctl imports from real directories: an empty
/// directory, a file larger than one 128 KiB chunk, and non-default
/// metadata.
vfs::FileTree import_like_tree(std::uint64_t seed) {
  vfs::FileTree t = gear::testing::random_tree(seed, 40);
  t.add_directory("srv/empty/nested", {0755, 0, 0, 1700000000});
  Rng rng(seed + 100);
  t.add_file("usr/share/model.bin", rng.next_bytes(300 * 1024, 0.4),
             {0600, 1000, 1000, 1700000123});
  t.add_symlink("srv/current", "../usr/share/model.bin");
  return t;
}

/// The tree overload (gearctl import) and the layered adapter over a
/// one-layer image of the same tree must give the same Gear image. Returns
/// the conversion's stats.
ConversionStats expect_same_as_layered(const GearConverter& converter,
                                       const vfs::FileTree& tree) {
  docker::ImageConfig cfg;
  cfg.env = {"APP=demo"};
  cfg.labels["gearctl.import.source"] = "/srv/demo";
  ConversionResult direct = converter.convert(tree, "demo", "v1", cfg);
  ConversionResult layered = converter.convert(
      docker::ImageBuilder().add_snapshot(tree).build("demo", "v1", cfg));

  EXPECT_EQ(direct.image.index_image.manifest,
            layered.image.index_image.manifest);
  EXPECT_EQ(direct.image.index_image.layers.size(), 1u);
  EXPECT_EQ(direct.image.index_image.layers.front().digest(),
            layered.image.index_image.layers.front().digest());
  EXPECT_EQ(direct.image.files, layered.image.files);  // same order too
  EXPECT_EQ(direct.stats, layered.stats);
  return direct.stats;
}

TEST(Converter, TreeConversionMatchesLayeredImage) {
  for (std::uint64_t seed : {600, 601, 602, 603}) {
    SCOPED_TRACE(seed);
    vfs::FileTree tree = import_like_tree(seed);
    expect_same_as_layered(GearConverter(), tree);
    GearConverter parallel;
    parallel.set_concurrency({/*workers=*/3});
    expect_same_as_layered(parallel, tree);
  }
}

TEST(Converter, TreeConversionMatchesLayeredImageUnderCollisions) {
  // An 8-bit hash against a registry already holding other content: the
  // lookup forces salted unique IDs, which must come out identical.
  TruncatedFingerprintHasher weak(8);
  GearRegistry registry;
  vfs::FileTree stored = gear::testing::random_tree(610, 40);
  stored.walk([&](const std::string& path, const vfs::FileNode& node) {
    (void)path;
    if (node.is_regular()) {
      registry.upload(weak.fingerprint(node.content()), node.content());
    }
  });
  GearConverter converter(weak, [&registry](const Fingerprint& fp) {
    StatusOr<Bytes> got = registry.download(fp);
    return got.ok() ? std::optional<Bytes>(std::move(got).value())
                    : std::nullopt;
  });
  for (std::uint64_t seed : {611, 612}) {
    SCOPED_TRACE(seed);
    EXPECT_GT(expect_same_as_layered(converter, import_like_tree(seed))
                  .collisions,
              0u);
  }
}

}  // namespace
}  // namespace gear
