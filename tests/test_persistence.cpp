// Tests for filesystem I/O (directory <-> tree), the Docker registry
// snapshot (gear/persistence): round trip, full-snapshot deletes, and the
// crash-safe incremental save, and the Gear files kept beside it in a
// DiskObjectStore across a restart.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>

#include <sys/stat.h>

#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/object_store.hpp"
#include "gear/persistence.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "vfs/fs_io.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  fs::path p = fs::path(::testing::TempDir()) /
               ("gear_persist_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

// ------------------------------------------------------------------ fs_io

TEST(FsIo, DirectoryRoundTrip) {
  fs::path src = fresh_dir("roundtrip_src");
  fs::path dst = fresh_dir("roundtrip_dst");

  vfs::FileTree tree = gear::testing::random_tree(600, 20);
  vfs::write_tree(tree, src);
  vfs::FileTree loaded = vfs::load_tree(src);

  // Content and structure must match (metadata mode/mtime differ: the real
  // filesystem applies umask and write time).
  int files = 0;
  tree.walk([&](const std::string& path, const vfs::FileNode& node) {
    const vfs::FileNode* got = loaded.lookup(path);
    ASSERT_NE(got, nullptr) << path;
    EXPECT_EQ(got->type(), node.type()) << path;
    if (node.is_regular()) {
      EXPECT_EQ(got->content(), node.content()) << path;
      ++files;
    }
    if (node.is_symlink()) {
      EXPECT_EQ(got->link_target(), node.link_target()) << path;
    }
  });
  EXPECT_GT(files, 0);

  // And the loaded tree exports back identically (fixpoint).
  vfs::write_tree(loaded, dst);
  vfs::FileTree again = vfs::load_tree(dst);
  int files2 = 0;
  loaded.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (!node.is_regular()) return;
    EXPECT_EQ(again.lookup(path)->content(), node.content()) << path;
    ++files2;
  });
  EXPECT_EQ(files, files2);

  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(FsIo, MtimeIsSaneUnixEpoch) {
  // Regression: fs::file_time_type has an implementation-defined epoch;
  // a naive cast produced mtimes that overflowed the tar octal field.
  fs::path src = fresh_dir("mtime");
  std::ofstream(src / "f.txt") << "x";
  vfs::FileTree tree = vfs::load_tree(src);
  std::uint64_t mtime = tree.lookup("f.txt")->metadata().mtime;
  EXPECT_GT(mtime, 1500000000u);  // after 2017
  EXPECT_LT(mtime, 4102444800u);  // before 2100
  // And it must survive tar's 11-digit octal field.
  docker::Layer layer = docker::Layer::from_tree(tree);
  EXPECT_TRUE(layer.to_tree().lookup("f.txt") != nullptr);
  fs::remove_all(src);
}

TEST(FsIo, ByteBudgetEnforced) {
  fs::path src = fresh_dir("budget");
  std::ofstream(src / "big.bin") << std::string(10000, 'b');
  vfs::LoadOptions options;
  options.max_total_bytes = 100;
  EXPECT_THROW(vfs::load_tree(src, options), Error);
  fs::remove_all(src);
}

TEST(FsIo, MissingDirectoryRejected) {
  EXPECT_THROW(vfs::load_tree("/no/such/dir/anywhere"), Error);
}

TEST(FsIo, ExportRejectsStubsAndWhiteouts) {
  fs::path dst = fresh_dir("reject");
  vfs::FileTree stubby;
  stubby.add_fingerprint_stub("s", default_hasher().fingerprint(to_bytes("x")),
                              1);
  EXPECT_THROW(vfs::write_tree(stubby, dst), Error);
  vfs::FileTree whiteouty;
  whiteouty.add_whiteout("w");
  EXPECT_THROW(vfs::write_tree(whiteouty, dst), Error);
  fs::remove_all(dst);
}

// ------------------------------------------------------------ persistence

struct PersistenceFixture : ::testing::Test {
  fs::path root;
  docker::DockerRegistry docker_registry;
  GearRegistry gear_registry;

  void SetUp() override { root = fresh_dir("registries"); }
  void TearDown() override { fs::remove_all(root); }

  void push_one(std::uint64_t seed, const std::string& name) {
    push_one(seed, name, gear_registry, {});
  }

  // Pushes into `gear`, with one big file so chunking has something to
  // bite on.
  void push_one(std::uint64_t seed, const std::string& name, GearRegistry& gear,
                const ChunkPolicy& policy) {
    vfs::FileTree t = gear::testing::random_tree(seed, 15);
    Rng rng(seed + 1);
    t.add_file("big/model.bin", rng.next_bytes(48 * 1024, 0.3));
    push_gear_image(GearConverter().convert(t, name, "v1", {}).image,
                    docker_registry, gear, policy);
  }
};

TEST_F(PersistenceFixture, SaveLoadRoundTrip) {
  push_one(700, "app");
  PersistReport saved = save_docker_registry(docker_registry, root);
  EXPECT_GT(saved.blobs, 0u);
  EXPECT_EQ(saved.manifests, 1u);

  docker::DockerRegistry docker2;
  PersistReport loaded = load_docker_registry(root, &docker2);
  EXPECT_EQ(loaded.blobs, saved.blobs);
  EXPECT_EQ(loaded.manifests, saved.manifests);

  // Identical logical state.
  EXPECT_EQ(docker2.get_manifest("app:v1").value(),
            docker_registry.get_manifest("app:v1").value());
  EXPECT_EQ(docker2.storage_bytes(), docker_registry.storage_bytes());
  for (const docker::Digest& digest : docker_registry.list_blobs()) {
    EXPECT_EQ(docker2.get_blob(digest).value(),
              docker_registry.get_blob(digest).value());
  }
}

TEST_F(PersistenceFixture, ChunkedFilesSurviveRoundTrip) {
  // The Gear files of a store live in a DiskObjectStore next to the Docker
  // snapshot; after a restart both come back, chunked files still chunked.
  const ChunkPolicy policy{16 * 1024, 8 * 1024};
  std::map<Fingerprint, ChunkManifest> manifests;
  std::map<Fingerprint, Bytes> contents;
  {
    GearRegistry gear(std::make_unique<DiskObjectStore>(root / "gear"));
    push_one(710, "ai", gear, policy);
    ASSERT_FALSE(gear.list_chunked().empty());
    for (const Fingerprint& fp : gear.list_chunked()) {
      manifests.emplace(fp, gear.chunk_manifest(fp).value());
      contents.emplace(fp, gear.download(fp).value());
    }
    save_docker_registry(docker_registry, root);
  }

  docker::DockerRegistry docker2;
  load_docker_registry(root, &docker2);
  EXPECT_EQ(docker2.get_manifest("ai:v1").value(),
            docker_registry.get_manifest("ai:v1").value());
  GearRegistry gear2(std::make_unique<DiskObjectStore>(root / "gear"));
  EXPECT_EQ(gear2.list_chunked().size(), manifests.size());
  for (const auto& [fp, manifest] : manifests) {
    ASSERT_TRUE(gear2.is_chunked(fp));
    EXPECT_EQ(gear2.chunk_manifest(fp).value(), manifest);
    EXPECT_EQ(gear2.download(fp).value(), contents.at(fp));
  }
}

TEST_F(PersistenceFixture, SaveIsFullSnapshot) {
  // Regression: deleting a manifest then saving must not leave the old
  // manifest file behind to resurrect the image on load.
  push_one(720, "keep");
  push_one(721, "drop");
  save_docker_registry(docker_registry, root);

  docker_registry.delete_manifest("drop:v1");
  save_docker_registry(docker_registry, root);

  docker::DockerRegistry docker2;
  load_docker_registry(root, &docker2);
  EXPECT_TRUE(docker2.has_manifest("keep:v1"));
  EXPECT_FALSE(docker2.has_manifest("drop:v1"));
}

TEST_F(PersistenceFixture, SingleChunkFilesStoredPlain) {
  // Regression: a policy whose chunk size exceeds the file size must not
  // create a manifest aliasing its only chunk's fingerprint.
  const ChunkPolicy policy{16 * 1024, 1024 * 1024};
  std::size_t objects = 0;
  {
    GearRegistry gear(std::make_unique<DiskObjectStore>(root / "gear"));
    push_one(730, "single", gear, policy);
    EXPECT_TRUE(gear.list_chunked().empty());
    objects = gear.object_count();
    save_docker_registry(docker_registry, root);
  }
  // Round trip still clean, and still plain.
  docker::DockerRegistry docker2;
  EXPECT_NO_THROW(load_docker_registry(root, &docker2));
  GearRegistry gear2(std::make_unique<DiskObjectStore>(root / "gear"));
  EXPECT_TRUE(gear2.list_chunked().empty());
  EXPECT_EQ(gear2.object_count(), objects);
  for (const Fingerprint& fp : gear2.list_objects()) {
    EXPECT_NO_THROW((void)gear2.download(fp).value());
  }
}

TEST_F(PersistenceFixture, LoadMissingLayoutThrows) {
  docker::DockerRegistry d;
  EXPECT_THROW(load_docker_registry(root / "nothing_here", &d), Error);
}

TEST_F(PersistenceFixture, CorruptBlobDetectedOnLoad) {
  push_one(740, "app");
  save_docker_registry(docker_registry, root);
  // Flip a byte in some blob on disk.
  for (const auto& entry : fs::directory_iterator(root / "docker" / "blobs")) {
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xee');
    break;
  }
  docker::DockerRegistry d;
  EXPECT_THROW(load_docker_registry(root, &d), Error);  // digest mismatch
}

// ------------------------------------------- crash-safe incremental save

using DockerSnapshot = PersistenceFixture;

ino_t inode_of(const fs::path& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

TEST_F(DockerSnapshot, TornTempsAreIgnoredOnLoad) {
  // A process killed mid-save leaves "<name>.tmp" siblings of the entries
  // it was writing; load must skip them, and the next save removes them.
  push_one(750, "app");
  save_docker_registry(docker_registry, root);
  const std::string torn_hex(64, 'e');
  std::ofstream(root / "docker" / "blobs" / (torn_hex + ".tmp")) << "torn";
  std::ofstream(root / "docker" / "manifests" / "next_v1.json.tmp") << "{";

  docker::DockerRegistry loaded;
  PersistReport report = load_docker_registry(root, &loaded);
  EXPECT_EQ(report.blobs, docker_registry.blob_count());
  EXPECT_EQ(report.manifests, 1u);
  EXPECT_TRUE(loaded.has_manifest("app:v1"));

  save_docker_registry(loaded, root);
  EXPECT_FALSE(fs::exists(root / "docker" / "blobs" / (torn_hex + ".tmp")));
  EXPECT_FALSE(fs::exists(root / "docker" / "manifests" / "next_v1.json.tmp"));
}

TEST_F(DockerSnapshot, SaveAfterDeleteRemovesExactlyThatManifest) {
  push_one(760, "keep");
  push_one(761, "drop");
  save_docker_registry(docker_registry, root);
  const fs::path manifests = root / "docker" / "manifests";
  const fs::path blobs = root / "docker" / "blobs";
  std::set<std::string> before;
  for (const auto& entry : fs::directory_iterator(manifests)) {
    before.insert(entry.path().filename().string());
  }
  std::size_t blobs_before = static_cast<std::size_t>(std::distance(
      fs::directory_iterator(blobs), fs::directory_iterator()));

  ASSERT_TRUE(docker_registry.delete_manifest("drop:v1"));
  save_docker_registry(docker_registry, root);

  std::set<std::string> after;
  for (const auto& entry : fs::directory_iterator(manifests)) {
    after.insert(entry.path().filename().string());
  }
  before.erase("drop_v1.json");
  EXPECT_EQ(after, before);
  // The registry still holds the deleted image's blobs (only GC sweeps
  // them), so the snapshot keeps every one.
  EXPECT_EQ(static_cast<std::size_t>(std::distance(
                fs::directory_iterator(blobs), fs::directory_iterator())),
            blobs_before);
}

TEST_F(DockerSnapshot, UnchangedEntriesAreNotRewritten) {
  push_one(770, "first");
  save_docker_registry(docker_registry, root);
  std::map<fs::path, ino_t> inodes;
  for (const char* dir : {"blobs", "manifests"}) {
    for (const auto& entry : fs::directory_iterator(root / "docker" / dir)) {
      inodes[entry.path()] = inode_of(entry.path());
    }
  }
  ASSERT_FALSE(inodes.empty());

  // A later save with one more image writes only the new entries: every
  // file already on disk keeps its inode (a durable rewrite renames a new
  // file into place).
  push_one(771, "second");
  save_docker_registry(docker_registry, root);
  for (const auto& [path, inode] : inodes) {
    EXPECT_EQ(inode_of(path), inode) << path;
  }
  docker::DockerRegistry loaded;
  load_docker_registry(root, &loaded);
  EXPECT_TRUE(loaded.has_manifest("first:v1"));
  EXPECT_TRUE(loaded.has_manifest("second:v1"));
}

}  // namespace
}  // namespace gear
