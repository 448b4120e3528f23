// Tests for the disk-backed LocalRuntime: real-filesystem deployment
// semantics, persistence across reopen, differential equivalence with the
// in-memory client path, and the batched prefetch read path.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/fleet.hpp"
#include "gear/local_runtime.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

struct LocalRuntimeFixture : ::testing::Test {
  fs::path root;
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  docker::Image image;
  vfs::FileTree flat;

  void SetUp() override {
    root = fs::path(::testing::TempDir()) /
           ("gear_runtime_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root);

    vfs::FileTree t = gear::testing::random_tree(6000, 20, 4096);
    docker::ImageBuilder b;
    b.add_snapshot(t);
    image = b.build("app", "v1", {});
    flat = image.flatten();
    push_gear_image(GearConverter().convert(image).image, index_registry,
                    file_registry);
  }

  void TearDown() override { fs::remove_all(root); }
};

TEST_F(LocalRuntimeFixture, PullLaunchReadRoundTrip) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  EXPECT_TRUE(runtime.has_image("app:v1"));
  std::string container = runtime.launch("app:v1");

  int checked = 0;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular()) {
      EXPECT_EQ(runtime.read(container, path).value(), node.content()) << path;
      ++checked;
    } else if (node.is_symlink()) {
      EXPECT_EQ(runtime.read_symlink(container, path).value(),
                node.link_target());
    }
  });
  EXPECT_GT(checked, 0);
  // Files were hard-linked into the image directory: nlink 2.
  const vfs::FileNode* some = nullptr;
  std::string some_path;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && some == nullptr) {
      some = &node;
      some_path = path;
    }
  });
  Fingerprint fp = default_hasher().fingerprint(some->content());
  EXPECT_EQ(runtime.store().link_count(fp), 2u);
  EXPECT_TRUE(runtime.store().is_materialized("app:v1", some_path));
}

TEST_F(LocalRuntimeFixture, WritesPersistAcrossReopen) {
  std::string container;
  {
    LocalRuntime runtime(index_registry, file_registry, root);
    runtime.pull("app:v1");
    container = runtime.launch("app:v1");
    runtime.write(container, "srv/state.db", to_bytes("dirty-state"));
  }
  {
    // A new process reopening the same root resumes the same container:
    // the ref file and diff tree are recovered from disk.
    LocalRuntime runtime(index_registry, file_registry, root);
    EXPECT_TRUE(runtime.has_image("app:v1"));
    EXPECT_EQ(to_string(runtime.read(container, "srv/state.db").value()),
              "dirty-state");
    // New launches never reuse on-disk ids.
    std::string c2 = runtime.launch("app:v1");
    EXPECT_NE(c2, container);
  }
}

TEST_F(LocalRuntimeFixture, WriteMasksAndRemoveWhiteouts) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");

  // Overwrite an image file: diff copy wins; a sibling container is clean.
  std::string victim;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && victim.empty()) victim = path;
  });
  runtime.write(container, victim, to_bytes("patched"));
  EXPECT_EQ(to_string(runtime.read(container, victim).value()), "patched");

  std::string sibling = runtime.launch("app:v1");
  EXPECT_EQ(runtime.read(sibling, victim).value(),
            flat.lookup(victim)->content());

  // Remove: masked for this container only.
  EXPECT_TRUE(runtime.remove_path(container, victim));
  EXPECT_FALSE(runtime.read(container, victim).ok());
  EXPECT_TRUE(runtime.read(sibling, victim).ok());
}

TEST_F(LocalRuntimeFixture, CommitProducesDeployableImage) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");
  runtime.write(container, "app/patch.txt", to_bytes("hotfix"));
  std::string ref = runtime.commit(container, "app", "v1-patched");
  EXPECT_EQ(ref, "app:v1-patched");

  runtime.pull(ref);
  std::string c2 = runtime.launch(ref);
  EXPECT_EQ(to_string(runtime.read(c2, "app/patch.txt").value()), "hotfix");
  // Original content still resolves through the new index.
  int checked = 0;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && checked < 5) {
      EXPECT_EQ(runtime.read(c2, path).value(), node.content()) << path;
      ++checked;
    }
  });
}

TEST_F(LocalRuntimeFixture, DestroyKeepsImageLaunchable) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");
  runtime.destroy(container);
  EXPECT_FALSE(runtime.read(container, "anything").ok());
  EXPECT_NO_THROW(runtime.launch("app:v1"));
}

TEST_F(LocalRuntimeFixture, PullRejectsClassicImage) {
  index_registry.push_image(image);  // overwrite with classic manifest
  LocalRuntime runtime(index_registry, file_registry, root);
  EXPECT_THROW(runtime.pull("app:v1"), Error);
}

TEST_F(LocalRuntimeFixture, DifferentialWithSimClient) {
  // The same operation sequence through the disk runtime and the in-memory
  // client yields identical file views.
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string disk_container = runtime.launch("app:v1");

  sim::SimClock clock;
  sim::NetworkLink link(clock, 904.0, 0.0005, 0.0003);
  sim::DiskModel disk = sim::DiskModel::ssd(clock);
  GearClient client(index_registry, file_registry, link, disk);
  client.pull("app:v1");
  std::string mem_container = client.store().create_container("app:v1");
  GearFileViewer viewer = client.open_viewer(mem_container);

  Rng rng(6100);
  std::vector<std::string> paths;
  flat.walk([&paths](const std::string& p, const vfs::FileNode& n) {
    if (n.is_regular()) paths.push_back(p);
  });
  for (int op = 0; op < 40; ++op) {
    const std::string& target = paths[rng.next_below(paths.size())];
    double roll = rng.next_double();
    if (roll < 0.5) {
      StatusOr<Bytes> a = runtime.read(disk_container, target);
      StatusOr<Bytes> b = viewer.read_file(target);
      ASSERT_EQ(a.ok(), b.ok()) << target;
      if (a.ok()) {
        EXPECT_EQ(*a, *b) << target;
      }
    } else if (roll < 0.8) {
      Bytes content = rng.next_bytes(rng.next_range(1, 128), 0.4);
      runtime.write(disk_container, target, content);
      viewer.write_file(target, content);
    } else {
      EXPECT_EQ(runtime.remove_path(disk_container, target),
                viewer.remove(target))
          << target;
    }
  }
  for (const std::string& p : paths) {
    StatusOr<Bytes> a = runtime.read(disk_container, p);
    StatusOr<Bytes> b = viewer.read_file(p);
    ASSERT_EQ(a.ok(), b.ok()) << p;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << p;
    }
  }
}

// ------------------------------------------------- LocalRuntime::prefetch

// Converter fingerprints may be collision-salted, so remote stubs here skip
// the content-hash check; the frame CRC still guards every transfer.
constexpr bool kNoVerify = false;

struct RuntimePrefetchFixture : ::testing::Test {
  fs::path root;
  docker::DockerRegistry index_registry;
  vfs::FileTree flat;
  GearImage gear_image;
  std::size_t distinct = 0;  // distinct fingerprints of the index
  std::uint64_t largest = 0;

  void SetUp() override {
    root = fs::path(::testing::TempDir()) /
           ("gear_runtime_prefetch_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root);

    // Enough files for several 64-file batches, plus one content shared by
    // two paths.
    vfs::FileTree t = gear::testing::random_tree(7100, 200, 8192);
    Rng rng(7101);
    const Bytes shared = rng.next_bytes(3000, 0.5);
    t.add_file("dup/first.bin", shared);
    t.add_file("dup/second.bin", shared);
    docker::ImageBuilder b;
    b.add_snapshot(t);
    docker::Image image = b.build("app", "v1", {});
    flat = image.flatten();
    gear_image = GearConverter().convert(image).image;
    distinct = gear_image.index.distinct_fingerprints().size();
    flat.walk([&](const std::string&, const vfs::FileNode& node) {
      if (node.is_regular()) {
        largest = std::max<std::uint64_t>(largest, node.content().size());
      }
    });
    ASSERT_GT(distinct, 2 * kDownloadBatchFiles);
  }

  void TearDown() override { fs::remove_all(root); }

  /// Every regular file of the source is materialized byte-identical.
  void expect_materialized(LocalRuntime& runtime) {
    std::size_t checked = 0;
    flat.walk([&](const std::string& path, const vfs::FileNode& node) {
      if (!node.is_regular()) return;
      StatusOr<Bytes> got = runtime.store().read_materialized("app:v1", path);
      ASSERT_TRUE(got.ok()) << path;
      EXPECT_EQ(*got, node.content()) << path;
      ++checked;
    });
    EXPECT_GT(checked, 0u);
  }
};

TEST_F(RuntimePrefetchFixture, MaterializesSourceOverEveryRegistry) {
  GearRegistry single;
  GearRegistry shard0;
  GearRegistry shard1;
  FleetRegistry fleet({&shard0, &shard1});
  GearRegistry served;
  net::LoopbackTransport transport(served);
  net::RemoteGearRegistry remote(transport, 3, kNoVerify);
  util::ThreadPool pool(3);
  const std::pair<const char*, FileRegistryApi*> backends[] = {
      {"single", &single}, {"fleet", &fleet}, {"remote", &remote}};
  for (const auto& [name, files] : backends) {
    SCOPED_TRACE(name);
    push_gear_image(gear_image, index_registry, *files);
    LocalRuntime runtime(index_registry, *files, root / name);
    runtime.set_pool(&pool);
    runtime.pull("app:v1");
    auto [fetched, bytes] = runtime.prefetch("app:v1");
    EXPECT_EQ(fetched, distinct);
    EXPECT_GT(bytes, 0u);
    expect_materialized(runtime);
  }
}

TEST_F(RuntimePrefetchFixture, DownloadFramesAreCeilOfUncachedOver64) {
  GearRegistry served;
  push_gear_image(gear_image, index_registry, served);
  net::LoopbackTransport transport(served);
  net::RemoteGearRegistry remote(transport, 3, kNoVerify);
  LocalRuntime runtime(index_registry, remote, root);
  runtime.pull("app:v1");

  // Warm a few files by demand first: prefetch must only move the rest.
  std::string container = runtime.launch("app:v1");
  int warmed = 0;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && warmed < 5) {
      ASSERT_TRUE(runtime.read(container, path).ok());
      ++warmed;
    }
  });
  std::size_t uncached = 0;
  for (const Fingerprint& fp : gear_image.index.distinct_fingerprints()) {
    uncached += runtime.store().cache_contains(fp) ? 0 : 1;
  }
  ASSERT_LT(uncached, distinct);
  const std::uint64_t frames_before = transport.server_stats().download_round_trips;
  const std::uint64_t items_before = transport.server_stats().download_items;

  auto [fetched, bytes] = runtime.prefetch("app:v1");
  EXPECT_EQ(fetched, uncached);
  EXPECT_EQ(transport.server_stats().download_round_trips - frames_before,
            (uncached + kDownloadBatchFiles - 1) / kDownloadBatchFiles);
  EXPECT_EQ(transport.server_stats().download_items - items_before, uncached);
  expect_materialized(runtime);

  // The shared content moved once and is linked at both paths.
  const Fingerprint dup =
      gear_image.index.tree().lookup("dup/first.bin")->fingerprint();
  EXPECT_EQ(gear_image.index.tree().lookup("dup/second.bin")->fingerprint(),
            dup);
  EXPECT_TRUE(runtime.store().is_materialized("app:v1", "dup/first.bin"));
  EXPECT_TRUE(runtime.store().is_materialized("app:v1", "dup/second.bin"));
  EXPECT_EQ(runtime.store().link_count(dup), 3u);  // cache + two paths

  // Everything is local now: a second prefetch moves nothing.
  const std::uint64_t frames_after = transport.server_stats().download_round_trips;
  auto [again, again_bytes] = runtime.prefetch("app:v1");
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(again_bytes, 0u);
  EXPECT_EQ(transport.server_stats().download_round_trips, frames_after);
}

TEST_F(RuntimePrefetchFixture, HostBudgetBelowOneBatchStillCompletes) {
  GearRegistry files;
  push_gear_image(gear_image, index_registry, files);
  // Smaller than one 64-file batch of this tree, at least one file.
  HostBudget budget(16 * 1024);
  util::ThreadPool pool(4);
  LocalRuntime runtime(index_registry, files, root);
  runtime.set_host_budget(&budget);
  runtime.set_pool(&pool);
  runtime.pull("app:v1");
  auto [fetched, bytes] = runtime.prefetch("app:v1");
  EXPECT_EQ(fetched, distinct);
  expect_materialized(runtime);
  const HostBudgetStats stats = budget.stats();
  EXPECT_GT(stats.admitted, (distinct + kDownloadBatchFiles - 1) /
                                kDownloadBatchFiles);
  EXPECT_LE(stats.peak_inflight_bytes,
            std::max<std::uint64_t>(budget.budget_bytes(), largest));
  EXPECT_EQ(stats.inflight_bytes, 0u);
}

TEST_F(RuntimePrefetchFixture, MissingObjectNamesRefPathAndFingerprint) {
  GearRegistry files;
  push_gear_image(gear_image, index_registry, files);
  std::string victim;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && !node.content().empty() && victim.empty() &&
        path.rfind("dup/", 0) != 0) {
      victim = path;
    }
  });
  const Fingerprint fp = gear_image.index.tree().lookup(victim)->fingerprint();
  ASSERT_GT(files.remove(fp), 0u);

  LocalRuntime runtime(index_registry, files, root);
  runtime.pull("app:v1");
  try {
    runtime.prefetch("app:v1", PrefetchOrder::kPath);
    FAIL() << "prefetch of a tree with a missing object succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
    const std::string what = e.what();
    EXPECT_NE(what.find("app:v1"), std::string::npos) << what;
    EXPECT_NE(what.find(victim), std::string::npos) << what;
    EXPECT_NE(what.find(fp.hex()), std::string::npos) << what;
  }
}

// Several runtimes prefetch at once over one transport, one pool and one
// host budget: every tree lands intact and the budget holds.
using ConcurrentRuntimePrefetch = RuntimePrefetchFixture;

TEST_F(ConcurrentRuntimePrefetch, SharesTransportPoolAndBudget) {
  GearRegistry served;
  push_gear_image(gear_image, index_registry, served);
  net::LoopbackTransport transport(served);
  HostBudget budget(64 * 1024);
  util::ThreadPool pool(4);
  constexpr int kNodes = 4;
  std::vector<std::unique_ptr<net::RemoteGearRegistry>> stubs;
  std::vector<std::unique_ptr<LocalRuntime>> runtimes;
  for (int n = 0; n < kNodes; ++n) {
    stubs.push_back(
        std::make_unique<net::RemoteGearRegistry>(transport, 3, kNoVerify));
    runtimes.push_back(std::make_unique<LocalRuntime>(
        index_registry, *stubs.back(), root / ("node" + std::to_string(n))));
    runtimes.back()->set_host_budget(&budget);
    runtimes.back()->set_pool(&pool);
    runtimes.back()->pull("app:v1");
  }
  std::vector<std::size_t> fetched(kNodes, 0);
  std::vector<std::thread> threads;
  for (int n = 0; n < kNodes; ++n) {
    threads.emplace_back([&, n] {
      fetched[n] = runtimes[n]->prefetch("app:v1").first;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(fetched[n], distinct) << n;
    expect_materialized(*runtimes[n]);
  }
  EXPECT_EQ(transport.server_stats().download_items, kNodes * distinct);
  EXPECT_LE(budget.stats().peak_inflight_bytes,
            std::max<std::uint64_t>(budget.budget_bytes(), largest));
  EXPECT_EQ(budget.stats().inflight_bytes, 0u);
}

}  // namespace
}  // namespace gear
