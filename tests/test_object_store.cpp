// Tests for the pluggable registry storage engine: ObjectStore backends
// (in-memory and durable on-disk), crash recovery on reopen, wire-served
// restart without re-push, and the sharded concurrent registry. The
// ConcurrentRegistry* suites also run under TSAN in CI.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "gear/object_store.hpp"
#include "gear/registry.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(std::string tag) {
  for (char& c : tag) {
    if (c == '/') c = '_';
  }
  fs::path p = fs::path(::testing::TempDir()) /
               ("gear_objstore_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

std::string current_test_tag() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(info->test_suite_name()) + "_" + info->name();
}

Fingerprint fp_of(BytesView content) {
  return default_hasher().fingerprint(content);
}

/// Mixed-compressibility corpus, deterministic per seed.
std::vector<Bytes> make_corpus(std::uint64_t seed, int n,
                               std::uint64_t max_size = 4096) {
  Rng rng(seed);
  std::vector<Bytes> corpus;
  corpus.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    corpus.push_back(
        rng.next_bytes(rng.next_range(1, max_size), rng.next_double()));
  }
  return corpus;
}

// ------------------------------------------------- backend-parametrized

enum class Backend { kMemory, kDisk };

class RegistryBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<ObjectStore> make_backend() {
    if (GetParam() == Backend::kMemory) {
      return std::make_unique<MemoryObjectStore>();
    }
    if (dir_.empty()) dir_ = fresh_dir(current_test_tag());
    return std::make_unique<DiskObjectStore>(dir_);
  }

  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  fs::path dir_;
};

INSTANTIATE_TEST_SUITE_P(Backends, RegistryBackendTest,
                         ::testing::Values(Backend::kMemory, Backend::kDisk),
                         [](const auto& info) {
                           return info.param == Backend::kMemory ? "memory"
                                                                 : "disk";
                         });

TEST_P(RegistryBackendTest, UploadQueryDownloadAndStats) {
  GearRegistry reg(make_backend());
  Bytes a = to_bytes("alpha content"), b = to_bytes(std::string(3000, 'b'));
  Fingerprint fa = fp_of(a), fb = fp_of(b);

  EXPECT_FALSE(reg.query(fa));
  EXPECT_TRUE(reg.upload(fa, a));
  EXPECT_TRUE(reg.upload(fb, b));
  EXPECT_FALSE(reg.upload(fa, a));  // dedup
  EXPECT_TRUE(reg.query(fa));
  EXPECT_TRUE(reg.query(fb));

  EXPECT_EQ(reg.download(fa).value(), a);
  EXPECT_EQ(reg.download(fb).value(), b);
  EXPECT_EQ(reg.download_compressed(fa).value(), compress(a));

  EXPECT_EQ(reg.stats().uploads_accepted, 2u);
  EXPECT_EQ(reg.stats().uploads_deduplicated, 1u);
  EXPECT_EQ(reg.stats().downloads, 3u);  // two downloads + one compressed
  EXPECT_EQ(reg.stats().queries, 3u);
  EXPECT_EQ(reg.object_count(), 2u);
  EXPECT_EQ(reg.storage_bytes(), compress(a).size() + compress(b).size());
  EXPECT_EQ(reg.stored_size(fa).value(), compress(a).size());
}

TEST_P(RegistryBackendTest, NotFoundErrorsNameTheFingerprintHex) {
  GearRegistry reg(make_backend());
  Fingerprint missing = fp_of(to_bytes("never uploaded"));

  StatusOr<Bytes> dl = reg.download(missing);
  ASSERT_FALSE(dl.ok());
  EXPECT_EQ(dl.code(), ErrorCode::kNotFound);
  EXPECT_NE(dl.message().find(missing.hex()), std::string::npos)
      << dl.message();

  StatusOr<ChunkManifest> cm = reg.chunk_manifest(missing);
  ASSERT_FALSE(cm.ok());
  EXPECT_EQ(cm.code(), ErrorCode::kNotFound);
  EXPECT_NE(cm.message().find(missing.hex()), std::string::npos)
      << cm.message();

  StatusOr<std::vector<Bytes>> batch = reg.download_batch({missing});
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.message().find(missing.hex()), std::string::npos)
      << batch.message();
}

TEST_P(RegistryBackendTest, ChunkedRoundTrip) {
  GearRegistry reg(make_backend());
  ChunkPolicy policy;
  policy.threshold_bytes = 1024;
  policy.chunk_bytes = 1024;

  Rng rng(7);
  Bytes big = rng.next_bytes(10 * 1024 + 37, 0.5);
  Fingerprint fp = fp_of(big);

  EXPECT_TRUE(reg.upload_chunked(fp, big, policy));
  EXPECT_TRUE(reg.is_chunked(fp));
  EXPECT_FALSE(reg.upload_chunked(fp, big, policy));  // dedup
  EXPECT_EQ(reg.download(fp).value(), big);

  // Ranged read crosses chunk boundaries.
  Bytes range = reg.download_range(fp, 1000, 2000).value();
  EXPECT_EQ(range, Bytes(big.begin() + 1000, big.begin() + 3000));

  // stored_size = manifest + all chunk frames; matches storage accounting.
  ChunkManifest manifest = reg.chunk_manifest(fp).value();
  EXPECT_EQ(manifest.file_size, big.size());
  EXPECT_GT(manifest.chunks.size(), 1u);
  EXPECT_EQ(reg.stored_size(fp).value(), reg.storage_bytes());
}

TEST_P(RegistryBackendTest, RemoveFreesStorage) {
  GearRegistry reg(make_backend());
  Bytes content = to_bytes(std::string(500, 'r'));
  Fingerprint fp = fp_of(content);
  reg.upload(fp, content);
  std::uint64_t held = reg.storage_bytes();
  EXPECT_GT(held, 0u);
  EXPECT_EQ(reg.remove(fp), held);
  EXPECT_EQ(reg.storage_bytes(), 0u);
  EXPECT_EQ(reg.object_count(), 0u);
  EXPECT_EQ(reg.remove(fp), 0u);
}

// Identical workload on both backends must produce identical accounting:
// same stored_bytes, same object counts, same stats, same wire frames.
TEST(ObjectStoreParity, BackendsAreAccountingIdentical) {
  fs::path dir = fresh_dir("parity");
  GearRegistry mem;  // default MemoryObjectStore
  GearRegistry disk(std::make_unique<DiskObjectStore>(dir));

  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 1024;
  std::vector<Bytes> corpus = make_corpus(11, 40, 6000);

  for (GearRegistry* reg : {&mem, &disk}) {
    for (const Bytes& content : corpus) {
      reg->upload_chunked(fp_of(content), content, policy);
    }
  }

  EXPECT_EQ(mem.storage_bytes(), disk.storage_bytes());
  EXPECT_EQ(mem.object_count(), disk.object_count());
  EXPECT_EQ(mem.stats().uploads_accepted, disk.stats().uploads_accepted);
  EXPECT_EQ(mem.stats().uploads_deduplicated,
            disk.stats().uploads_deduplicated);
  for (const Bytes& content : corpus) {
    Fingerprint fp = fp_of(content);
    EXPECT_EQ(mem.download(fp).value(), disk.download(fp).value());
    EXPECT_EQ(mem.download_compressed(fp).value(),
              disk.download_compressed(fp).value());
    EXPECT_EQ(mem.stored_size(fp).value(), disk.stored_size(fp).value());
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------ durability

TEST(DiskObjectStore, ReopenServesEverythingWithNoReupload) {
  fs::path dir = fresh_dir("reopen");
  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 1024;
  std::vector<Bytes> corpus = make_corpus(23, 25, 5000);
  // A chunk size above the file size must store the file plain: a
  // single-chunk manifest would alias the file's fingerprint with its only
  // chunk's.
  ChunkPolicy single_chunk;
  single_chunk.threshold_bytes = 2048;
  single_chunk.chunk_bytes = 1024 * 1024;
  Bytes plain = Rng(24).next_bytes(4096, 0.3);

  std::uint64_t stored_before = 0;
  std::map<Fingerprint, ChunkManifest> manifests;
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    for (const Bytes& content : corpus) {
      reg.upload_chunked(fp_of(content), content, policy);
    }
    reg.upload_chunked(fp_of(plain), plain, single_chunk);
    EXPECT_FALSE(reg.is_chunked(fp_of(plain)));
    for (const Fingerprint& fp : reg.list_chunked()) {
      manifests.emplace(fp, reg.chunk_manifest(fp).value());
    }
    stored_before = reg.storage_bytes();
  }  // "crash-free shutdown": registry destroyed, files remain
  ASSERT_FALSE(manifests.empty());

  GearRegistry reopened(std::make_unique<DiskObjectStore>(dir));
  EXPECT_EQ(reopened.storage_bytes(), stored_before);
  EXPECT_EQ(reopened.list_chunked().size(), manifests.size());
  for (const Bytes& content : corpus) {
    Fingerprint fp = fp_of(content);
    EXPECT_TRUE(reopened.query(fp));
    EXPECT_EQ(reopened.download(fp).value(), content);
    // Chunked files come back chunked, under the same manifest.
    auto it = manifests.find(fp);
    ASSERT_EQ(reopened.is_chunked(fp), it != manifests.end());
    if (it != manifests.end()) {
      EXPECT_EQ(reopened.chunk_manifest(fp).value(), it->second);
    }
    // Re-pushing after restart uploads nothing.
    EXPECT_FALSE(reopened.upload_chunked(fp, content, policy));
  }
  EXPECT_FALSE(reopened.is_chunked(fp_of(plain)));
  EXPECT_EQ(reopened.download(fp_of(plain)).value(), plain);
  EXPECT_EQ(reopened.stats().uploads_accepted, 0u);
  EXPECT_EQ(reopened.stats().uploads_deduplicated, corpus.size());
  fs::remove_all(dir);
}

TEST(DiskObjectStore, CrashMidUploadTornTempsAreIgnoredAndReaped) {
  fs::path dir = fresh_dir("torn");
  Bytes ok1 = to_bytes("survived the crash");
  Bytes ok2 = to_bytes(std::string(4000, 'z'));
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    reg.upload(fp_of(ok1), ok1);
    reg.upload(fp_of(ok2), ok2);
  }
  // Simulate a crash mid-write: torn temps next to the valid objects, in
  // both namespaces.
  const std::string torn_hex = "deadbeefdeadbeefdeadbeefdeadbeef";
  std::ofstream(dir / "objects" / (torn_hex + ".tmp")) << "torn prefix";
  std::ofstream(dir / "chunked" / (torn_hex + ".gcm.tmp")) << "torn";

  auto store = std::make_unique<DiskObjectStore>(dir);
  EXPECT_EQ(store->reaped_temps(), 2u);
  EXPECT_FALSE(fs::exists(dir / "objects" / (torn_hex + ".tmp")));
  EXPECT_FALSE(fs::exists(dir / "chunked" / (torn_hex + ".gcm.tmp")));

  GearRegistry reg(std::move(store));
  EXPECT_FALSE(reg.query(Fingerprint::from_hex(torn_hex)));
  EXPECT_EQ(reg.download(fp_of(ok1)).value(), ok1);
  EXPECT_EQ(reg.download(fp_of(ok2)).value(), ok2);
  EXPECT_EQ(reg.object_count(), 2u);
  fs::remove_all(dir);
}

TEST(DiskObjectStore, DecompressedObjectsFailCleanly) {
  // The retired gearctl snapshot format kept decompressed objects under the
  // same names. The store does not migrate them: a read must fail with a
  // clean error, never hand the raw bytes back as if they were a frame.
  fs::path dir = fresh_dir("raw_objects");
  Bytes content = to_bytes("written by the old snapshot format\n");
  fs::create_directories(dir / "objects");
  std::ofstream(dir / "objects" / fp_of(content).hex(), std::ios::binary)
      << to_string(content);

  GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
  EXPECT_TRUE(reg.query(fp_of(content)));
  try {
    (void)reg.download(fp_of(content));
    ADD_FAILURE() << "raw object decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
  }
  fs::remove_all(dir);
}

// Push to a wire-served registry over a DiskObjectStore, tear the whole
// server down, bring up a new server over the same directory, and deploy:
// every object is already there (zero re-uploads) and downloads are
// byte-identical. The acceptance scenario for the storage engine.
TEST(DiskObjectStore, WireServedRegistrySurvivesRestart) {
  fs::path dir = fresh_dir("wire_restart");
  std::vector<Bytes> corpus = make_corpus(31, 20, 4000);
  std::vector<Fingerprint> fps;
  for (const Bytes& content : corpus) fps.push_back(fp_of(content));

  {
    net::LoopbackTransport server(std::make_unique<DiskObjectStore>(dir));
    net::RemoteGearRegistry client(server);
    std::vector<std::pair<Fingerprint, Bytes>> batch;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      batch.emplace_back(fps[i], compress(corpus[i]));
    }
    EXPECT_EQ(client.upload_precompressed_batch(std::move(batch)),
              corpus.size());
  }  // server process "dies"

  net::LoopbackTransport server2(std::make_unique<DiskObjectStore>(dir));
  net::RemoteGearRegistry client2(server2);

  std::vector<std::uint8_t> present = client2.query_many(fps);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_TRUE(present[i]) << fps[i].hex();
  }
  // A re-push finds everything already stored: zero re-uploads.
  std::vector<std::pair<Fingerprint, Bytes>> repush;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    repush.emplace_back(fps[i], compress(corpus[i]));
  }
  EXPECT_EQ(client2.upload_precompressed_batch(std::move(repush)), 0u);
  EXPECT_EQ(server2.registry().stats().uploads_accepted, 0u);

  std::vector<Bytes> downloaded = client2.download_batch(fps).value();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(downloaded[i], corpus[i]) << fps[i].hex();
  }
  fs::remove_all(dir);
}

// ----------------------------------------------------------- concurrency
//
// These suites run under TSAN in CI (test filter *ConcurrentRegistry*).

class ConcurrentRegistryTest : public RegistryBackendTest {};

INSTANTIATE_TEST_SUITE_P(Backends, ConcurrentRegistryTest,
                         ::testing::Values(Backend::kMemory, Backend::kDisk),
                         [](const auto& info) {
                           return info.param == Backend::kMemory ? "memory"
                                                                 : "disk";
                         });

TEST_P(ConcurrentRegistryTest, ConcurrentBatchDownloadsMatchSerial) {
  GearRegistry reg(make_backend());
  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 1024;
  std::vector<Bytes> corpus = make_corpus(47, 48, 4000);
  std::vector<Fingerprint> fps;
  for (const Bytes& content : corpus) {
    fps.push_back(fp_of(content));
    reg.upload_chunked(fps.back(), content, policy);
  }

  std::uint64_t serial_wire = 0;
  std::vector<Bytes> serial =
      reg.download_batch(fps, nullptr, &serial_wire).value();
  const std::uint64_t downloads_after_serial = reg.stats().downloads;

  constexpr int kClients = 4;
  std::vector<std::vector<Bytes>> results(kClients);
  std::vector<std::uint64_t> wires(kClients, 0);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        results[static_cast<std::size_t>(c)] =
            reg.download_batch(fps, nullptr,
                               &wires[static_cast<std::size_t>(c)])
                .value();
      });
    }
    for (std::thread& t : clients) t.join();
  }

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<std::size_t>(c)], serial) << "client " << c;
    EXPECT_EQ(wires[static_cast<std::size_t>(c)], serial_wire);
  }
  // Stats totals are deterministic: each batch counts one download per item.
  EXPECT_EQ(reg.stats().downloads,
            downloads_after_serial + kClients * fps.size());
}

TEST_P(ConcurrentRegistryTest, ConcurrentUploadsAreLinearizablePerFp) {
  GearRegistry reg(make_backend());
  std::vector<Bytes> corpus = make_corpus(59, 32, 3000);

  // Every thread pushes the full overlapping corpus: exactly one accept per
  // fingerprint, everything else dedups, never a torn or doubled object.
  constexpr int kThreads = 4;
  {
    std::vector<std::thread> uploaders;
    uploaders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      uploaders.emplace_back([&, t] {
        // Different arrival order per thread stresses shard-lock ordering.
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          std::size_t at = (i * 7 + static_cast<std::size_t>(t) * 13) %
                           corpus.size();
          reg.upload(fp_of(corpus[at]), corpus[at]);
        }
      });
    }
    for (std::thread& t : uploaders) t.join();
  }

  EXPECT_EQ(reg.stats().uploads_accepted, corpus.size());
  EXPECT_EQ(reg.stats().uploads_deduplicated,
            (kThreads - 1) * corpus.size());
  EXPECT_EQ(reg.object_count(), corpus.size());
  std::uint64_t expected_bytes = 0;
  for (const Bytes& content : corpus) {
    EXPECT_EQ(reg.download(fp_of(content)).value(), content);
    expected_bytes += compress(content).size();
  }
  EXPECT_EQ(reg.storage_bytes(), expected_bytes);
}

TEST_P(ConcurrentRegistryTest, ReadersOverlapWithWriters) {
  GearRegistry reg(make_backend());
  std::vector<Bytes> preloaded = make_corpus(67, 24, 3000);
  std::vector<Fingerprint> fps;
  for (const Bytes& content : preloaded) {
    fps.push_back(fp_of(content));
    reg.upload(fps.back(), content);
  }
  std::vector<Bytes> incoming = make_corpus(71, 64, 2000);

  std::thread writer([&] {
    for (const Bytes& content : incoming) {
      reg.upload(fp_of(content), content);
    }
  });
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  std::vector<std::vector<Bytes>> results(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < 4; ++round) {
        results[static_cast<std::size_t>(r)] =
            reg.download_batch(fps).value();
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    ASSERT_EQ(results[static_cast<std::size_t>(r)].size(), preloaded.size());
    for (std::size_t i = 0; i < preloaded.size(); ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)][i], preloaded[i]);
    }
  }
  for (const Bytes& content : incoming) {
    EXPECT_EQ(reg.download(fp_of(content)).value(), content);
  }
}

TEST_P(ConcurrentRegistryTest, ConcurrentWireClientsMatchSerial) {
  std::unique_ptr<ObjectStore> backend = make_backend();
  net::LoopbackTransport server(std::move(backend));

  std::vector<Bytes> corpus = make_corpus(83, 32, 3000);
  std::vector<Fingerprint> fps;
  {
    net::RemoteGearRegistry pusher(server);
    std::vector<std::pair<Fingerprint, Bytes>> batch;
    for (const Bytes& content : corpus) {
      fps.push_back(fp_of(content));
      batch.emplace_back(fps.back(), compress(content));
    }
    ASSERT_EQ(pusher.upload_precompressed_batch(std::move(batch)),
              corpus.size());
  }

  net::RemoteGearRegistry serial_client(server);
  std::vector<Bytes> serial = serial_client.download_batch(fps).value();

  constexpr int kClients = 4;
  std::vector<std::vector<Bytes>> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        net::RemoteGearRegistry client(server);
        results[static_cast<std::size_t>(c)] =
            client.download_batch(fps).value();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<std::size_t>(c)], serial) << "client " << c;
  }
  // Each download_batch is one round trip serving |fps| items.
  EXPECT_EQ(server.server_stats().download_round_trips, 1u + kClients);
  EXPECT_EQ(server.server_stats().download_items, (1u + kClients) * fps.size());
}

}  // namespace
}  // namespace gear
