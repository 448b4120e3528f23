// wallbench_helper — the native half of the wall-clock benchmark.
//
//   wallbench_helper gen --seed N --out DIR
//
// Writes every version of every corpus series (kCorpus below) as a real
// directory tree (DIR/<series>/v<k>/) and prints a JSON manifest of the
// corpus: its constants, per-image file counts, source bytes and whether
// the series was generated incompressible. The same seed writes the same
// bytes.
//
//   wallbench_helper replay --plan FILE --corpus DIR --work DIR [--passthrough]
//
// Replays a workload plan in one process: a TcpServer on 127.0.0.1:0 serves
// a DiskObjectStore under --work, and each plan line runs the library calls
// the matching `gearctl --remote` command makes (tools/gearctl.cpp), in a
// fresh client session with its own connection. Decorators around the
// FingerprintHasher, the converter's existing_lookup callback, the
// FileRegistryApi on both sides of the wire, the Transport and the
// ObjectStore record spans and counts; plain spans wrap vfs, docker,
// converter, push and LocalRuntime calls. Lines before `timed` are set-up and
// are not recorded. With --passthrough every decorator forwards without
// recording, which prices the tracing. Prints one JSON object: correctness,
// op counts, wall time of the timed section and the per-layer metrics.
//
// Plan lines (tab-separated, paths relative to --corpus):
//   import <ref> <dir>           cmd_import on the pusher's client root
//   sync <node>                  copy the pusher's docker/ snapshot to a node
//   reset <node>                 drop a node's local runtime state (cold node)
//   launch <node> <ref> <dir>    cmd_launch --lazy, then check the
//                                materialized files against <dir>
//   cat <node> <ref> <path> <file>   cmd_cat, byte-compared with <file>
//   export <node> <ref> <dir>    cmd_export, tree-compared with <dir>
//   timed                        start recording
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "docker/layer.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/local_runtime.hpp"
#include "gear/object_store.hpp"
#include "gear/persistence.hpp"
#include "net/remote_registry.hpp"
#include "net/tcp.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "vfs/fs_io.hpp"
#include "workload/generator.hpp"
#include "workload/spec.hpp"

namespace fs = std::filesystem;
using namespace gear;

namespace {

/// "--key value" pairs after the subcommand.
struct Args {
  std::vector<std::string> items;

  std::string get(const std::string& key) const {
    for (std::size_t i = 0; i + 1 < items.size(); ++i) {
      if (items[i] == key) return items[i + 1];
    }
    throw_error(ErrorCode::kInvalidArgument, "missing " + key);
  }
};

/// The corpus: Table I series over consecutive versions. node is generated
/// with compressibility 0 (already-compressed content), about a third of the
/// source bytes, so the LZSS stored-raw path is exercised. At this scale an
/// image holds about 7.5 MB in about 550 files.
struct CorpusSeries {
  const char* name;
  bool incompressible;
};
constexpr CorpusSeries kCorpus[] = {
    {"python", false}, {"ruby", false}, {"node", true}};
constexpr double kScale = 0.01;
constexpr int kVersions = 3;
/// Import worker threads, for the replay and for every `gearctl import`
/// (the manifest passes it on), pinned so results do not follow the core
/// count.
constexpr std::size_t kWorkers = 2;

int cmd_gen(const Args& args) {
  const std::uint64_t seed = std::stoull(args.get("--seed"));
  const fs::path out = args.get("--out");

  std::vector<workload::SeriesSpec> specs;
  std::string series_json;
  for (const CorpusSeries& c : kCorpus) {
    bool found = false;
    for (const workload::SeriesSpec& s : workload::table1_corpus()) {
      if (s.name != c.name) continue;
      specs.push_back(s);
      found = true;
    }
    if (!found) throw_error(ErrorCode::kNotFound, std::string("no series ") + c.name);
    if (c.incompressible) specs.back().compressibility = 0.0;
    specs.back().versions = kVersions;
    char item[128];
    std::snprintf(item, sizeof(item),
                  "%s{\"name\": \"%s\", \"compressibility\": %.3f}",
                  series_json.empty() ? "" : ", ", c.name,
                  specs.back().compressibility);
    series_json += item;
  }

  workload::CorpusGenerator gen(seed, kScale);
  std::string images;
  std::uint64_t total_bytes = 0;
  std::uint64_t incompressible_bytes = 0;
  std::uint64_t total_files = 0;
  for (int v = 0; v < kVersions; ++v) {
    for (const workload::SeriesSpec& spec : specs) {
      vfs::FileTree tree = gen.generate_image(spec, v).flatten();
      const std::string rel = spec.name + "/v" + std::to_string(v);
      vfs::write_tree(tree, out / rel);
      vfs::TreeStats stats = tree.stats();
      const bool incompressible = spec.compressibility == 0.0;
      total_bytes += stats.total_file_bytes;
      total_files += stats.regular_files;
      if (incompressible) incompressible_bytes += stats.total_file_bytes;
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s{\"series\": \"%s\", \"version\": %d, "
                    "\"ref\": \"%s:v%d\", \"dir\": \"%s\", "
                    "\"files\": %llu, \"symlinks\": %llu, "
                    "\"bytes\": %llu, \"incompressible\": %s}",
                    images.empty() ? "" : ", ", spec.name.c_str(), v,
                    spec.name.c_str(), v, rel.c_str(),
                    static_cast<unsigned long long>(stats.regular_files),
                    static_cast<unsigned long long>(stats.symlinks),
                    static_cast<unsigned long long>(stats.total_file_bytes),
                    incompressible ? "true" : "false");
      images += line;
    }
  }
  std::printf("{\"seed\": %llu, \"series\": [%s], \"scale\": %.6g, "
              "\"versions\": %d, \"workers\": %zu, \"images\": [%s], "
              "\"source_bytes\": %llu, \"source_files\": %llu, "
              "\"incompressible_share\": %.6f}\n",
              static_cast<unsigned long long>(seed), series_json.c_str(),
              kScale, kVersions, kWorkers, images.c_str(),
              static_cast<unsigned long long>(total_bytes),
              static_cast<unsigned long long>(total_files),
              total_bytes == 0 ? 0.0
                               : static_cast<double>(incompressible_bytes) /
                                     static_cast<double>(total_bytes));
  return 0;
}

// ---- span and count recorder -----------------------------------------------

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

/// Process-wide, thread-safe (the converter hashes on a pool and the server
/// answers on its own threads). Off until the plan's `timed` line, and never
/// on in a --passthrough replay.
class Recorder {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void record(const char* name, Clock::time_point start,
              Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end});
  }
  void add(const std::string& counter, double value) {
    if (!on()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[counter] += value;
  }
  double counter(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

Recorder g_rec;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name), active_(g_rec.on()) {
    if (active_) start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (active_) g_rec.record(name_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  Clock::time_point start_;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- decorators ------------------------------------------------------------

class RecordingHasher final : public FingerprintHasher {
 public:
  explicit RecordingHasher(const FingerprintHasher& inner) : inner_(inner) {}
  Fingerprint fingerprint(BytesView content) const override {
    ScopedSpan span("md5");
    g_rec.add("md5.bytes", static_cast<double>(content.size()));
    return inner_.fingerprint(content);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const FingerprintHasher& inner_;
};

class RecordingTransport final : public net::Transport {
 public:
  explicit RecordingTransport(net::Transport& inner) : inner_(inner) {}
  Bytes round_trip(BytesView request_frame) override {
    ScopedSpan span("net.rtt");
    Bytes response = inner_.round_trip(request_frame);
    g_rec.add("net.bytes_up", static_cast<double>(request_frame.size()));
    g_rec.add("net.bytes_down", static_cast<double>(response.size()));
    return response;
  }

 private:
  net::Transport& inner_;
};

/// Span names of one side of the wire.
struct RegistrySide {
  const char* query;
  const char* upload;
  const char* download;
  bool client;  // the client side also prices the frames it uploads
};
constexpr RegistrySide kClientSide{"client.query", "client.upload",
                                   "client.download", true};
constexpr RegistrySide kServerSide{"registry.query", "registry.upload",
                                   "registry.download", false};

/// Forwards every FileRegistryApi call, defaults included, so the wrapped
/// registry behaves exactly as it would unwrapped.
class RecordingRegistry final : public FileRegistryApi {
 public:
  RecordingRegistry(FileRegistryApi& inner, const RegistrySide& side)
      : inner_(inner), side_(side) {}

  bool query(const Fingerprint& fp) const override {
    ScopedSpan span(side_.query);
    return inner_.query(fp);
  }
  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override {
    ScopedSpan span(side_.query);
    return inner_.query_many(fps);
  }
  bool upload(const Fingerprint& fp, BytesView content) override {
    ScopedSpan span(side_.upload);
    return inner_.upload(fp, content);
  }
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override {
    ScopedSpan span(side_.upload);
    if (side_.client) count_frame(compressed);
    return inner_.upload_precompressed(fp, std::move(compressed));
  }
  std::size_t upload_precompressed_batch(
      std::vector<std::pair<Fingerprint, Bytes>> items) override {
    ScopedSpan span(side_.upload);
    if (side_.client) {
      g_rec.add("push.upload_frames", 1);
      for (const auto& item : items) count_frame(item.second);
    }
    return inner_.upload_precompressed_batch(std::move(items));
  }
  bool upload_chunked(const Fingerprint& fp, BytesView content,
                      const ChunkPolicy& policy,
                      const FingerprintHasher& hasher) override {
    ScopedSpan span(side_.upload);
    return inner_.upload_chunked(fp, content, policy, hasher);
  }
  StatusOr<Bytes> download(const Fingerprint& fp) const override {
    ScopedSpan span(side_.download);
    return inner_.download(fp);
  }
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool,
      std::uint64_t* wire_bytes_out) const override {
    ScopedSpan span(side_.download);
    return inner_.download_batch(fps, pool, wire_bytes_out);
  }
  StatusOr<Bytes> download_range(const Fingerprint& fp, std::uint64_t offset,
                                 std::uint64_t length,
                                 std::uint64_t* wire_bytes_out) const override {
    ScopedSpan span(side_.download);
    return inner_.download_range(fp, offset, length, wire_bytes_out);
  }
  StatusOr<std::vector<Bytes>> download_chunks(
      const Fingerprint& fp, const ChunkManifest& manifest,
      const std::vector<std::uint32_t>& indices,
      std::uint64_t* wire_bytes_out) const override {
    ScopedSpan span(side_.download);
    return inner_.download_chunks(fp, manifest, indices, wire_bytes_out);
  }
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override {
    return inner_.stored_size(fp);
  }
  StatusOr<Bytes> download_compressed(const Fingerprint& fp) const override {
    ScopedSpan span(side_.download);
    return inner_.download_compressed(fp);
  }
  StatusOr<Bytes> download_chunk_compressed(
      const Fingerprint& chunk_fp) const override {
    ScopedSpan span(side_.download);
    return inner_.download_chunk_compressed(chunk_fp);
  }
  bool is_chunked(const Fingerprint& fp) const override {
    return inner_.is_chunked(fp);
  }
  StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const override {
    return inner_.chunk_manifest(fp);
  }
  bool transport_accounted() const override {
    return inner_.transport_accounted();
  }

 private:
  static void count_frame(const Bytes& frame) {
    if (!g_rec.on()) return;
    g_rec.add("compress.frames", 1);
    g_rec.add("compress.frame_bytes", static_cast<double>(frame.size()));
    g_rec.add("compress.original_bytes",
              static_cast<double>(compressed_frame_original_size(frame)));
    if (compressed_frame_method(frame) == CompressionMethod::kStored) {
      g_rec.add("compress.stored_frames", 1);
    }
  }

  FileRegistryApi& inner_;
  RegistrySide side_;
};

class RecordingObjectStore final : public ObjectStore {
 public:
  explicit RecordingObjectStore(std::unique_ptr<ObjectStore> inner)
      : inner_(std::move(inner)) {}

  bool contains(const Fingerprint& fp) const override {
    return inner_->contains(fp);
  }
  bool put_if_absent(const Fingerprint& fp, Bytes compressed) override {
    ScopedSpan span("store.put");
    return inner_->put_if_absent(fp, std::move(compressed));
  }
  StatusOr<Bytes> get(const Fingerprint& fp) const override {
    ScopedSpan span("store.get");
    return inner_->get(fp);
  }
  StatusOr<std::uint64_t> object_size(const Fingerprint& fp) const override {
    return inner_->object_size(fp);
  }
  std::uint64_t erase(const Fingerprint& fp) override {
    return inner_->erase(fp);
  }
  std::vector<Fingerprint> list_objects() const override {
    return inner_->list_objects();
  }
  std::size_t object_count() const override { return inner_->object_count(); }
  bool contains_manifest(const Fingerprint& fp) const override {
    return inner_->contains_manifest(fp);
  }
  bool put_manifest_if_absent(const Fingerprint& fp,
                              const ChunkManifest& manifest) override {
    ScopedSpan span("store.put");
    return inner_->put_manifest_if_absent(fp, manifest);
  }
  StatusOr<ChunkManifest> get_manifest(const Fingerprint& fp) const override {
    return inner_->get_manifest(fp);
  }
  std::uint64_t erase_manifest(const Fingerprint& fp) override {
    return inner_->erase_manifest(fp);
  }
  std::vector<Fingerprint> list_manifests() const override {
    return inner_->list_manifests();
  }
  std::size_t manifest_count() const override {
    return inner_->manifest_count();
  }
  std::uint64_t stored_bytes() const override { return inner_->stored_bytes(); }

 private:
  std::unique_ptr<ObjectStore> inner_;
};

// ---- the replayed commands -------------------------------------------------

/// The daemon half: what `gearctl serve --store-dir` mounts, decorated.
struct Server {
  explicit Server(const fs::path& store_dir) {
    Clock::time_point t0 = Clock::now();
    auto disk = std::make_unique<DiskObjectStore>(store_dir);
    open_ms = ms_between(t0, Clock::now());
    registry = std::make_unique<GearRegistry>(
        std::make_unique<RecordingObjectStore>(std::move(disk)));
    front = std::make_unique<RecordingRegistry>(*registry, kServerSide);
    frames = std::make_unique<net::FrameServer>(*front);
    tcp = std::make_unique<net::TcpServer>(*frames);
    tcp->start("127.0.0.1", 0);
  }

  double open_ms = 0;
  std::unique_ptr<GearRegistry> registry;
  std::unique_ptr<RecordingRegistry> front;
  std::unique_ptr<net::FrameServer> frames;
  std::unique_ptr<net::TcpServer> tcp;
};

/// One client invocation: gearctl's Store in --remote mode (docker snapshot
/// from the client root, one TCP connection, a non-verifying remote stub).
struct Session {
  Session(fs::path client_root, std::uint16_t port)
      : root(std::move(client_root)),
        tcp("127.0.0.1", port),
        transport(tcp),
        remote(transport, /*max_attempts=*/4, /*verify_content=*/false),
        files(remote, kClientSide) {
    ScopedSpan span("docker.index_load");
    load_docker_registry(root, &docker);
  }
  ~Session() {
    g_rec.add("net.retries",
              static_cast<double>(remote.stats().retries.load()));
    g_rec.add("net.reconnects", static_cast<double>(tcp.reconnects()));
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void save() { save_docker_registry(docker, root); }

  GearIndex load_index(const std::string& ref) {
    ScopedSpan span("docker.index_load");
    docker::Manifest manifest = docker.get_manifest(ref).value();
    if (manifest.config.labels.count(kGearIndexLabel) == 0 ||
        manifest.layers.size() != 1) {
      throw Error(ErrorCode::kInvalidArgument, ref + " is not a Gear image");
    }
    docker::Layer layer = docker::Layer::from_blob(
        docker.get_blob(manifest.layers[0].digest).value(),
        manifest.layers[0].digest);
    return GearIndex::from_wire_tree(layer.to_tree());
  }

  fs::path root;
  docker::DockerRegistry docker;
  net::TcpTransport tcp;
  RecordingTransport transport;
  net::RemoteGearRegistry remote;
  RecordingRegistry files;
};

/// Path -> (kind, payload) of a real directory, symlinks not followed.
std::map<std::string, std::pair<char, std::string>> list_tree(
    const fs::path& root) {
  std::map<std::string, std::pair<char, std::string>> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string rel = fs::relative(entry.path(), root).generic_string();
    if (entry.is_symlink()) {
      out[rel] = {'l', fs::read_symlink(entry.path()).string()};
    } else if (entry.is_directory()) {
      out[rel] = {'d', ""};
    } else {
      out[rel] = {'f', to_string(read_file_bytes(entry.path()))};
    }
  }
  return out;
}

/// Client and node state of one replay. launch, cat and export return false
/// when their output differs from the source; every op throws on errors.
struct Replay {
  fs::path corpus;
  fs::path work;
  util::Concurrency concurrency;
  std::unique_ptr<Server> server;
  RecordingHasher hasher{default_hasher()};
  std::map<std::string, std::uint64_t> node_cache_bytes;
  std::size_t exports = 0;

  fs::path pusher() const { return work / "pusher"; }
  fs::path node(const std::string& name) const { return work / "nodes" / name; }
  std::uint16_t port() const { return server->tcp->port(); }

  void import(const std::string& ref, const std::string& dir) {
    Session s(pusher(), port());
    const std::size_t colon = ref.find(':');
    const fs::path src = corpus / dir;
    vfs::FileTree root = [&] {
      ScopedSpan span("vfs.load_tree");
      return vfs::load_tree(src);
    }();
    docker::ImageBuilder builder;
    {
      ScopedSpan span("docker.add_snapshot");
      builder.add_snapshot(root);
    }
    docker::ImageConfig config;
    config.labels["gearctl.import.source"] = src.string();
    docker::Image image = [&] {
      ScopedSpan span("docker.build");
      return builder.build(ref.substr(0, colon), ref.substr(colon + 1), config);
    }();
    GearConverter converter(hasher, [&s](const Fingerprint& fp) {
      ScopedSpan span("converter.probe");
      StatusOr<Bytes> got = s.files.download(fp);
      if (!got.ok()) return std::optional<Bytes>();
      g_rec.add("converter.probe.hits", 1);
      g_rec.add("converter.probe.bytes", static_cast<double>(got->size()));
      return std::optional<Bytes>(std::move(got).value());
    });
    converter.set_concurrency(concurrency);
    ConversionResult conv = [&] {
      ScopedSpan span("converter.convert");
      return converter.convert(image);
    }();
    std::unique_ptr<util::ThreadPool> pool;
    if (concurrency.resolved_workers() > 1) {
      pool = std::make_unique<util::ThreadPool>(concurrency.resolved_workers());
    }
    std::size_t uploaded = 0;
    {
      ScopedSpan span("push");
      uploaded = push_gear_image(conv.image, s.docker, s.files, ChunkPolicy{},
                                 pool.get(), concurrency.max_inflight_bytes);
    }
    s.save();
    g_rec.add("push.files_unique",
              static_cast<double>(conv.stats.files_unique));
    g_rec.add("push.uploaded", static_cast<double>(uploaded));
    g_rec.add("converter.collisions",
              static_cast<double>(conv.stats.collisions));
  }

  bool launch(const std::string& name, const std::string& ref,
              const std::string& dir) {
    Session s(node(name), port());
    LocalRuntime runtime(s.docker, s.files, node(name) / "local");
    {
      ScopedSpan span("runtime.pull");
      runtime.pull(ref);
    }
    {
      ScopedSpan span("runtime.launch");
      (void)runtime.launch(ref);
    }
    s.save();
    if (g_rec.on()) {
      std::size_t hits = 0;
      std::vector<Fingerprint> fps =
          runtime.store().load_index(ref).distinct_fingerprints();
      for (const Fingerprint& fp : fps) {
        hits += runtime.store().cache_contains(fp) ? 1 : 0;
      }
      g_rec.add("fs_store.cache_hits", static_cast<double>(hits));
      g_rec.add("fs_store.cache_lookups", static_cast<double>(fps.size()));
    }
    {
      ScopedSpan span("runtime.prefetch");
      auto [files, bytes] = runtime.prefetch(ref, PrefetchOrder::kDelta);
      g_rec.add("runtime.prefetch.files", static_cast<double>(files));
    }
    s.save();
    node_cache_bytes[name] = runtime.store().cache_bytes();

    const fs::path materialized =
        node(name) / "local" / "images" / sanitize_reference(ref) / "files";
    bool same = true;
    for (const auto& [path, entry] : list_tree(corpus / dir)) {
      if (entry.first != 'f') continue;
      same = same && fs::is_regular_file(materialized / path) &&
             to_string(read_file_bytes(materialized / path)) == entry.second;
    }
    return same;
  }

  bool cat(const std::string& name, const std::string& ref,
           const std::string& path, const std::string& file) {
    Session s(node(name), port());
    GearIndex index = s.load_index(ref);
    const vfs::FileNode* stub = index.tree().lookup(path);
    if (stub == nullptr || !stub->is_fingerprint()) return false;
    Bytes content = s.files.download(stub->fingerprint()).value();
    return content == read_file_bytes(corpus / file);
  }

  bool export_tree(const std::string& name, const std::string& ref,
                   const std::string& dir) {
    const fs::path out = node(name) / ("export-" + std::to_string(exports++));
    {
      Session s(node(name), port());
      GearIndex index = s.load_index(ref);
      vfs::FileTree tree;
      tree.root().metadata() = index.tree().root().metadata();
      index.tree().walk([&](const std::string& path, const vfs::FileNode& n) {
        switch (n.type()) {
          case vfs::NodeType::kDirectory:
            tree.add_directory(path, n.metadata());
            break;
          case vfs::NodeType::kSymlink:
            tree.add_symlink(path, n.link_target(), n.metadata());
            break;
          case vfs::NodeType::kFingerprint:
            tree.add_file(path, s.files.download(n.fingerprint()).value(),
                          n.metadata());
            break;
          default:
            break;
        }
      });
      ScopedSpan span("vfs.write_tree");
      vfs::write_tree(tree, out);
    }
    const bool same = list_tree(out) == list_tree(corpus / dir);
    fs::remove_all(out);
    return same;
  }

  void sync(const std::string& name) {
    fs::create_directories(node(name));
    fs::remove_all(node(name) / "docker");
    fs::copy(pusher() / "docker", node(name) / "docker",
             fs::copy_options::recursive);
  }
};

/// Total of `parent` spans minus the part of each that `children` spans
/// (from any thread) cover.
double self_ms(const std::vector<Span>& spans, const std::string& parent,
               const std::vector<std::string>& children) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
  for (const Span& s : spans) {
    if (std::find(children.begin(), children.end(), s.name) != children.end()) {
      kids.emplace_back(s.start, s.end);
    }
  }
  std::sort(kids.begin(), kids.end());
  std::vector<std::pair<Clock::time_point, Clock::time_point>> merged;
  for (const auto& k : kids) {
    if (!merged.empty() && k.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, k.second);
    } else {
      merged.push_back(k);
    }
  }
  double total = 0;
  for (const Span& s : spans) {
    if (parent != s.name) continue;
    double covered = 0;
    for (const auto& [a, b] : merged) {
      const Clock::time_point lo = std::max(a, s.start);
      const Clock::time_point hi = std::min(b, s.end);
      if (lo < hi) covered += ms_between(lo, hi);
    }
    total += ms_between(s.start, s.end) - covered;
  }
  return total;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t end = line.find('\t', start);
    out.push_back(line.substr(start, end - start));
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

int cmd_replay(const Args& args) {
  Replay replay;
  replay.corpus = args.get("--corpus");
  replay.work = args.get("--work");
  replay.concurrency.workers = kWorkers;
  const bool passthrough =
      std::find(args.items.begin(), args.items.end(), "--passthrough") !=
      args.items.end();
  std::ifstream plan(args.get("--plan"));
  if (!plan) throw_error(ErrorCode::kNotFound, "cannot read the plan");

  fs::create_directories(replay.work);
  replay.server = std::make_unique<Server>(replay.work / "store");
  save_docker_registry(docker::DockerRegistry(), replay.pusher());

  const net::LoopbackServerStats& served = replay.server->frames->stats();
  auto items_served = [&served] {
    return served.query_items.load() + served.upload_items.load() +
           served.download_items.load() + served.chunk_items.load();
  };
  std::uint64_t frames_at_start = 0;
  std::uint64_t round_trips_at_start = 0;
  std::uint64_t items_at_start = 0;
  Clock::time_point timed_start = Clock::now();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool timed = false;

  std::string line;
  while (std::getline(plan, line)) {
    if (line.empty()) continue;
    std::vector<std::string> f = split_tabs(line);
    if (f[0] == "timed") {
      timed = true;
      frames_at_start = replay.server->tcp->frames_served();
      round_trips_at_start = served.round_trips.load();
      items_at_start = items_served();
      g_rec.set_on(!passthrough);
      timed_start = Clock::now();
      continue;
    }
    bool ok = false;
    try {
      if (f[0] == "import" && f.size() == 3) {
        replay.import(f[1], f[2]);
        ok = true;
      } else if (f[0] == "sync" && f.size() == 2) {
        replay.sync(f[1]);
        continue;
      } else if (f[0] == "reset" && f.size() == 2) {
        fs::remove_all(replay.node(f[1]) / "local");
        continue;
      } else if (f[0] == "launch" && f.size() == 4) {
        ok = replay.launch(f[1], f[2], f[3]);
      } else if (f[0] == "cat" && f.size() == 5) {
        ok = replay.cat(f[1], f[2], f[3], f[4]);
      } else if (f[0] == "export" && f.size() == 4) {
        ok = replay.export_tree(f[1], f[2], f[3]);
      } else {
        throw_error(ErrorCode::kInvalidArgument, "bad plan line: " + line);
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "wallbench_helper: %s: %s\n", line.c_str(),
                   e.what());
    }
    if (!ok) {
      std::fprintf(stderr, "wallbench_helper: FAILED %s\n", line.c_str());
    }
    if (!timed && !ok) return 1;  // a broken set-up leaves nothing to measure
    if (timed) {
      ++attempted;
      failed += ok ? 0 : 1;
    }
  }
  const double wall_s = ms_between(timed_start, Clock::now()) / 1000.0;
  g_rec.set_on(false);
  replay.server->tcp->stop();

  const std::vector<Span> spans = g_rec.spans();
  auto total_ms = [&spans](const std::string& name) {
    double t = 0;
    for (const Span& s : spans) {
      if (name == s.name) t += ms_between(s.start, s.end);
    }
    return t;
  };
  auto calls = [&spans](const std::string& name) {
    double n = 0;
    for (const Span& s : spans) n += name == s.name ? 1 : 0;
    return n;
  };
  std::vector<double> rtts;
  for (const Span& s : spans) {
    if (std::string("net.rtt") == s.name) {
      rtts.push_back(ms_between(s.start, s.end));
    }
  }
  const std::vector<std::string> client_calls = {
      "client.query", "client.upload", "client.download"};
  std::uint64_t cache_bytes = 0;
  for (const auto& [node, bytes] : replay.node_cache_bytes) {
    cache_bytes += bytes;
  }
  const double server_frames = static_cast<double>(
      replay.server->tcp->frames_served() - frames_at_start);
  const double md5_ms = total_ms("md5");

  struct Metric {
    const char* name;
    const char* unit;
    double value;
  };
  const std::vector<Metric> metrics = {
      {"vfs.load_tree.ms", "ms", total_ms("vfs.load_tree")},
      {"vfs.write_tree.ms", "ms", total_ms("vfs.write_tree")},
      {"docker.add_snapshot.ms", "ms", total_ms("docker.add_snapshot")},
      {"docker.build.ms", "ms", total_ms("docker.build")},
      {"docker.index_load.ms", "ms", total_ms("docker.index_load")},
      {"md5.calls", "count", calls("md5")},
      {"md5.ms", "ms", md5_ms},
      {"md5.mb_s", "MB/s",
       ratio(g_rec.counter("md5.bytes") / 1e6, md5_ms / 1000.0)},
      {"converter.self_ms", "ms",
       self_ms(spans, "converter.convert", {"md5", "converter.probe"})},
      {"converter.probe.calls", "count", calls("converter.probe")},
      {"converter.probe.hits", "count",
       g_rec.counter("converter.probe.hits")},
      {"converter.probe.bytes", "B", g_rec.counter("converter.probe.bytes")},
      {"converter.probe.ms", "ms", total_ms("converter.probe")},
      {"converter.probe.useful_share", "share",
       ratio(g_rec.counter("converter.collisions"),
             g_rec.counter("converter.probe.hits"))},
      {"push.self_ms", "ms", self_ms(spans, "push", client_calls)},
      {"push.dedup_share", "share",
       ratio(g_rec.counter("push.files_unique") -
                 g_rec.counter("push.uploaded"),
             g_rec.counter("push.files_unique"))},
      {"push.upload_frames", "count", g_rec.counter("push.upload_frames")},
      {"compress.stored_share", "share",
       ratio(g_rec.counter("compress.stored_frames"),
             g_rec.counter("compress.frames"))},
      {"compress.ratio", "ratio",
       ratio(g_rec.counter("compress.original_bytes"),
             g_rec.counter("compress.frame_bytes"))},
      {"net.round_trips", "count", calls("net.rtt")},
      {"net.rtt_ms.p50", "ms", quantile(rtts, 0.50)},
      {"net.rtt_ms.p99", "ms", quantile(rtts, 0.99)},
      {"net.bytes_up", "B", g_rec.counter("net.bytes_up")},
      {"net.bytes_down", "B", g_rec.counter("net.bytes_down")},
      {"net.items_per_frame", "count",
       ratio(static_cast<double>(items_served() - items_at_start),
             static_cast<double>(served.round_trips.load() -
                                 round_trips_at_start))},
      {"net.retries", "count", g_rec.counter("net.retries")},
      {"net.reconnects", "count", g_rec.counter("net.reconnects")},
      {"net.server_frames", "count", server_frames},
      {"net.server_rejected", "count",
       static_cast<double>(replay.server->tcp->frames_rejected())},
      {"remote.self_ms", "ms",
       self_ms(spans, "client.query", {"net.rtt"}) +
           self_ms(spans, "client.upload", {"net.rtt"}) +
           self_ms(spans, "client.download", {"net.rtt"})},
      {"registry.query.calls", "count", calls("registry.query")},
      {"registry.upload.calls", "count", calls("registry.upload")},
      {"registry.download.calls", "count", calls("registry.download")},
      {"registry.upload.ms", "ms", total_ms("registry.upload")},
      {"registry.download.ms", "ms", total_ms("registry.download")},
      {"store.put.calls", "count", calls("store.put")},
      {"store.put.ms", "ms", total_ms("store.put")},
      {"store.get.calls", "count", calls("store.get")},
      {"store.get.ms", "ms", total_ms("store.get")},
      {"store.open.ms", "ms", replay.server->open_ms},
      {"runtime.pull.ms", "ms", total_ms("runtime.pull")},
      {"runtime.launch.ms", "ms", total_ms("runtime.launch")},
      {"runtime.prefetch.self_ms", "ms",
       self_ms(spans, "runtime.prefetch", client_calls)},
      {"runtime.prefetch.files", "count",
       g_rec.counter("runtime.prefetch.files")},
      {"fs_store.cache_hit_share", "share",
       ratio(g_rec.counter("fs_store.cache_hits"),
             g_rec.counter("fs_store.cache_lookups"))},
      {"fs_store.cache_bytes", "B", static_cast<double>(cache_bytes)},
  };

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"wall_s\": %.6f, \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed, wall_s);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.6f, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: wallbench_helper gen|replay [--key value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Args args{std::vector<std::string>(argv + 2, argv + argc)};
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "replay") return cmd_replay(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench_helper: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "wallbench_helper: unknown command %s\n", cmd.c_str());
  return 2;
}
