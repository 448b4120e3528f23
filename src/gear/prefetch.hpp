// Delta-first, priority-ordered prefetch scheduling (paper §I / §II-D).
//
// Most launches are new versions of already-cached images (CI/CD churn,
// serverless cold starts), so the files worth fetching first are (1) the
// version delta against the newest locally-cached index of the same series
// and (2) the files the workload touched early on previous runs. This module
// turns `prefetch_remaining`'s path-order walk into a plan:
//
//   * `ImageAccessProfile` — per-image first-materialization counts recorded
//     by the viewer/runtime, persisted next to the index ("GPRF1" text
//     format), merged across runs.
//   * `build_prefetch_plan` — orders the still-stubbed files of an index by
//     delta membership (via vfs::diff_trees on the two Gear indexes), then
//     access-likelihood score, then descending dedup fan-in / ascending size
//     tie-breakers. kPath preserves today's walk order exactly, so path mode
//     stays byte-, wire-, and stats-identical to the legacy prefetch.
//   * `drain_batches` — the two-stage pipeline: wire batches fetched ahead
//     under a bounded in-flight-bytes cap, overlapped with the serialized
//     accounting of already-landed batches. Batch composition and accounting
//     order never change with the overlap depth, so simulated costs and
//     registry stats are identical at any worker count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"
#include "vfs/file_tree.hpp"

namespace gear {

/// Queue discipline for prefetch_remaining's wire phase.
enum class PrefetchOrder {
  kPath,     // legacy: index walk order (byte-identical baseline)
  kDelta,    // version delta first, then fan-in/size tie-breakers
  kProfile,  // delta first, ranked by recorded access likelihood within
};

/// Strict parse of a --prefetch-order value; nullopt on anything unknown.
std::optional<PrefetchOrder> parse_prefetch_order(std::string_view name);
const char* prefetch_order_name(PrefetchOrder order) noexcept;

/// Per-image access profile: how often each path has been materialized
/// first-touch across runs of this image series. Recorded by the viewer
/// materializer on first materialization only (later reads hit the regular
/// node), so counts measure "needed early after a cold deploy", which is
/// exactly the prefetch scheduler's question.
class ImageAccessProfile {
 public:
  /// Records one first-materialization of `path`.
  void record(const std::string& path) { ++touches_[path]; }

  /// Marks the start of another deploy/run (merge bookkeeping only).
  void bump_run() { ++runs_; }

  /// Accumulates another profile of the same series (redeploy on a node
  /// that already holds history, cluster gossip, ...).
  void merge(const ImageAccessProfile& other);

  std::uint64_t touches(const std::string& path) const;
  std::uint64_t runs() const noexcept { return runs_; }
  bool empty() const noexcept { return touches_.empty(); }
  std::size_t distinct_paths() const noexcept { return touches_.size(); }

  /// "GPRF1" text format, deterministic (paths sorted):
  ///   GPRF1 <runs> <entries>\n
  ///   <count> <path>\n ...
  std::string serialize() const;
  static StatusOr<ImageAccessProfile> parse(std::string_view text);

  const std::map<std::string, std::uint64_t>& entries() const noexcept {
    return touches_;
  }

 private:
  std::map<std::string, std::uint64_t> touches_;  // path -> first-touch count
  std::uint64_t runs_ = 0;
};

/// One unique still-stubbed fingerprint of the plan, with the signals the
/// priority queue ranks by.
struct PrefetchItem {
  std::string path;  // first index path referencing the fingerprint
  Fingerprint fingerprint;
  std::uint64_t size = 0;             // stub (raw) size
  std::uint32_t fanin = 0;            // index paths sharing this fingerprint
  bool in_delta = false;              // changed vs the previous version
  std::uint64_t profile_touches = 0;  // access-likelihood score
};

struct PrefetchPlan {
  std::vector<PrefetchItem> items;  // fetch order, deduplicated
  std::size_t delta_files = 0;      // items with in_delta
  std::size_t profiled_files = 0;   // items with profile_touches > 0
};

/// Builds the fetch plan over the still-stubbed files of `index`.
///   * kPath: items appear exactly in walk (path) order of their first
///     reference — the legacy prefetch order, bit-for-bit.
///   * kDelta: delta members first (`previous` != nullptr enables the
///     vfs::diff_trees comparison), then fan-in desc, size asc; ties keep
///     walk order (stable sort), so the plan is deterministic.
///   * kProfile: like kDelta but ranked by `profile` touches before the
///     fan-in/size tie-breakers.
/// `previous`/`profile` may be null — the corresponding signal is skipped.
PrefetchPlan build_prefetch_plan(const vfs::FileTree& index,
                                 PrefetchOrder order,
                                 const vfs::FileTree* previous,
                                 const ImageAccessProfile* profile);

/// "name" of "name:tag" — the image series a version belongs to.
std::string series_of(const std::string& reference);

/// Picks the best "previous version" for a delta: the newest *other*
/// reference of `reference`'s series in `installed` (numeric-aware tag
/// comparison, e.g. v9 < v10). Empty string when the series has no other
/// installed version.
std::string newest_other_version(const std::vector<std::string>& installed,
                                 const std::string& reference);

/// Link arbiter between a lazy deployment's two fetch lanes: the demand
/// fault path (viewer reads, read_range) and the background backfill drain.
/// Demand is strictly higher priority — while any demand fetch is
/// registered, a lane-aware drain launches no new wire batch (batches
/// already in flight complete normally), and the demand fetch's in-flight
/// bytes count against the drain's byte budget, so the two lanes together
/// never exceed the configured cap. Thread-safe: demand registrations come
/// from viewer/reader threads, yields from the backfill thread.
class DemandLane {
 public:
  /// Registers a demand fetch of ~`bytes` about to hit the wire.
  void begin_demand(std::uint64_t bytes);
  /// Unregisters it (same `bytes` as the matching begin_demand).
  void end_demand(std::uint64_t bytes);

  bool demand_active() const;
  std::uint64_t demand_inflight_bytes() const;

  /// Blocks the calling (backfill) thread until no demand fetch is in
  /// flight. Counts one yield when it actually had to wait.
  void yield_to_demand();

  /// Total demand fetches registered (faults that reached the wire).
  std::uint64_t demand_fetches() const;
  /// Times a backfill drain paused because demand held the link.
  std::uint64_t backfill_yields() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t active_ = 0;
  std::uint64_t inflight_bytes_ = 0;
  std::uint64_t fetches_ = 0;
  std::uint64_t yields_ = 0;
};

/// RAII demand registration; a null lane makes it a no-op.
class DemandScope {
 public:
  DemandScope(DemandLane* lane, std::uint64_t bytes);
  ~DemandScope();
  DemandScope(const DemandScope&) = delete;
  DemandScope& operator=(const DemandScope&) = delete;

 private:
  DemandLane* lane_;
  std::uint64_t bytes_;
};

/// Files per bulk download round-trip: the default width of every batched
/// fetch (GearClient's download_batch_files, the LocalRuntime read path).
inline constexpr std::size_t kDownloadBatchFiles = 64;

/// One wire batch of a prefetch drain, as formed by the client (bounded by
/// download_batch_files and the in-flight wire budget).
struct PrefetchBatch {
  std::vector<Fingerprint> fps;
  std::vector<std::uint64_t> sizes;  // expected raw sizes (index stubs)
  std::uint64_t wire_estimate = 0;   // stored/stub bytes, for the byte cap
  std::uint64_t requests = 0;        // link request count (chunk bursts)
};

/// A landed batch: decompressed contents + actual wire bytes moved.
struct FetchedBatch {
  std::vector<Bytes> contents;
  std::uint64_t wire_bytes = 0;
  /// Opaque host-budget lease (gear/admission) charged for this batch's
  /// staging bytes. Held across the fetch → account handoff and returned by
  /// destruction on every path — accounted, dropped, or thrown past.
  std::shared_ptr<void> budget_lease;
  /// Per-slot flags for drains that may skip members (empty = every slot
  /// fetched). The lazy backfill leaves fingerprints an in-flight demand
  /// fault already owns to that fault: their contents slots are empty
  /// placeholders and must not be accounted.
  std::vector<std::uint8_t> fetched;
};

/// Stage 1 — one wire round-trip + decompression of a batch. Must be safe
/// to call from pool workers when drain_batches overlaps (the pool argument
/// it receives is then null: workers must not fan out again). Throws on
/// failure.
using BatchFetchFn =
    std::function<FetchedBatch(const PrefetchBatch&, util::ThreadPool*)>;

/// Stage 2 — the single serialized accounting point, invoked in batch
/// order on the caller's thread (link/disk/cache charging, observers).
using BatchAccountFn = std::function<void(const PrefetchBatch&, FetchedBatch)>;

/// Drains `batches` through fetch → account. Without a pool (or with a
/// single batch) this is today's serial loop: fetch(batch, pool) then
/// account, one batch at a time — intra-batch decompression still fans out
/// across `pool`. With a pool and several batches, up to
/// `max_inflight_bytes` of expected wire data (always at least one batch)
/// is fetched ahead on pool workers while the caller accounts landed
/// batches in submission order — the link stays busy while the CPU
/// decompresses. An exception from any stage is rethrown on the caller's
/// thread after every in-flight batch has been joined.
///
/// With a `lane`, the drain is preemptible: no new batch is launched while
/// a demand fetch is registered on the lane (the drain waits for it to
/// clear instead of spinning), and demand in-flight bytes are charged
/// against `max_inflight_bytes` alongside the drain's own look-ahead.
void drain_batches(const std::vector<PrefetchBatch>& batches,
                   util::ThreadPool* pool, std::uint64_t max_inflight_bytes,
                   const BatchFetchFn& fetch, const BatchAccountFn& account,
                   DemandLane* lane = nullptr);

}  // namespace gear
