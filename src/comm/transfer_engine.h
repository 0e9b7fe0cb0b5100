// Shared transfer engine: the fast path under both the zero-copy PS
// mechanism and the collectives (ISSUE 5).
//
// One engine per sending device, three optimizations, all measurable in
// virtual time:
//
//   * Multi-QP lane striping — a large one-sided write is split into
//     contiguous stripes posted across the device's QP lanes to one peer, so
//     the transfer is not serialized behind a single QP's WQE-engine ceiling
//     (cost.rdma_qp_engine_bytes_per_sec). The trailing flag byte is posted
//     only after every stripe's completion has been observed, which preserves
//     the §3.2 contract: a receiver that sees the flag set can trust the
//     payload. Stripes target disjoint remote ranges and the flag is ordered
//     behind their wire completions, so the path is clean under
//     check::RdmaCheck's remote-race and flag-trust detectors.
//
//   * Small-tensor coalescing — payload+flag pairs below a threshold bound
//     for the same peer are queued and flushed as one doorbell-chained WR
//     batch (QueuePair::PostSendBatch): the per-message CPU overhead of the
//     cost model is paid once per batch, which is where the paper's Fig. 8
//     small-message gap comes from. The batch interleaves [payload, flag,
//     payload, flag, ...]; the wire delivers the chain in posting order, so
//     each flag still lands after its payload.
//
//   * MR registration cache — an extent-based LRU cache (tensor::
//     ExtentLruCache) in front of verbs registration, so the §3.3 dynamic
//     protocol stops paying the per-page pinning cost on every step
//     (registration pressure, §3.4 / RDMAvisor). Eviction honors the NIC's
//     MR-count limit and never removes an extent used in the current epoch
//     (its pages may be the target of an in-flight remote read). Cached MRs
//     are deregistered at engine teardown, so they never surface as RdmaCheck
//     leaks.
//
// Determinism: lane fan-out, flush scheduling, and eviction-victim selection
// depend only on posting order and virtual time — never on pointer values or
// unordered-container iteration — so same-seed runs produce byte-identical
// traces with every path enabled.
#ifndef RDMADL_SRC_COMM_TRANSFER_ENGINE_H_
#define RDMADL_SRC_COMM_TRANSFER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/device/rdma_device.h"
#include "src/tensor/extent_cache.h"
#include "src/util/endpoint.h"
#include "src/util/status.h"

namespace rdmadl {
namespace comm {

struct TransferEngineOptions {
  // Lane striping for large writes.
  bool enable_striping = true;
  // QP lanes to stripe across; 0 = all of the device's QPs per peer.
  int stripe_lanes = 0;
  // Writes of at least this many bytes are striped.
  uint64_t stripe_threshold_bytes = 4ull << 20;

  // Doorbell coalescing for small writes.
  bool enable_coalescing = true;
  // Writes of at most this many bytes are coalesced.
  uint64_t coalesce_threshold_bytes = 8192;
  // How long a queued write may wait for peers to join its batch. 0 flushes
  // at the end of the current instant (same virtual timestamp), adding no
  // latency but batching only tensors issued together; the default is under
  // one wire latency, so lone senders lose less than a flight time while
  // bursts of small tensors share one doorbell.
  int64_t coalesce_window_ns = 400;
  // Flush immediately once a batch holds this many tensors.
  int max_coalesce_batch = 16;

  // MR registration cache (used only via GetOrRegisterMr; callers opt in).
  int mr_cache_capacity = 64;
};

class TransferEngine {
 public:
  // One side of a write: a registered local range and its remote target.
  struct WriteDesc {
    void* local_addr = nullptr;
    uint32_t lkey = 0;
    uint64_t remote_addr = 0;
    uint32_t rkey = 0;
    uint64_t bytes = 0;
    bool copy_bytes = true;
  };

  // How WriteWithFlag / WriteGather routed a request (callers keep their own
  // stats). kScatterGather covers every multi-extent posting through
  // WriteGather, whether it rode one SG-WR or one SG-WR per lane stripe.
  enum class Route { kDirect, kStriped, kCoalesced, kScatterGather };

  struct Stats {
    int64_t direct_writes = 0;
    int64_t striped_writes = 0;
    int64_t stripe_lane_writes = 0;  // Individual stripes posted.
    int64_t coalesced_writes = 0;
    int64_t coalesced_batches = 0;   // Doorbells rung for those writes.
    int64_t gather_writes = 0;       // WriteGather requests routed as SG.
    int64_t sg_wrs_posted = 0;       // SG work requests those rode in.
    int64_t sg_extents_posted = 0;   // Extents carried by those WRs.
    int64_t mr_cache_hits = 0;
    int64_t mr_cache_misses = 0;
    int64_t mr_cache_evictions = 0;
  };

  // Result of an MR-cache lookup/registration.
  struct MrHandle {
    uint32_t lkey = 0;
    uint32_t rkey = 0;
    // Pinning cost to charge to the caller's timeline (0 on a hit).
    int64_t register_ns = 0;
    bool hit = false;
    // Entries evicted to make room for this registration.
    int evictions = 0;
  };

  // The engine must go before |device|: its cached registrations are
  // regions of that device.
  TransferEngine(device::RdmaDevice* device, const TransferEngineOptions& options);

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  // Posts |payload| followed by its trailing |flag| byte toward |remote|,
  // routing through the striped, coalesced, or direct path by size. The §3.2
  // contract is preserved on every route: the flag lands only after the whole
  // payload. |on_done| fires once, at the flag's completion or at the first
  // error. |lane_hint| selects the QP lane for un-striped traffic (callers
  // keep their existing lane discipline).
  Route WriteWithFlag(const Endpoint& remote, const WriteDesc& payload,
                      const WriteDesc& flag, int lane_hint, device::MemcpyCallback on_done);

  // Multi-extent counterpart of WriteWithFlag: posts |extents| (which must
  // all share one lkey/rkey pair — one registration domain, e.g. a GPU arena)
  // followed by the trailing |flag| byte. A single extent falls back to
  // WriteWithFlag's size-based routing. Multiple extents ride scatter/gather
  // WRs: one SG-WR on |lane_hint| by default, or — when the payload clears
  // the striping gate — one SG-WR per lane stripe (extents partitioned into
  // contiguous, byte-balanced runs; extents are never split mid-extent). The
  // flag is posted only after every SG-WR's completion, so §3.2 holds per
  // extent: a receiver that sees the flag can trust every extent. |on_done|
  // fires once, at the flag's completion or the first error.
  Route WriteGather(const Endpoint& remote, const std::vector<WriteDesc>& extents,
                    const WriteDesc& flag, int lane_hint, device::MemcpyCallback on_done);

  // Drops queued-but-unposted coalesced writes without invoking callbacks
  // (teardown/abort aid, mirroring RdmaDevice::DropPendingCallbacks).
  void ResetTransientState();

  // Advances the MR-cache epoch. Extents used in the current epoch are
  // pinned: they may be the target of in-flight remote reads, so eviction
  // only considers entries from earlier epochs.
  void BeginEpoch(int64_t epoch);

  // Looks up [addr, addr+bytes) in the registration cache, registering a
  // page-aligned extent on a miss (evicting LRU entries from earlier epochs
  // to respect capacity and the NIC MR limit). Fails with kResourceExhausted
  // when the NIC cannot hold another region; callers fall back to staging.
  StatusOr<MrHandle> GetOrRegisterMr(const void* addr, uint64_t bytes);

  const Stats& stats() const { return stats_; }
  device::RdmaDevice* device() const { return device_; }
  int mr_cache_size() const { return static_cast<int>(mr_cache_.size()); }

  // Multi-level engine routing: caps the stripe fan-out per destination.
  // With a hierarchical fabric, stripes toward a cross-rack peer all funnel
  // through the same oversubscribed rack uplink, so spreading them over many
  // QP lanes buys no bandwidth and only multiplies WQE-engine work; the
  // topology-aware collectives install a resolver that returns 1 for
  // cross-rack destinations and the full lane count within a rack. Returns
  // <= 0 to mean "no cap". Null (the default) leaves every route untouched.
  void set_lane_limit_resolver(std::function<int(const Endpoint&)> resolver) {
    lane_limit_resolver_ = std::move(resolver);
  }

 private:
  struct PendingWrite {
    WriteDesc payload;
    WriteDesc flag;
    device::MemcpyCallback on_done;
  };
  struct PeerQueue {
    std::vector<PendingWrite> pending;
    bool flush_scheduled = false;
  };
  struct CachedMr {
    device::MemRegion mr;
    int64_t epoch = 0;
  };
  // One WR of a striped or gathered write, planned before anything posts:
  // either a contiguous stripe |write| of the payload (a plain WR), or the
  // run [begin, end) of gather_scratch_ extents (one SG-WR; |write| carries
  // its keys and copy mode).
  struct Piece {
    int lane = 0;
    device::RdmaChannel* channel = nullptr;  // Resolved by PostJoined.
    WriteDesc write;
    size_t begin = 0;
    size_t end = 0;
  };

  // Resolves the channel for (remote, lane). The first use goes through
  // RdmaDevice::GetChannel, which connects the peer and acquires the pooled
  // lane; later uses hit a cache. A channel lives as long as its device, so
  // a cached pointer never dangles, and its own lazy reattach covers a lane
  // torn down since.
  StatusOr<device::RdmaChannel*> Channel(const Endpoint& remote, int lane);
  Route PostDirect(const Endpoint& remote, const WriteDesc& payload, const WriteDesc& flag,
                   int lane_hint, device::MemcpyCallback on_done);
  void PostStriped(const Endpoint& remote, const WriteDesc& payload, const WriteDesc& flag,
                   int lane_hint, device::MemcpyCallback on_done);
  // The join under both multi-WR routes: posts the planned pieces_, then —
  // after every piece's completion has been observed — the trailing |flag|
  // on |flag_lane|. Every channel is resolved before anything is posted, so
  // a connection failure fails the write whole (returns false after failing
  // |on_done|) instead of half-posted. |flag_rides_in_list| is the
  // kFlagRidesInSgList mutation: the flag rides as the first extent of the
  // first SG-WR instead.
  bool PostJoined(const Endpoint& remote, const WriteDesc& flag, int flag_lane,
                  bool flag_rides_in_list, device::MemcpyCallback on_done);
  void Flush(const Endpoint& remote, PeerQueue* queue);
  int LaneCount() const;
  // LaneCount clamped by the lane-limit resolver for |remote| (never < 1).
  int LaneCountFor(const Endpoint& remote) const;

  device::RdmaDevice* device_;
  TransferEngineOptions options_;
  Stats stats_;
  std::map<Endpoint, PeerQueue> queues_;
  // Bumped by ResetTransientState to invalidate scheduled flushes.
  uint64_t generation_ = 0;
  // Round-robin lane for coalesced batches.
  int next_batch_lane_ = 0;
  // Lane-binding cache: (remote, lane) -> the device's channel.
  std::map<std::pair<Endpoint, int>, device::RdmaChannel*> channel_cache_;

  tensor::ExtentLruCache<CachedMr> mr_cache_;
  int64_t epoch_ = 0;
  std::function<int(const Endpoint&)> lane_limit_resolver_;

  // Hoisted scratch for the striped and SG posting paths (reserve once,
  // reuse every call, allocate nothing per extent on the steady state).
  // gather_scratch_ holds the flattened extent list while WriteGather plans
  // stripes; pieces_ holds the planned WRs of either route. Both are
  // cleared, never shrunk.
  std::vector<rdma::SgExtent> gather_scratch_;
  std::vector<Piece> pieces_;
};

}  // namespace comm
}  // namespace rdmadl

#endif  // RDMADL_SRC_COMM_TRANSFER_ENGINE_H_
