#include "src/comm/transfer_engine.h"

#include <algorithm>
#include <utility>

#include "src/check/mutation.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace comm {

TransferEngine::TransferEngine(device::RdmaDevice* device, const TransferEngineOptions& options)
    : device_(device), options_(options) {
  CHECK(device_ != nullptr);
}

TransferEngine::~TransferEngine() {
  // Cached registrations would otherwise outlive the mechanism and surface as
  // RdmaCheck teardown leaks (rkeys naming memory about to be freed).
  mr_cache_.ForEach(
      [this](const auto& entry) { (void)device_->nic()->DeregisterMemory(entry.value.mr); });
  mr_cache_.Clear();
}

int TransferEngine::LaneCount() const {
  const int device_lanes = device_->num_qps_per_peer();
  if (options_.stripe_lanes <= 0) return device_lanes;
  return std::min(options_.stripe_lanes, device_lanes);
}

int TransferEngine::LaneCountFor(const Endpoint& remote) const {
  int lanes = LaneCount();
  if (lane_limit_resolver_) {
    const int cap = lane_limit_resolver_(remote);
    if (cap > 0) lanes = std::min(lanes, cap);
  }
  return std::max(lanes, 1);
}

StatusOr<device::RdmaChannel*> TransferEngine::Channel(const Endpoint& remote, int lane) {
  const uint64_t pool_gen = device_->qp_pool()->generation();
  if (pool_gen != pool_generation_) {
    channel_cache_.clear();
    pool_generation_ = pool_gen;
  }
  const std::pair<Endpoint, int> key(remote, lane);
  auto it = channel_cache_.find(key);
  if (it != channel_cache_.end()) return it->second;
  RDMADL_ASSIGN_OR_RETURN(device::RdmaChannel * channel, device_->GetChannel(remote, lane));
  channel_cache_[key] = channel;
  return channel;
}

void TransferEngine::FailAsync(device::MemcpyCallback on_done, Status status) {
  if (!on_done) return;
  device_->simulator()->ScheduleAfter(
      0, [cb = std::move(on_done), s = std::move(status)]() { cb(s); });
}

TransferEngine::Route TransferEngine::WriteWithFlag(const Endpoint& remote,
                                                    const WriteDesc& payload,
                                                    const WriteDesc& flag_desc, int lane_hint,
                                                    device::MemcpyCallback on_done) {
  WriteDesc flag = flag_desc;
  if (payload.bytes > 0 && flag.bytes > 0 &&
      check::MutationEnabled(check::kSkipFlagWrite)) {
    // Seeded bug (explorer self-validation): the sender "forgets" the flag
    // write. The payload lands, the completion fires, and the receiver polls
    // a flag byte nobody will ever set — the stall detector's target.
    flag.bytes = 0;
  }
  if (payload.bytes == 0) {
    return PostDirect(remote, payload, flag, lane_hint, std::move(on_done));
  }
  // Striping parallelizes the per-QP WQE-engine work. With the engine ceiling
  // disabled (rate 0 = infinite) there is nothing to parallelize: the stripes
  // would only fair-share the wire with unrelated transfers and delay this
  // write's own flag, so the route is also gated on a finite engine rate.
  if (options_.enable_striping && LaneCountFor(remote) > 1 &&
      payload.bytes >= options_.stripe_threshold_bytes &&
      device_->nic()->cost().rdma_qp_engine_bytes_per_sec > 0) {
    PostStriped(remote, payload, flag, lane_hint, std::move(on_done));
    return Route::kStriped;
  }
  if (options_.enable_coalescing && payload.bytes <= options_.coalesce_threshold_bytes) {
    PeerQueue& queue = queues_[remote];
    queue.pending.push_back(PendingWrite{payload, flag, std::move(on_done)});
    ++stats_.coalesced_writes;
    if (static_cast<int>(queue.pending.size()) >= options_.max_coalesce_batch) {
      Flush(remote, &queue);
    } else if (!queue.flush_scheduled) {
      queue.flush_scheduled = true;
      const uint64_t gen = generation_;
      const Endpoint rem = remote;
      device_->simulator()->ScheduleAfter(options_.coalesce_window_ns, [this, rem, gen]() {
        if (gen != generation_) return;
        auto it = queues_.find(rem);
        if (it == queues_.end()) return;
        it->second.flush_scheduled = false;
        Flush(rem, &it->second);
      });
    }
    return Route::kCoalesced;
  }
  return PostDirect(remote, payload, flag, lane_hint, std::move(on_done));
}

TransferEngine::Route TransferEngine::PostDirect(const Endpoint& remote,
                                                 const WriteDesc& payload,
                                                 const WriteDesc& flag, int lane_hint,
                                                 device::MemcpyCallback on_done) {
  auto channel_or = Channel(remote, lane_hint % std::max(1, device_->num_qps_per_peer()));
  if (!channel_or.ok()) {
    FailAsync(std::move(on_done), channel_or.status());
    return Route::kDirect;
  }
  device::RdmaChannel* channel = *channel_or;
  ++stats_.direct_writes;
  if (payload.bytes == 0) {
    channel->Memcpy(flag.local_addr, flag.lkey, flag.remote_addr, flag.rkey, flag.bytes,
                    device::Direction::kLocalToRemote, std::move(on_done), flag.copy_bytes);
    return Route::kDirect;
  }
  if (flag.bytes == 0) {
    // Payload only (flagless write, or the flag was mutated away): the
    // payload completion is the one the caller sees.
    channel->Memcpy(payload.local_addr, payload.lkey, payload.remote_addr, payload.rkey,
                    payload.bytes, device::Direction::kLocalToRemote, std::move(on_done),
                    payload.copy_bytes);
    return Route::kDirect;
  }
  // Same-QP FIFO + ascending-address delivery orders the flag behind the
  // payload (§3.2). The payload callback fires only on error; the flag
  // callback is the one completion the caller sees.
  auto state = std::make_shared<device::MemcpyCallback>(std::move(on_done));
  channel->Memcpy(
      payload.local_addr, payload.lkey, payload.remote_addr, payload.rkey, payload.bytes,
      device::Direction::kLocalToRemote,
      [state](const Status& status) {
        if (!status.ok() && *state) {
          device::MemcpyCallback cb = std::move(*state);
          *state = nullptr;
          cb(status);
        }
      },
      payload.copy_bytes);
  channel->Memcpy(
      flag.local_addr, flag.lkey, flag.remote_addr, flag.rkey, flag.bytes,
      device::Direction::kLocalToRemote,
      [state](const Status& status) {
        if (*state) {
          device::MemcpyCallback cb = std::move(*state);
          *state = nullptr;
          cb(status);
        }
      },
      flag.copy_bytes);
  return Route::kDirect;
}

void TransferEngine::PostStriped(const Endpoint& remote, const WriteDesc& payload,
                                 const WriteDesc& flag, int lane_hint,
                                 device::MemcpyCallback on_done) {
  const int lanes = LaneCountFor(remote);
  // MTU-aligned contiguous stripes: each lane gets one disjoint range, so no
  // two in-flight writes overlap (clean under the remote-race detector).
  const uint64_t mtu = std::max<uint64_t>(1, device_->cost().rdma_mtu_bytes);
  uint64_t per = (payload.bytes + lanes - 1) / lanes;
  per = (per + mtu - 1) / mtu * mtu;
  const int num_stripes = static_cast<int>((payload.bytes + per - 1) / per);

  // Resolve every channel before posting anything, so a connection failure
  // fails the write whole instead of half-posted.
  std::vector<device::RdmaChannel*> channels;
  channels.reserve(num_stripes);
  for (int i = 0; i < num_stripes; ++i) {
    auto channel_or = Channel(remote, i % lanes);
    if (!channel_or.ok()) {
      FailAsync(std::move(on_done), channel_or.status());
      return;
    }
    channels.push_back(*channel_or);
  }
  auto flag_channel_or = Channel(remote, lane_hint % lanes);
  if (!flag_channel_or.ok()) {
    FailAsync(std::move(on_done), flag_channel_or.status());
    return;
  }

  ++stats_.striped_writes;
  stats_.stripe_lane_writes += num_stripes;

  struct Join {
    int pending = 0;
    bool failed = false;
    bool flag_posted = false;  // Set by the kFlagBeforeLastStripe mutation.
    device::MemcpyCallback on_done;
    device::RdmaChannel* flag_channel = nullptr;
    WriteDesc flag;
  };
  auto join = std::make_shared<Join>();
  join->pending = num_stripes;
  join->on_done = std::move(on_done);
  join->flag_channel = *flag_channel_or;
  join->flag = flag;

  uint64_t offset = 0;
  for (int i = 0; i < num_stripes; ++i) {
    const uint64_t len = std::min(per, payload.bytes - offset);
    channels[i]->Memcpy(
        static_cast<uint8_t*>(payload.local_addr) + offset, payload.lkey,
        payload.remote_addr + offset, payload.rkey, len, device::Direction::kLocalToRemote,
        [join](const Status& status) {
          if (!status.ok() && !join->failed) {
            // First stripe error fails the write; later completions only
            // drain the join.
            join->failed = true;
            if (join->on_done) {
              device::MemcpyCallback cb = std::move(join->on_done);
              join->on_done = nullptr;
              cb(status);
            }
          }
          if (check::MutationEnabled(check::kFlagBeforeLastStripe) && !join->failed &&
              !join->flag_posted && join->flag.bytes > 0) {
            // Seeded bug (explorer self-validation): the flag is posted on
            // the FIRST stripe completion — sibling stripes are still in
            // flight, so a receiver that trusts the flag reads a torn
            // payload.
            join->flag_posted = true;
            join->flag_channel->Memcpy(join->flag.local_addr, join->flag.lkey,
                                       join->flag.remote_addr, join->flag.rkey,
                                       join->flag.bytes, device::Direction::kLocalToRemote,
                                       [](const Status&) {}, join->flag.copy_bytes);
          }
          if (--join->pending > 0 || join->failed) return;
          // Every stripe's completion has been observed: all payload bytes
          // are at the target, so the flag — on any lane — cannot overtake
          // them (the checker's completion-ordering happens-before edge).
          if (join->flag.bytes == 0 || join->flag_posted) {
            if (join->on_done) {
              device::MemcpyCallback cb = std::move(join->on_done);
              join->on_done = nullptr;
              cb(OkStatus());
            }
            return;
          }
          join->flag_channel->Memcpy(join->flag.local_addr, join->flag.lkey,
                                     join->flag.remote_addr, join->flag.rkey, join->flag.bytes,
                                     device::Direction::kLocalToRemote,
                                     std::move(join->on_done), join->flag.copy_bytes);
          join->on_done = nullptr;
        },
        payload.copy_bytes);
    offset += len;
  }
}

TransferEngine::Route TransferEngine::WriteGather(const Endpoint& remote,
                                                  const std::vector<WriteDesc>& extents,
                                                  const WriteDesc& flag, int lane_hint,
                                                  device::MemcpyCallback on_done) {
  if (extents.empty()) {
    WriteDesc empty;
    return PostDirect(remote, empty, flag, lane_hint, std::move(on_done));
  }
  if (extents.size() == 1) {
    // A single extent has nothing to gather: reuse the size-based routing
    // (striping / coalescing / direct) unchanged.
    return WriteWithFlag(remote, extents[0], flag, lane_hint, std::move(on_done));
  }
  const uint32_t lkey = extents[0].lkey;
  const uint32_t rkey = extents[0].rkey;
  const bool copy_bytes = extents[0].copy_bytes;
  uint64_t total = 0;
  for (const WriteDesc& e : extents) {
    if (e.lkey != lkey || e.rkey != rkey) {
      FailAsync(std::move(on_done),
                InvalidArgument("WriteGather extents must share one lkey/rkey pair"));
      return Route::kScatterGather;
    }
    total += e.bytes;
  }
  // Flatten into the hoisted scratch list (reserve-and-reuse: no per-extent
  // allocation once the high-water mark is reached).
  gather_scratch_.clear();
  gather_scratch_.reserve(extents.size() + 1);
  for (const WriteDesc& e : extents) {
    if (e.bytes == 0) continue;
    gather_scratch_.push_back(rdma::SgExtent{reinterpret_cast<uint64_t>(e.local_addr),
                                             e.remote_addr, e.bytes});
  }
  if (gather_scratch_.empty()) {
    WriteDesc empty;
    return PostDirect(remote, empty, flag, lane_hint, std::move(on_done));
  }
  // Stripe only when the payload clears the same gate as WriteWithFlag's
  // striping route: multiple lanes, threshold met, and a finite per-QP
  // WQE-engine rate (with the ceiling disabled the stripes would only
  // fair-share the wire and delay the flag).
  int stripes = 1;
  if (options_.enable_striping && total >= options_.stripe_threshold_bytes &&
      device_->nic()->cost().rdma_qp_engine_bytes_per_sec > 0) {
    stripes = std::min<int>(LaneCountFor(remote), static_cast<int>(gather_scratch_.size()));
  }
  PostGather(remote, flag, lane_hint, stripes, lkey, rkey, copy_bytes, std::move(on_done));
  return Route::kScatterGather;
}

void TransferEngine::PostGather(const Endpoint& remote, const WriteDesc& flag_desc,
                                int lane_hint, int stripes, uint32_t lkey, uint32_t rkey,
                                bool copy_bytes, device::MemcpyCallback on_done) {
  WriteDesc flag = flag_desc;
  if (flag.bytes > 0 && check::MutationEnabled(check::kSkipFlagWrite)) {
    flag.bytes = 0;  // Seeded bug: the flag write is silently dropped.
  }
  const bool flag_rides_in_list = flag.bytes > 0 &&
                                  check::MutationEnabled(check::kFlagRidesInSgList) &&
                                  flag.lkey == lkey && flag.rkey == rkey;
  // Partition the flattened extents into contiguous, byte-balanced runs (one
  // per stripe) without splitting any extent. stripe_bounds_ is hoisted
  // scratch like gather_scratch_.
  uint64_t total = 0;
  for (const rdma::SgExtent& e : gather_scratch_) total += e.length;
  stripe_bounds_.clear();
  const uint64_t per_stripe = (total + stripes - 1) / stripes;
  size_t begin = 0;
  uint64_t run_bytes = 0;
  for (size_t i = 0; i < gather_scratch_.size(); ++i) {
    run_bytes += gather_scratch_[i].length;
    const bool more_extents = i + 1 < gather_scratch_.size();
    const bool stripes_left =
        static_cast<int>(stripe_bounds_.size()) + 1 < stripes;
    if (!more_extents || (run_bytes >= per_stripe && stripes_left &&
                          gather_scratch_.size() - (i + 1) >=
                              static_cast<size_t>(stripes) - stripe_bounds_.size() - 1)) {
      stripe_bounds_.emplace_back(begin, i + 1);
      begin = i + 1;
      run_bytes = 0;
    }
  }
  const int num_wrs = static_cast<int>(stripe_bounds_.size());

  // Resolve every channel before posting anything (whole-or-nothing, like
  // PostStriped).
  const int lanes = LaneCountFor(remote);
  std::vector<device::RdmaChannel*> channels;
  channels.reserve(num_wrs);
  for (int i = 0; i < num_wrs; ++i) {
    auto channel_or = Channel(remote, num_wrs == 1 ? lane_hint % lanes : i % lanes);
    if (!channel_or.ok()) {
      FailAsync(std::move(on_done), channel_or.status());
      return;
    }
    channels.push_back(*channel_or);
  }
  auto flag_channel_or = Channel(remote, lane_hint % lanes);
  if (!flag_channel_or.ok()) {
    FailAsync(std::move(on_done), flag_channel_or.status());
    return;
  }

  ++stats_.gather_writes;
  stats_.sg_wrs_posted += num_wrs;
  stats_.sg_extents_posted += static_cast<int64_t>(gather_scratch_.size());

  struct Join {
    int pending = 0;
    bool failed = false;
    bool flag_posted = false;
    device::MemcpyCallback on_done;
    device::RdmaChannel* flag_channel = nullptr;
    WriteDesc flag;
  };
  auto join = std::make_shared<Join>();
  join->pending = num_wrs;
  join->on_done = std::move(on_done);
  join->flag_channel = *flag_channel_or;
  join->flag = flag;
  join->flag_posted = flag_rides_in_list;  // Mutated: no separate flag write.

  for (int i = 0; i < num_wrs; ++i) {
    const auto [lo, hi] = stripe_bounds_[i];
    std::vector<rdma::SgExtent> stripe;
    stripe.reserve(hi - lo + (i == 0 && flag_rides_in_list ? 1 : 0));
    if (i == 0 && flag_rides_in_list) {
      // Seeded bug (explorer self-validation): the completion flag rides as
      // the FIRST extent of the first SG-WR. Extents land in list order, so
      // the flag byte is readable while every sibling extent — and every
      // other stripe — is still in flight.
      stripe.push_back(rdma::SgExtent{reinterpret_cast<uint64_t>(join->flag.local_addr),
                                      join->flag.remote_addr, join->flag.bytes});
    }
    stripe.insert(stripe.end(), gather_scratch_.begin() + lo, gather_scratch_.begin() + hi);
    channels[i]->MemcpyScatter(
        std::move(stripe), lkey, rkey,
        [join](const Status& status) {
          if (!status.ok() && !join->failed) {
            join->failed = true;
            if (join->on_done) {
              device::MemcpyCallback cb = std::move(join->on_done);
              join->on_done = nullptr;
              cb(status);
            }
          }
          if (--join->pending > 0 || join->failed) return;
          // Every SG-WR's wire completion has been observed: all extents'
          // bytes are at the target, so the trailing flag — on any lane —
          // cannot overtake them (§3.2, per extent).
          if (join->flag.bytes == 0 || join->flag_posted) {
            if (join->on_done) {
              device::MemcpyCallback cb = std::move(join->on_done);
              join->on_done = nullptr;
              cb(OkStatus());
            }
            return;
          }
          join->flag_channel->Memcpy(join->flag.local_addr, join->flag.lkey,
                                     join->flag.remote_addr, join->flag.rkey,
                                     join->flag.bytes, device::Direction::kLocalToRemote,
                                     std::move(join->on_done), join->flag.copy_bytes);
          join->on_done = nullptr;
        },
        copy_bytes);
  }
}

void TransferEngine::Flush(const Endpoint& remote, PeerQueue* queue) {
  if (queue->pending.empty()) return;
  std::vector<PendingWrite> items = std::move(queue->pending);
  queue->pending.clear();

  auto channel_or = Channel(remote, next_batch_lane_);
  next_batch_lane_ = (next_batch_lane_ + 1) % std::max(1, device_->num_qps_per_peer());
  if (!channel_or.ok()) {
    for (PendingWrite& item : items) FailAsync(std::move(item.on_done), channel_or.status());
    return;
  }
  ++stats_.coalesced_batches;

  // One doorbell-chained batch, interleaved [payload, flag, payload, flag,
  // ...]: the chain executes in posting order on one QP, so each flag lands
  // after its own payload — §3.2 holds per tensor inside the batch.
  std::vector<device::RdmaChannel::BatchWrite> ops;
  ops.reserve(items.size() * 2);
  for (PendingWrite& item : items) {
    auto state = std::make_shared<device::MemcpyCallback>(std::move(item.on_done));
    device::RdmaChannel::BatchWrite payload_op;
    payload_op.local_addr = item.payload.local_addr;
    payload_op.lkey = item.payload.lkey;
    payload_op.remote_addr = item.payload.remote_addr;
    payload_op.rkey = item.payload.rkey;
    payload_op.size = item.payload.bytes;
    payload_op.copy_bytes = item.payload.copy_bytes;
    if (item.flag.bytes == 0) {
      // Flagless entry (the flag was mutated away): the payload completion
      // is the one the caller sees.
      payload_op.callback = [state](const Status& status) {
        if (*state) {
          device::MemcpyCallback cb = std::move(*state);
          *state = nullptr;
          cb(status);
        }
      };
      ops.push_back(std::move(payload_op));
      continue;
    }
    payload_op.callback = [state](const Status& status) {
      if (!status.ok() && *state) {
        device::MemcpyCallback cb = std::move(*state);
        *state = nullptr;
        cb(status);
      }
    };
    device::RdmaChannel::BatchWrite flag_op;
    flag_op.local_addr = item.flag.local_addr;
    flag_op.lkey = item.flag.lkey;
    flag_op.remote_addr = item.flag.remote_addr;
    flag_op.rkey = item.flag.rkey;
    flag_op.size = item.flag.bytes;
    flag_op.copy_bytes = item.flag.copy_bytes;
    flag_op.callback = [state](const Status& status) {
      if (*state) {
        device::MemcpyCallback cb = std::move(*state);
        *state = nullptr;
        cb(status);
      }
    };
    ops.push_back(std::move(payload_op));
    ops.push_back(std::move(flag_op));
  }
  (*channel_or)->MemcpyBatch(std::move(ops));
}

void TransferEngine::FlushCoalesced() {
  for (auto& [remote, queue] : queues_) {
    Flush(remote, &queue);
  }
}

void TransferEngine::ResetTransientState() {
  // Invalidate scheduled flushes and drop queued writes without invoking
  // their callbacks (the owning step has been aborted; this mirrors
  // RdmaDevice::DropPendingCallbacks).
  ++generation_;
  for (auto& [remote, queue] : queues_) {
    queue.pending.clear();
    queue.flush_scheduled = false;
  }
  // Recovery may tear down or reconnect lanes out from under us; re-resolve
  // every binding through the pool on the next write.
  channel_cache_.clear();
}

void TransferEngine::BeginEpoch(int64_t epoch) { epoch_ = epoch; }

StatusOr<TransferEngine::MrHandle> TransferEngine::GetOrRegisterMr(const void* addr,
                                                                   uint64_t bytes) {
  if (addr == nullptr || bytes == 0) {
    return InvalidArgument("cannot cache-register an empty range");
  }
  const uint64_t a = reinterpret_cast<uint64_t>(addr);
  if (auto* entry = mr_cache_.Lookup(a, bytes)) {
    entry->value.epoch = epoch_;  // Pin against eviction this epoch.
    ++stats_.mr_cache_hits;
    MrHandle handle;
    handle.lkey = entry->value.mr.lkey;
    handle.rkey = entry->value.mr.rkey;
    handle.hit = true;
    return handle;
  }
  ++stats_.mr_cache_misses;

  // Page-aligned extent, like a real registration cache: reuse across steps
  // only works if the cached extent covers re-allocations of the same buffer.
  const uint64_t page = std::max<uint64_t>(1, device_->cost().mr_page_bytes);
  const uint64_t base = a / page * page;
  const uint64_t end = (a + bytes + page - 1) / page * page;

  int evictions = 0;
  auto evict_one = [this, &evictions]() {
    // Entries touched this epoch may be the target of an in-flight remote
    // read (§3.3 receiver side); only earlier epochs are evictable.
    auto victim =
        mr_cache_.EvictLru([this](const tensor::ExtentLruCache<CachedMr>::Entry& e) {
          return e.value.epoch < epoch_;
        });
    if (!victim.has_value()) return false;
    (void)device_->nic()->DeregisterMemory(victim->value.mr);
    ++evictions;
    ++stats_.mr_cache_evictions;
    return true;
  };
  while (static_cast<int>(mr_cache_.size()) >=
         std::max(1, options_.mr_cache_capacity)) {
    if (!evict_one()) break;
  }
  auto mr_or = device_->nic()->RegisterMemory(reinterpret_cast<void*>(base), end - base);
  while (!mr_or.ok() && mr_or.status().code() == StatusCode::kResourceExhausted) {
    // NIC MR limit: shed LRU cached extents until the registration fits or
    // nothing evictable remains.
    if (!evict_one()) break;
    mr_or = device_->nic()->RegisterMemory(reinterpret_cast<void*>(base), end - base);
  }
  if (!mr_or.ok()) return mr_or.status();
  mr_cache_.Insert(base, end - base, CachedMr{*mr_or, epoch_});
  MrHandle handle;
  handle.lkey = mr_or->lkey;
  handle.rkey = mr_or->rkey;
  handle.register_ns = device_->nic()->RegistrationCost(end - base);
  handle.evictions = evictions;
  return handle;
}

}  // namespace comm
}  // namespace rdmadl
