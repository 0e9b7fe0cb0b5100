#include "src/comm/transfer_engine.h"

#include <algorithm>
#include <utility>

#include "src/check/mutation.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace comm {

namespace {

// Hands |status| to |*callback| at most once: the first call takes the
// callback, so every WR of one write can share it and the caller sees
// exactly one completion. A null callback is never invoked.
void FireOnce(device::MemcpyCallback* callback, const Status& status) {
  if (*callback) std::exchange(*callback, nullptr)(status);
}

// Posts |desc| as one RDMA write on |channel|.
void PostWrite(device::RdmaChannel* channel, const TransferEngine::WriteDesc& desc,
               device::MemcpyCallback on_done) {
  channel->Memcpy(desc.local_addr, desc.lkey, desc.remote_addr, desc.rkey, desc.bytes,
                  device::Direction::kLocalToRemote, std::move(on_done), desc.copy_bytes);
}

device::RdmaChannel::BatchWrite BatchEntry(const TransferEngine::WriteDesc& desc,
                                           device::MemcpyCallback on_done) {
  return {desc.local_addr, desc.lkey, desc.remote_addr, desc.rkey,
          desc.bytes,      desc.copy_bytes, std::move(on_done)};
}

}  // namespace

TransferEngine::TransferEngine(device::RdmaDevice* device, const TransferEngineOptions& options)
    : device_(device), options_(options) {
  CHECK(device_ != nullptr);
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
  const std::pair<Endpoint, int> key(remote, lane);
  auto it = channel_cache_.find(key);
  if (it != channel_cache_.end()) return it->second;
  RDMADL_ASSIGN_OR_RETURN(device::RdmaChannel * channel, device_->GetChannel(remote, lane));
  channel_cache_[key] = channel;
  return channel;
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
    device_->FailAsync(std::move(on_done), channel_or.status());
    return Route::kDirect;
  }
  device::RdmaChannel* channel = *channel_or;
  ++stats_.direct_writes;
  if (payload.bytes == 0 || flag.bytes == 0) {
    // One write alone (flag only, a flagless payload, or a payload whose
    // flag was mutated away): its completion is the one the caller sees.
    PostWrite(channel, payload.bytes == 0 ? flag : payload, std::move(on_done));
    return Route::kDirect;
  }
  // Same-QP FIFO + ascending-address delivery orders the flag behind the
  // payload (§3.2). The payload callback fires only on error; the flag
  // callback is the one completion the caller sees.
  auto state = std::make_shared<device::MemcpyCallback>(std::move(on_done));
  PostWrite(channel, payload, [state](const Status& status) {
    if (!status.ok()) FireOnce(state.get(), status);
  });
  PostWrite(channel, flag, [state](const Status& status) { FireOnce(state.get(), status); });
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
  pieces_.clear();
  for (uint64_t offset = 0; offset < payload.bytes; offset += per) {
    Piece piece;
    piece.lane = static_cast<int>(pieces_.size()) % lanes;
    piece.write = payload;
    piece.write.local_addr = static_cast<uint8_t*>(payload.local_addr) + offset;
    piece.write.remote_addr += offset;
    piece.write.bytes = std::min(per, payload.bytes - offset);
    pieces_.push_back(piece);
  }
  if (!PostJoined(remote, flag, lane_hint % lanes, /*flag_rides_in_list=*/false,
                  std::move(on_done))) {
    return;
  }
  ++stats_.striped_writes;
  stats_.stripe_lane_writes += static_cast<int64_t>(pieces_.size());
}

TransferEngine::Route TransferEngine::WriteGather(const Endpoint& remote,
                                                  const std::vector<WriteDesc>& extents,
                                                  const WriteDesc& flag_desc, int lane_hint,
                                                  device::MemcpyCallback on_done) {
  if (extents.empty()) {
    WriteDesc empty;
    return PostDirect(remote, empty, flag_desc, lane_hint, std::move(on_done));
  }
  if (extents.size() == 1) {
    // A single extent has nothing to gather: reuse the size-based routing
    // (striping / coalescing / direct) unchanged.
    return WriteWithFlag(remote, extents[0], flag_desc, lane_hint, std::move(on_done));
  }
  const uint32_t lkey = extents[0].lkey;
  const uint32_t rkey = extents[0].rkey;
  uint64_t total = 0;
  for (const WriteDesc& e : extents) {
    if (e.lkey != lkey || e.rkey != rkey) {
      device_->FailAsync(std::move(on_done),
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
    return PostDirect(remote, empty, flag_desc, lane_hint, std::move(on_done));
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
  WriteDesc flag = flag_desc;
  if (flag.bytes > 0 && check::MutationEnabled(check::kSkipFlagWrite)) {
    flag.bytes = 0;  // Seeded bug: the flag write is silently dropped.
  }
  const bool flag_rides_in_list = flag.bytes > 0 &&
                                  check::MutationEnabled(check::kFlagRidesInSgList) &&
                                  flag.lkey == lkey && flag.rkey == rkey;
  // Partition the flattened extents into contiguous, byte-balanced runs (one
  // SG-WR per stripe) without splitting any extent.
  const int lanes = LaneCountFor(remote);
  pieces_.clear();
  const uint64_t per_stripe = (total + stripes - 1) / stripes;
  size_t begin = 0;
  uint64_t run_bytes = 0;
  for (size_t i = 0; i < gather_scratch_.size(); ++i) {
    run_bytes += gather_scratch_[i].length;
    const bool more_extents = i + 1 < gather_scratch_.size();
    const bool stripes_left = static_cast<int>(pieces_.size()) + 1 < stripes;
    if (!more_extents || (run_bytes >= per_stripe && stripes_left &&
                          gather_scratch_.size() - (i + 1) >=
                              static_cast<size_t>(stripes) - pieces_.size() - 1)) {
      Piece piece;
      piece.lane = static_cast<int>(pieces_.size()) % lanes;
      piece.write = extents[0];
      piece.begin = begin;
      piece.end = i + 1;
      pieces_.push_back(piece);
      begin = i + 1;
      run_bytes = 0;
    }
  }
  if (pieces_.size() == 1) pieces_[0].lane = lane_hint % lanes;
  if (PostJoined(remote, flag, lane_hint % lanes, flag_rides_in_list, std::move(on_done))) {
    ++stats_.gather_writes;
    stats_.sg_wrs_posted += static_cast<int64_t>(pieces_.size());
    stats_.sg_extents_posted += static_cast<int64_t>(gather_scratch_.size());
  }
  return Route::kScatterGather;
}

bool TransferEngine::PostJoined(const Endpoint& remote, const WriteDesc& flag, int flag_lane,
                                bool flag_rides_in_list, device::MemcpyCallback on_done) {
  // Resolve every channel before posting anything, so a connection failure
  // fails the write whole instead of half-posted.
  for (Piece& piece : pieces_) {
    auto channel_or = Channel(remote, piece.lane);
    if (!channel_or.ok()) {
      device_->FailAsync(std::move(on_done), channel_or.status());
      return false;
    }
    piece.channel = *channel_or;
  }
  auto flag_channel_or = Channel(remote, flag_lane);
  if (!flag_channel_or.ok()) {
    device_->FailAsync(std::move(on_done), flag_channel_or.status());
    return false;
  }

  struct Join {
    int pending = 0;
    bool failed = false;
    // Set when a seeded mutation wrote the flag already: early, or inside
    // the SG list.
    bool flag_posted = false;
    device::MemcpyCallback on_done;
    device::RdmaChannel* flag_channel = nullptr;
    WriteDesc flag;
  };
  auto join = std::make_shared<Join>();
  join->pending = static_cast<int>(pieces_.size());
  join->on_done = std::move(on_done);
  join->flag_channel = *flag_channel_or;
  join->flag = flag;
  join->flag_posted = flag_rides_in_list;
  const auto on_piece = [join](const Status& status) {
    if (!status.ok() && !join->failed) {
      // The first piece error fails the write; later completions only drain
      // the join.
      join->failed = true;
      FireOnce(&join->on_done, status);
    }
    if (check::MutationEnabled(check::kFlagBeforeLastStripe) && !join->failed &&
        !join->flag_posted && join->flag.bytes > 0) {
      // Seeded bug (explorer self-validation): the flag is posted on the
      // FIRST stripe completion — sibling stripes are still in flight, so a
      // receiver that trusts the flag reads a torn payload.
      join->flag_posted = true;
      PostWrite(join->flag_channel, join->flag, [](const Status&) {});
    }
    if (--join->pending > 0 || join->failed) return;
    // Every piece's completion has been observed: all payload bytes are at
    // the target, so the flag — on any lane — cannot overtake them (§3.2,
    // per extent; the checker's completion-ordering happens-before edge).
    if (join->flag.bytes == 0 || join->flag_posted) {
      FireOnce(&join->on_done, OkStatus());
      return;
    }
    PostWrite(join->flag_channel, join->flag, std::exchange(join->on_done, nullptr));
  };

  for (size_t i = 0; i < pieces_.size(); ++i) {
    const Piece& piece = pieces_[i];
    if (piece.begin == piece.end) {
      PostWrite(piece.channel, piece.write, on_piece);
      continue;
    }
    std::vector<rdma::SgExtent> run;
    run.reserve(piece.end - piece.begin + (i == 0 && flag_rides_in_list ? 1 : 0));
    if (i == 0 && flag_rides_in_list) {
      // Seeded bug (explorer self-validation): the completion flag rides as
      // the FIRST extent of the first SG-WR. Extents land in list order, so
      // the flag byte is readable while every sibling extent — and every
      // other stripe — is still in flight.
      run.push_back(rdma::SgExtent{reinterpret_cast<uint64_t>(flag.local_addr),
                                   flag.remote_addr, flag.bytes});
    }
    run.insert(run.end(), gather_scratch_.begin() + piece.begin,
               gather_scratch_.begin() + piece.end);
    piece.channel->MemcpyScatter(std::move(run), piece.write.lkey, piece.write.rkey, on_piece,
                                 piece.write.copy_bytes);
  }
  return true;
}

void TransferEngine::Flush(const Endpoint& remote, PeerQueue* queue) {
  if (queue->pending.empty()) return;
  std::vector<PendingWrite> items = std::move(queue->pending);
  queue->pending.clear();

  auto channel_or = Channel(remote, next_batch_lane_);
  next_batch_lane_ = (next_batch_lane_ + 1) % std::max(1, device_->num_qps_per_peer());
  if (!channel_or.ok()) {
    for (PendingWrite& item : items) {
      device_->FailAsync(std::move(item.on_done), channel_or.status());
    }
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
    // The caller sees the flag's completion, or the payload's on error. A
    // flagless entry (the flag was mutated away) reports the payload's.
    const bool flagless = item.flag.bytes == 0;
    ops.push_back(BatchEntry(item.payload, [state, flagless](const Status& status) {
      if (flagless || !status.ok()) FireOnce(state.get(), status);
    }));
    if (flagless) continue;
    ops.push_back(BatchEntry(item.flag, [state](const Status& status) {
      FireOnce(state.get(), status);
    }));
  }
  (*channel_or)->MemcpyBatch(std::move(ops));
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
    handle.lkey = entry->value.mr.lkey();
    handle.rkey = entry->value.mr.rkey();
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
    // read (§3.3 receiver side); only earlier epochs are evictable. The
    // victim's registration ends as it goes out of scope.
    auto victim =
        mr_cache_.EvictLru([this](const tensor::ExtentLruCache<CachedMr>::Entry& e) {
          return e.value.epoch < epoch_;
        });
    if (!victim.has_value()) return false;
    ++evictions;
    ++stats_.mr_cache_evictions;
    return true;
  };
  while (static_cast<int>(mr_cache_.size()) >=
         std::max(1, options_.mr_cache_capacity)) {
    if (!evict_one()) break;
  }
  auto mr_or = device_->RegisterMemRegion(base, end - base);
  while (!mr_or.ok() && mr_or.status().code() == StatusCode::kResourceExhausted) {
    // NIC MR limit: shed LRU cached extents until the registration fits or
    // nothing evictable remains.
    if (!evict_one()) break;
    mr_or = device_->RegisterMemRegion(base, end - base);
  }
  if (!mr_or.ok()) return mr_or.status();
  MrHandle handle;
  handle.lkey = mr_or->lkey();
  handle.rkey = mr_or->rkey();
  mr_cache_.Insert(base, end - base, CachedMr{*std::move(mr_or), epoch_});
  handle.register_ns = device_->nic()->RegistrationCost(end - base);
  handle.evictions = evictions;
  return handle;
}

}  // namespace comm
}  // namespace rdmadl
