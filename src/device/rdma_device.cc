#include "src/device/rdma_device.h"

#include <cstring>
#include <utility>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace device {

namespace {

// RPC wire frame:
//   [u8 type] [u64 call_id] [u16 method_len] [u32 payload_len] [method] [payload]
constexpr uint8_t kRpcRequest = 0;
constexpr uint8_t kRpcResponse = 1;
constexpr uint8_t kRpcError = 2;
constexpr size_t kRpcHeaderBytes = 1 + 8 + 2 + 4;

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}
void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

// ---------------------------------------------------------------- RemoteRegion

void RemoteRegion::EncodeTo(std::vector<uint8_t>* out) const {
  PutU64(out, addr);
  PutU32(out, rkey);
  PutU64(out, length);
}

StatusOr<RemoteRegion> RemoteRegion::Decode(const uint8_t* data, size_t len) {
  if (len < kWireSize) {
    return InvalidArgument("RemoteRegion: short buffer");
  }
  RemoteRegion r;
  r.addr = GetU64(data);
  r.rkey = GetU32(data + 8);
  r.length = GetU64(data + 12);
  return r;
}

// ------------------------------------------------------------------- MemRegion

MemRegion::Impl::~Impl() {
  if (device != nullptr && mr.lkey != 0) {
    Status s = device->nic()->DeregisterMemory(mr);
    if (!s.ok()) {
      LOG(WARNING) << "DeregisterMemory failed: " << s;
    }
  }
}

RemoteRegion MemRegion::Remote() const {
  RemoteRegion r;
  if (impl_) {
    r.addr = reinterpret_cast<uint64_t>(impl_->data);
    r.rkey = impl_->mr.rkey;
    r.length = impl_->size;
  }
  return r;
}

StatusOr<RemoteRegion> MemRegion::RemoteSlice(uint64_t offset, uint64_t length) const {
  // Overflow-safe: offset + length could wrap for adversarial offsets.
  if (!impl_ || offset > impl_->size || length > impl_->size - offset) {
    return OutOfRange("RemoteSlice out of region bounds");
  }
  RemoteRegion r;
  r.addr = reinterpret_cast<uint64_t>(impl_->data) + offset;
  r.rkey = impl_->mr.rkey;
  r.length = length;
  return r;
}

// ------------------------------------------------------------- DeviceDirectory

RdmaDevice* DeviceDirectory::Find(const Endpoint& ep) const {
  auto it = devices_.find(ep);
  return it == devices_.end() ? nullptr : it->second;
}

// ----------------------------------------------------------------- RdmaChannel

void RdmaChannel::Memcpy(uint64_t local_addr, const MemRegion& local_region,
                         uint64_t remote_addr, const RemoteRegion& remote, uint64_t size,
                         Direction direction, MemcpyCallback callback) {
  Memcpy(reinterpret_cast<void*>(local_addr), local_region.lkey(), remote_addr, remote.rkey,
         size, direction, std::move(callback));
}

template <typename TakeCallback, typename PostFn>
void RdmaChannel::Post(size_t n, TakeCallback take_callback, PostFn post) {
  RdmaDevice* dev = device_;
  // The lane may have been torn down since the caller cached the channel;
  // reattach.
  Status s = qp_ == nullptr ? dev->AttachLane(this) : OkStatus();
  if (!s.ok()) {
    for (size_t i = 0; i < n; ++i) dev->FailAsync(take_callback(i), s);
    return;
  }
  const uint64_t first = dev->next_wr_id_;
  dev->next_wr_id_ += n;
  for (size_t i = 0; i < n; ++i) dev->pending_sends_[first + i] = take_callback(i);
  s = post(first);
  if (s.ok()) return;
  for (uint64_t wr_id = first; wr_id < first + n; ++wr_id) {
    dev->FailAsync(std::move(dev->pending_sends_.extract(wr_id).mapped()), s);
  }
}

void RdmaChannel::Memcpy(void* local_addr, uint32_t lkey, uint64_t remote_addr, uint32_t rkey,
                         uint64_t size, Direction direction, MemcpyCallback callback,
                         bool copy_bytes) {
  Post(
      1, [&](size_t) { return std::move(callback); },
      [&](uint64_t wr_id) {
        rdma::SendWorkRequest wr;
        wr.wr_id = wr_id;
        wr.opcode = (direction == Direction::kLocalToRemote) ? rdma::Opcode::kWrite
                                                             : rdma::Opcode::kRead;
        wr.local_addr = reinterpret_cast<uint64_t>(local_addr);
        wr.lkey = lkey;
        wr.length = size;
        wr.remote_addr = remote_addr;
        wr.rkey = rkey;
        wr.copy_bytes = copy_bytes;
        return qp_->PostSend(wr);
      });
}

void RdmaChannel::MemcpyBatch(std::vector<BatchWrite> writes) {
  if (writes.empty()) return;
  Post(
      writes.size(), [&](size_t i) { return std::move(writes[i].callback); },
      [&](uint64_t wr_id) {
        std::vector<rdma::SendWorkRequest> wrs;
        wrs.reserve(writes.size());
        for (const BatchWrite& w : writes) {
          wrs.push_back(rdma::SendWorkRequest{wr_id++, rdma::Opcode::kWrite,
                                              reinterpret_cast<uint64_t>(w.local_addr), w.lkey,
                                              w.size, w.remote_addr, w.rkey, w.copy_bytes});
        }
        return qp_->PostSendBatch(std::move(wrs));
      });
}

void RdmaChannel::MemcpyScatter(std::vector<rdma::SgExtent> extents, uint32_t lkey,
                                uint32_t rkey, MemcpyCallback callback, bool copy_bytes) {
  if (extents.empty()) {
    device_->FailAsync(std::move(callback), InvalidArgument("empty SG extent list"));
    return;
  }
  Post(
      1, [&](size_t) { return std::move(callback); },
      [&](uint64_t wr_id) {
        rdma::SendWorkRequest wr;
        wr.wr_id = wr_id;
        wr.opcode = rdma::Opcode::kWrite;
        wr.lkey = lkey;
        wr.rkey = rkey;
        wr.copy_bytes = copy_bytes;
        wr.sge = std::move(extents);
        return qp_->PostSend(wr);
      });
}

// ------------------------------------------------------------------ RdmaDevice

RdmaDevice::RdmaDevice(DeviceDirectory* directory, int num_qps_per_peer, const Endpoint& local)
    : directory_(directory),
      local_(local),
      nic_(directory->rdma_fabric()->nic(local.host_id)),
      num_qps_per_peer_(num_qps_per_peer) {}

RdmaDevice::~RdmaDevice() {
  for (const rdma::MemoryRegion& mr : rpc_slab_mrs_) {
    (void)nic_->DeregisterMemory(mr);
  }
  // Returns every pooled lane touching this endpoint (peer devices are told
  // to drop their bindings). RPC QPs stay with the NIC, as before.
  directory_->qp_pool_.UnregisterEndpoint(local_);
  directory_->devices_.erase(local_);
}

void RdmaDevice::FailAsync(MemcpyCallback callback, Status status) {
  if (!callback) return;
  simulator()->ScheduleAfter(
      0, [cb = std::move(callback), s = std::move(status)]() { cb(s); });
}

void RdmaDevice::DropPendingCallbacks() {
  pending_sends_.clear();
  pending_calls_.clear();
}

StatusOr<std::unique_ptr<RdmaDevice>> RdmaDevice::Create(DeviceDirectory* directory,
                                                         int num_cqs, int num_qps_per_peer,
                                                         const Endpoint& local) {
  if (num_cqs <= 0 || num_qps_per_peer <= 0) {
    return InvalidArgument("num_cqs and num_qps_per_peer must be positive");
  }
  if (local.host_id < 0 ||
      local.host_id >= directory->rdma_fabric()->fabric()->num_hosts()) {
    return InvalidArgument(StrCat("endpoint host out of range: ", local.ToString()));
  }
  if (directory->Find(local) != nullptr) {
    return AlreadyExists(StrCat("endpoint already bound: ", local.ToString()));
  }
  auto dev = std::unique_ptr<RdmaDevice>(new RdmaDevice(directory, num_qps_per_peer, local));
  for (int i = 0; i < num_cqs; ++i) {
    rdma::CompletionQueue* cq = dev->nic_->CreateCompletionQueue();
    RdmaDevice* raw = dev.get();
    cq->SetCompletionHandler([raw, cq]() { raw->DrainCq(cq); });
    dev->cqs_.push_back(cq);
  }
  {
    RdmaDevice* raw = dev.get();
    RDMADL_RETURN_IF_ERROR(directory->qp_pool()->RegisterEndpoint(
        local, local.host_id, /*cqs=*/[raw]() { return raw->NextCq(); },
        /*on_teardown=*/[raw](const Endpoint& /*self*/, const Endpoint& remote, int lane) {
          raw->OnLaneTornDown(remote, lane);
        }));
  }
  directory->devices_[local] = dev.get();
  return dev;
}

StatusOr<MemRegion> RdmaDevice::AllocateMemRegion(uint64_t size) {
  if (size == 0) {
    return InvalidArgument("AllocateMemRegion: size must be > 0");
  }
  auto impl = std::make_shared<MemRegion::Impl>();
  impl->storage = std::make_unique<uint8_t[]>(size);
  impl->data = impl->storage.get();
  impl->size = size;
  RDMADL_ASSIGN_OR_RETURN(impl->mr, nic_->RegisterMemory(impl->data, size));
  impl->device = this;
  return MemRegion(std::move(impl));
}

rdma::CompletionQueue* RdmaDevice::NextCq() {
  rdma::CompletionQueue* cq = cqs_[next_cq_];
  next_cq_ = (next_cq_ + 1) % static_cast<int>(cqs_.size());
  return cq;
}

Status RdmaDevice::Connect(RdmaDevice* remote) {
  if (num_qps_per_peer_ != remote->num_qps_per_peer_) {
    return InvalidArgument("peer devices configured with different QP counts");
  }
  // Data lanes come from the shared pool on first use; only the dedicated
  // two-sided QP for the address-distribution RPC is created eagerly (it has
  // to exist before any one-sided traffic can be set up). It is unpooled but
  // still counts against the NIC's QP cap; a NIC at the cap fails the
  // connect with kResourceExhausted and no peer entry is left behind.
  rdma::CompletionQueue* my_cq = NextCq();
  rdma::CompletionQueue* their_cq = remote->NextCq();
  RDMADL_ASSIGN_OR_RETURN(rdma::QueuePair * a, nic_->TryCreateQueuePair(my_cq, my_cq));
  StatusOr<rdma::QueuePair*> b = remote->nic_->TryCreateQueuePair(their_cq, their_cq);
  if (!b.ok()) {
    (void)nic_->DestroyQueuePair(a);
    return b.status();
  }
  RDMADL_RETURN_IF_ERROR(a->Connect(*b));
  PeerConnection& mine = peers_[remote->local_];
  PeerConnection& theirs = remote->peers_[local_];
  CHECK(mine.channels.empty() && theirs.channels.empty());
  mine.rpc_qp = a;
  theirs.rpc_qp = *b;
  rpc_qps_[a->qp_num()] = a;
  remote->rpc_qps_[(*b)->qp_num()] = *b;
  for (int i = 0; i < kRpcRecvDepth; ++i) {
    PostRpcRecv(a, AcquireRpcSlot());
    remote->PostRpcRecv(*b, remote->AcquireRpcSlot());
  }
  // Channel wrappers exist for the connection's lifetime; their QP bindings
  // attach lazily (AttachLane) and drop when the pool tears the lane down.
  for (int i = 0; i < num_qps_per_peer_; ++i) {
    mine.channels.push_back(
        std::unique_ptr<RdmaChannel>(new RdmaChannel(this, remote->local_, i, nullptr)));
    theirs.channels.push_back(
        std::unique_ptr<RdmaChannel>(new RdmaChannel(remote, local_, i, nullptr)));
  }
  return OkStatus();
}

StatusOr<RdmaChannel*> RdmaDevice::GetChannel(const Endpoint& remote, int qp_idx) {
  if (qp_idx < 0 || qp_idx >= num_qps_per_peer_) {
    return InvalidArgument(StrCat("qp_idx out of range: ", qp_idx));
  }
  auto it = peers_.find(remote);
  if (it == peers_.end()) {
    RdmaDevice* peer = directory_->Find(remote);
    if (peer == nullptr) {
      return NotFound(StrCat("no device bound at ", remote.ToString()));
    }
    if (peer == this) {
      return InvalidArgument("cannot open a channel to self");
    }
    RDMADL_RETURN_IF_ERROR(Connect(peer));
    it = peers_.find(remote);
  }
  RdmaChannel* channel = it->second.channels[qp_idx].get();
  RDMADL_RETURN_IF_ERROR(AttachLane(channel));
  return channel;
}

Status RdmaDevice::AttachLane(RdmaChannel* channel) {
  RDMADL_ASSIGN_OR_RETURN(
      rdma::QueuePair * qp,
      directory_->qp_pool()->Acquire(local_, channel->remote_, channel->qp_index_));
  channel->qp_ = qp;
  return OkStatus();
}

void RdmaDevice::OnLaneTornDown(const Endpoint& remote, int lane) {
  auto it = peers_.find(remote);
  if (it == peers_.end()) return;
  if (lane < static_cast<int>(it->second.channels.size())) {
    it->second.channels[lane]->qp_ = nullptr;
  }
}

void RdmaDevice::DrainCq(rdma::CompletionQueue* cq) {
  rdma::WorkCompletion wc;
  while (cq->Poll(&wc)) {
    if (wc.opcode == rdma::Opcode::kRecv) {
      // Inbound RPC message.
      auto slot_it = rpc_recv_slots_.find(wc.wr_id);
      CHECK(slot_it != rpc_recv_slots_.end());
      RpcSlot slot = slot_it->second;
      rpc_recv_slots_.erase(slot_it);
      auto qp_it = rpc_qps_.find(wc.qp_num);
      CHECK(qp_it != rpc_qps_.end());
      rdma::QueuePair* qp = qp_it->second;
      --rpc_recv_posted_[qp->qp_num()];
      if (wc.status.ok()) {
        HandleRpcInbound(qp, slot.data, wc.byte_len);
      } else if (qp->in_error()) {
        // Flushed recv: park the slot. Reposting now would be flush-completed
        // again immediately; RecoverChannels replenishes the queue once the
        // QP is back in service.
        ReleaseRpcSlot(slot);
        continue;
      }
      // Keep the receive queue replenished. A failed completion reaching this
      // point is a stale flush that surfaced after the QP was already
      // recovered; its slot may be reposted, but never past the depth a
      // concurrent RecoverChannels already restored.
      if (rpc_recv_posted_[qp->qp_num()] >= kRpcRecvDepth) {
        ReleaseRpcSlot(slot);
        continue;
      }
      PostRpcRecv(qp, slot);
      continue;
    }
    // Send-side completion: Memcpy callback or RPC send slot recycle.
    auto pending_it = pending_sends_.find(wc.wr_id);
    if (pending_it != pending_sends_.end()) {
      MemcpyCallback cb = std::move(pending_it->second);
      pending_sends_.erase(pending_it);
      if (cb) cb(wc.status);  // A caller may post without a callback.
      continue;
    }
    auto slot_it = rpc_send_slots_.find(wc.wr_id);
    if (slot_it != rpc_send_slots_.end()) {
      ReleaseRpcSlot(slot_it->second);
      rpc_send_slots_.erase(slot_it);
      if (!wc.status.ok()) {
        LOG(ERROR) << "RPC send completion error: " << wc.status;
      }
      continue;
    }
    LOG(WARNING) << "orphan completion wr_id=" << wc.wr_id;
  }
}

Status RdmaDevice::RecoverChannels() {
  for (auto& [endpoint, peer] : peers_) {
    for (const std::unique_ptr<RdmaChannel>& channel : peer.channels) {
      rdma::QueuePair* qp = channel->qp_;
      if (qp != nullptr && qp->in_error()) RDMADL_RETURN_IF_ERROR(qp->Recover());
    }
    if (peer.rpc_qp == nullptr) continue;
    if (peer.rpc_qp->in_error()) {
      RDMADL_RETURN_IF_ERROR(peer.rpc_qp->Recover());
    }
    // Unconditional top-up, so the call is idempotent: a second invocation —
    // or one racing in-flight flushed recvs whose completions have not drained
    // yet — finds the counter already at depth and posts nothing. The
    // counter deliberately includes flushed-but-undrained WRs; their eventual
    // completions repost themselves (capped at the same depth in DrainCq).
    while (rpc_recv_posted_[peer.rpc_qp->qp_num()] < kRpcRecvDepth) {
      PostRpcRecv(peer.rpc_qp, AcquireRpcSlot());
    }
  }
  return OkStatus();
}

int RdmaDevice::rpc_recvs_posted(const Endpoint& remote) const {
  auto it = peers_.find(remote);
  if (it == peers_.end() || it->second.rpc_qp == nullptr) return -1;
  auto posted = rpc_recv_posted_.find(it->second.rpc_qp->qp_num());
  return posted == rpc_recv_posted_.end() ? 0 : posted->second;
}

// --------------------------------------------------------------------- MiniRPC

RdmaDevice::RpcSlot RdmaDevice::AcquireRpcSlot() {
  if (rpc_free_slots_.empty()) {
    auto slab = std::make_unique<uint8_t[]>(kRpcSlotBytes * kRpcSlotsPerSlab);
    StatusOr<rdma::MemoryRegion> mr =
        nic_->RegisterMemory(slab.get(), kRpcSlotBytes * kRpcSlotsPerSlab);
    CHECK(mr.ok()) << mr.status();
    for (int i = 0; i < kRpcSlotsPerSlab; ++i) {
      rpc_free_slots_.push_back(RpcSlot{slab.get() + i * kRpcSlotBytes, mr->lkey});
    }
    rpc_slabs_.push_back(std::move(slab));
    rpc_slab_mrs_.push_back(*mr);
  }
  RpcSlot slot = rpc_free_slots_.back();
  rpc_free_slots_.pop_back();
  return slot;
}

void RdmaDevice::ReleaseRpcSlot(RpcSlot slot) { rpc_free_slots_.push_back(slot); }

void RdmaDevice::PostRpcRecv(rdma::QueuePair* qp, RpcSlot slot) {
  rdma::RecvWorkRequest wr;
  wr.wr_id = next_wr_id_++;
  wr.addr = reinterpret_cast<uint64_t>(slot.data);
  wr.lkey = slot.lkey;
  wr.length = kRpcSlotBytes;
  rpc_recv_slots_[wr.wr_id] = slot;
  ++rpc_recv_posted_[qp->qp_num()];
  Status s = qp->PostRecv(wr);
  CHECK(s.ok()) << s;
}

void RdmaDevice::SendRpcFrame(rdma::QueuePair* qp, const std::vector<uint8_t>& frame) {
  CHECK_LE(frame.size(), kRpcSlotBytes)
      << "MiniRPC frame exceeds slot size; address-distribution messages are small by design";
  RpcSlot slot = AcquireRpcSlot();
  std::memcpy(slot.data, frame.data(), frame.size());
  rdma::SendWorkRequest wr;
  wr.wr_id = next_wr_id_++;
  wr.opcode = rdma::Opcode::kSend;
  wr.local_addr = reinterpret_cast<uint64_t>(slot.data);
  wr.lkey = slot.lkey;
  wr.length = frame.size();
  rpc_send_slots_[wr.wr_id] = slot;
  Status s = qp->PostSend(wr);
  CHECK(s.ok()) << s;
}

void RdmaDevice::RegisterRpcHandler(const std::string& method, RpcHandler handler) {
  rpc_handlers_[method] = std::move(handler);
}

void RdmaDevice::Call(const Endpoint& remote, const std::string& method,
                      std::vector<uint8_t> payload, RpcCallback callback) {
  // Ensure the connection (and its RPC QP) exists.
  StatusOr<RdmaChannel*> chan = GetChannel(remote, 0);
  if (!chan.ok()) {
    simulator()->ScheduleAfter(0, [callback = std::move(callback), s = chan.status()]() {
      callback(s, {});
    });
    return;
  }
  const uint64_t call_id = next_call_id_++;
  pending_calls_[call_id] = PendingCall{std::move(callback)};

  std::vector<uint8_t> frame;
  frame.reserve(kRpcHeaderBytes + method.size() + payload.size());
  frame.push_back(kRpcRequest);
  PutU64(&frame, call_id);
  PutU16(&frame, static_cast<uint16_t>(method.size()));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), method.begin(), method.end());
  frame.insert(frame.end(), payload.begin(), payload.end());

  rdma::QueuePair* qp = peers_[remote].rpc_qp;
  // Caller-side dispatch cost, then post.
  simulator()->ScheduleAfter(cost().mini_rpc_dispatch_ns,
                             [this, qp, frame = std::move(frame)]() { SendRpcFrame(qp, frame); });
}

void RdmaDevice::HandleRpcInbound(rdma::QueuePair* qp, const uint8_t* data, uint64_t len) {
  CHECK_GE(len, kRpcHeaderBytes);
  const uint8_t type = data[0];
  const uint64_t call_id = GetU64(data + 1);
  const uint16_t method_len = GetU16(data + 9);
  const uint32_t payload_len = GetU32(data + 11);
  CHECK_EQ(len, kRpcHeaderBytes + method_len + payload_len);
  const uint8_t* body = data + kRpcHeaderBytes;

  if (type == kRpcRequest) {
    std::string method(reinterpret_cast<const char*>(body), method_len);
    std::vector<uint8_t> payload(body + method_len, body + method_len + payload_len);
    // Handler dispatch cost on the callee side.
    simulator()->ScheduleAfter(
        cost().mini_rpc_dispatch_ns, [this, qp, method, payload = std::move(payload), call_id]() {
          std::vector<uint8_t> frame;
          auto it = rpc_handlers_.find(method);
          if (it == rpc_handlers_.end()) {
            frame.push_back(kRpcError);
            PutU64(&frame, call_id);
            PutU16(&frame, 0);
            PutU32(&frame, 0);
          } else {
            std::vector<uint8_t> response = it->second(payload);
            frame.push_back(kRpcResponse);
            PutU64(&frame, call_id);
            PutU16(&frame, 0);
            PutU32(&frame, static_cast<uint32_t>(response.size()));
            frame.insert(frame.end(), response.begin(), response.end());
          }
          SendRpcFrame(qp, frame);
        });
    return;
  }

  // Response or error: complete the pending call.
  auto it = pending_calls_.find(call_id);
  if (it == pending_calls_.end()) {
    LOG(WARNING) << "RPC response for unknown call " << call_id;
    return;
  }
  RpcCallback cb = std::move(it->second.callback);
  pending_calls_.erase(it);
  if (type == kRpcError) {
    cb(NotFound("no such RPC method"), {});
  } else {
    std::vector<uint8_t> payload(body + method_len, body + method_len + payload_len);
    cb(OkStatus(), payload);
  }
}

}  // namespace device
}  // namespace rdmadl
