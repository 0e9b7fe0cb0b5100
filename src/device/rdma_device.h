// The paper's RDMA "device" communication library (§3.1, Table 1).
//
// A remote machine is abstracted as a device with a simple memory interface:
//
//   RdmaDevice::Create(num_cqs, num_qps_per_peer, local_endpoint)
//   device->AllocateMemRegion(size_in_bytes)            -> MemRegion
//   device->RegisterMemRegion(addr, size_in_bytes)      -> MemRegion
//   device->GetChannel(remote_endpoint, qp_idx)         -> RdmaChannel
//   channel->Memcpy(local, remote, size, direction, cb) -> async one-sided op
//
// plus a vanilla send/recv RPC used only to distribute remote memory
// addresses (off the critical path). Each connection side owns the RPC's
// buffers: one region of a few small slots, made at connect time, so nothing
// after the connect fails or is dropped for want of a buffer.
//
// Every NIC registration is a MemRegion, and dropping the handle is the only
// way one ends. RegisterMemRegion registers a range the caller names and owns
// no storage: a virtual payload range that is never dereferenced, or memory
// the caller already holds.
//
// The device is configured with the number of CQs and of QPs per connected
// peer; QPs are spread over the CQs round-robin (Figure 4), and each CQ has a
// poller context that dispatches completions, so a multi-threaded workload
// can spread channels over QPs to balance load and synchronization cost.
#ifndef RDMADL_SRC_DEVICE_RDMA_DEVICE_H_
#define RDMADL_SRC_DEVICE_RDMA_DEVICE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/device/zeroed_bytes.h"
#include "src/rdma/qp_pool.h"
#include "src/rdma/verbs.h"
#include "src/util/endpoint.h"
#include "src/util/status.h"

namespace rdmadl {
namespace device {

class RdmaDevice;

// Descriptor of a remote, RDMA-accessible region: everything a sender needs
// to target it with a one-sided verb. This is what the address-distribution
// RPC ships across the wire.
struct RemoteRegion {
  uint64_t addr = 0;
  uint32_t rkey = 0;
  uint64_t length = 0;

  static constexpr size_t kWireSize = 8 + 4 + 8;
  void EncodeTo(std::vector<uint8_t>* out) const;
  static StatusOr<RemoteRegion> Decode(const uint8_t* data, size_t len);
};

// An RDMA-accessible local memory region, registered with a device's NIC.
// Movable handle; the registration (and the storage, when the region owns
// any) is released when the handle and its copies are gone, which must be
// before the device is.
class MemRegion {
 public:
  MemRegion() = default;

  // The region's storage; null for a region that owns none
  // (RegisterMemRegion).
  uint8_t* data() const { return impl_ ? impl_->storage.get() : nullptr; }
  // The registered range's first address, whether or not it owns storage.
  uint64_t addr() const { return impl_ ? impl_->mr.addr : 0; }
  uint64_t size() const { return impl_ ? impl_->mr.length : 0; }
  uint32_t lkey() const { return impl_ ? impl_->mr.lkey : 0; }
  uint32_t rkey() const { return impl_ ? impl_->mr.rkey : 0; }
  bool valid() const { return impl_ != nullptr; }

  // Descriptor for the whole region, to hand to a remote peer.
  RemoteRegion Remote() const;
  // Descriptor for a sub-range [offset, offset+length).
  StatusOr<RemoteRegion> RemoteSlice(uint64_t offset, uint64_t length) const;

 private:
  friend class RdmaDevice;
  struct Impl {
    ~Impl();
    rdma::MemoryRegion mr;
    RdmaDevice* device = nullptr;
    ZeroedBytes storage;
  };
  explicit MemRegion(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

enum class Direction {
  kLocalToRemote,  // One-sided RDMA write.
  kRemoteToLocal,  // One-sided RDMA read.
};

using MemcpyCallback = std::function<void(const Status&)>;

// A channel to one remote device over one specific QP.
class RdmaChannel {
 public:
  // Asynchronously copies |size| bytes between |local_addr| (inside
  // |local_region|) and |remote_addr| (inside |remote|). |callback| fires,
  // in virtual time, when the verb completes locally. Every entry point
  // accepts a null callback.
  void Memcpy(uint64_t local_addr, const MemRegion& local_region, uint64_t remote_addr,
              const RemoteRegion& remote, uint64_t size, Direction direction,
              MemcpyCallback callback);

  // Core overload: local side given as raw registered pointer + lkey.
  // |copy_bytes| = false elides the payload memcpy (virtual-memory benchmark
  // mode); timing and completion semantics are unchanged.
  void Memcpy(void* local_addr, uint32_t lkey, uint64_t remote_addr, uint32_t rkey,
              uint64_t size, Direction direction, MemcpyCallback callback,
              bool copy_bytes = true);

  // One entry of a doorbell-chained write batch (MemcpyBatch).
  struct BatchWrite {
    void* local_addr = nullptr;
    uint32_t lkey = 0;
    uint64_t remote_addr = 0;
    uint32_t rkey = 0;
    uint64_t size = 0;      // Must be > 0.
    bool copy_bytes = true;
    MemcpyCallback callback;  // Fires at that entry's completion.
  };

  // Posts every entry as one doorbell-chained RDMA-write WQE list: the
  // per-message posting and NIC-processing overheads are paid once for the
  // whole batch (the transfer engine's small-tensor coalescing). Entries
  // complete in posting order; the chain shares fate on transport failure.
  void MemcpyBatch(std::vector<BatchWrite> writes);

  // Posts |extents| (local source + remote target per extent, all inside the
  // |lkey|/|rkey| registrations) as ONE scatter/gather work request: one
  // doorbell, one NIC processing pass, one wire completion for the whole
  // list. Extents are delivered in list order, ascending within each extent;
  // |callback| fires once, at the WQE's single completion. This is the
  // multi-extent fast path for sharded sends: per-WR CPU overhead is paid
  // once however many extents the transfer carries.
  void MemcpyScatter(std::vector<rdma::SgExtent> extents, uint32_t lkey, uint32_t rkey,
                     MemcpyCallback callback, bool copy_bytes = true);

  int qp_index() const { return qp_index_; }
  const Endpoint& remote() const { return remote_; }

 private:
  friend class RdmaDevice;
  RdmaChannel(RdmaDevice* device, Endpoint remote, int qp_index, rdma::QueuePair* qp)
      : device_(device), remote_(remote), qp_index_(qp_index), qp_(qp) {}

  // The one post path under every Memcpy shape. Binds the lane (reattaching
  // after the peer's lanes were torn down), gives the |n| WRs consecutive
  // wr_ids and registers take_callback(i) for the i-th, then calls
  // post(first_wr_id), which builds and posts the WRs. A failure reaches
  // every callback asynchronously, for a uniform contract.
  template <typename TakeCallback, typename PostFn>
  void Post(size_t n, TakeCallback take_callback, PostFn post);

  RdmaDevice* device_;
  Endpoint remote_;
  int qp_index_;
  rdma::QueuePair* qp_;
};

// MiniRPC handler: gets the request payload, returns the response payload.
using RpcHandler = std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>;
using RpcCallback = std::function<void(const Status&, const std::vector<uint8_t>&)>;

// Directory of devices in the simulated cluster; stands in for out-of-band
// connection management (RDMA CM exchange over Ethernet). Also owns the
// cluster-wide QP pool: data lanes between any two devices are shared and
// created on first use, so only the peer pairs and lanes that carry traffic
// pay QP contexts. A NIC at cost.max_queue_pairs refuses new lanes with
// kResourceExhausted.
class DeviceDirectory {
 public:
  explicit DeviceDirectory(rdma::RdmaFabric* rdma_fabric)
      : rdma_fabric_(rdma_fabric), qp_pool_(rdma_fabric) {}

  rdma::RdmaFabric* rdma_fabric() const { return rdma_fabric_; }
  rdma::QpPool* qp_pool() { return &qp_pool_; }
  RdmaDevice* Find(const Endpoint& ep) const;

 private:
  friend class RdmaDevice;
  rdma::RdmaFabric* rdma_fabric_;
  rdma::QpPool qp_pool_;
  std::unordered_map<Endpoint, RdmaDevice*, EndpointHash> devices_;
};

class RdmaDevice {
 public:
  // Creates a device bound to |local| with |num_cqs| completion queues and
  // |num_qps_per_peer| QPs for each connected peer (§3.1: the paper uses 4/4).
  static StatusOr<std::unique_ptr<RdmaDevice>> Create(DeviceDirectory* directory, int num_cqs,
                                                      int num_qps_per_peer,
                                                      const Endpoint& local);
  // Takes down both ends of every RPC connection and returns the pooled
  // lanes touching this endpoint. Peers keep their channel wrappers to it. The
  // simulator must be quiesced (no event may still reference this device).
  ~RdmaDevice();

  RdmaDevice(const RdmaDevice&) = delete;
  RdmaDevice& operator=(const RdmaDevice&) = delete;

  // Allocates an RDMA-accessible memory region of |size| bytes, registered
  // with the NIC (one registration per region; prefer few large regions).
  StatusOr<MemRegion> AllocateMemRegion(uint64_t size);

  // Registers [addr, addr + size), which the caller names and keeps valid
  // (or never dereferences: a virtual payload range), as a region that owns
  // no storage.
  StatusOr<MemRegion> RegisterMemRegion(uint64_t addr, uint64_t size);

  // Returns the channel to |remote| over QP |qp_idx| (0 <= qp_idx <
  // num_qps_per_peer), establishing the connection on first use, and again
  // after the device at |remote| was destroyed and a new one bound there. A
  // NIC that cannot take the connection's RPC QP or register its RPC buffers
  // fails it with kResourceExhausted, and nothing of it is left behind.
  StatusOr<RdmaChannel*> GetChannel(const Endpoint& remote, int qp_idx);

  // ---- Vanilla RPC for address distribution (not performance critical) ----
  // A call fails at the caller, through its callback, only when its
  // connection cannot be made (as GetChannel) or its request frame does not
  // fit an RPC slot (kInvalidArgument). The callee answers kNotFound for an
  // unknown method and kInvalidArgument for a response that does not fit. A
  // frame that finds every send slot of its connection busy waits, in order,
  // for one. A request or response lost to a transport failure never calls
  // back: MembershipService relies on this, counting any callback as proof
  // of life.
  void RegisterRpcHandler(const std::string& method, RpcHandler handler);
  void Call(const Endpoint& remote, const std::string& method, std::vector<uint8_t> payload,
            RpcCallback callback);

  // Recovers every errored QP to this device's peers (data and RPC QPs) after
  // a transport failure has been observed and the simulator has quiesced.
  // Flushed RPC receive slots are reposted. Idempotent: repeated calls (even
  // with flushed recv completions still in flight in the CQs) never over- or
  // under-fill the RPC receive queues.
  Status RecoverChannels();

  // Outstanding RPC recv WRs toward |remote|'s rpc QP (tests: the recovery
  // invariant is that this returns the full depth after RecoverChannels).
  // -1 when not connected. The depth itself is rpc_recv_depth().
  int rpc_recvs_posted(const Endpoint& remote) const;
  static constexpr int rpc_recv_depth() { return kRpcRecvSlots; }

  // Drops, without invoking, every pending Memcpy and RPC callback. Teardown
  // aid: callbacks abandoned by an aborted step may own tensors whose buffers
  // deallocate through the process's allocators, so they must be destroyed
  // while those allocators are still alive — HostRuntime calls this from its
  // destructor before any of its members go away. Not for use mid-run.
  void DropPendingCallbacks();

  // Delivers |status| to |callback| as an event at the current instant, the
  // uniform way a post failure reaches a Memcpy caller. A null callback is
  // dropped.
  void FailAsync(MemcpyCallback callback, Status status);

  const Endpoint& endpoint() const { return local_; }
  rdma::NicDevice* nic() const { return nic_; }
  sim::Simulator* simulator() const { return nic_->simulator(); }
  const net::CostModel& cost() const { return nic_->cost(); }
  int num_cqs() const { return static_cast<int>(cqs_.size()); }
  int num_qps_per_peer() const { return num_qps_per_peer_; }

 private:
  friend class RdmaChannel;
  friend struct MemRegion::Impl;

  // A connection side's RPC region: kRpcRecvSlots receive slots, then
  // kRpcSendSlots send slots, of kRpcSlotBytes each. It is under a page, so it
  // is no mapping of its own. The largest frame any caller sends is 76 bytes.
  static constexpr uint64_t kRpcSlotBytes = 128;
  static constexpr int kRpcRecvSlots = 8;
  static constexpr int kRpcSendSlots = 16;
  static constexpr int kRpcSlots = kRpcRecvSlots + kRpcSendSlots;

  // Data QPs are not owned here: channels bind lazily to pooled lanes
  // (DeviceDirectory::qp_pool) and drop the binding when the peer's device
  // goes away and the pool tears the lane down. Channel wrappers themselves
  // live for the device's lifetime, so callers may cache RdmaChannel*.
  struct PeerConnection {
    std::vector<std::unique_ptr<RdmaChannel>> channels;
    // Dedicated two-sided RPC QP; null once the peer's device is gone.
    rdma::QueuePair* rpc_qp = nullptr;
    MemRegion rpc_region;
    // The wr_id each slot is posted under, 0 while it is idle. Completions
    // find their slot by it: a QP that errors flushes later receives ahead of
    // a matched one whose CQE is still on its way. A receive slot is idle only
    // after its flush drained on an errored QP; RecoverChannels reposts it.
    std::array<uint64_t, kRpcSlots> rpc_wr_ids{};
    // Frames that found every send slot busy, in the order they were sent.
    std::deque<std::vector<uint8_t>> rpc_waiting;
  };

  RdmaDevice(DeviceDirectory* directory, int num_qps_per_peer, const Endpoint& local);

  // Establishes the RPC QP pair and lazy channel wrappers between this
  // device and |remote|; data lanes attach from the pool on first use.
  Status Connect(RdmaDevice* remote);
  // Destroys |conn|'s RPC QP and releases its RPC region; the channel
  // wrappers stay.
  void CloseRpc(PeerConnection* conn);
  // Binds |channel| to its pooled lane, creating the lane on first use.
  Status AttachLane(RdmaChannel* channel);
  // Pool teardown callback: drop the cached QP binding so the next use
  // reattaches.
  void OnLaneTornDown(const Endpoint& remote, int lane);
  // Picks the next CQ round-robin for a newly created QP (Figure 4).
  rdma::CompletionQueue* NextCq();
  // Drains one CQ, dispatching Memcpy callbacks and RPC messages.
  void DrainCq(rdma::CompletionQueue* cq);

  void OnRpcCompletion(PeerConnection* conn, const rdma::WorkCompletion& wc);
  void HandleRpcInbound(PeerConnection* conn, const uint8_t* data, uint64_t len);
  // Posts |frame| (at most kRpcSlotBytes) from a free send slot, or queues it
  // until one frees.
  void SendRpcFrame(PeerConnection* conn, std::vector<uint8_t> frame);
  void PostRpcSend(PeerConnection* conn, int slot, const std::vector<uint8_t>& frame);
  void PostRpcRecv(PeerConnection* conn, int slot);

  DeviceDirectory* directory_;
  Endpoint local_;
  rdma::NicDevice* nic_;
  int num_qps_per_peer_;
  int next_cq_ = 0;
  uint64_t next_wr_id_ = 1;
  uint64_t next_call_id_ = 1;

  std::vector<rdma::CompletionQueue*> cqs_;
  std::map<Endpoint, PeerConnection> peers_;
  std::unordered_map<uint64_t, MemcpyCallback> pending_sends_;
  std::unordered_map<std::string, RpcHandler> rpc_handlers_;
  std::unordered_map<uint64_t, RpcCallback> pending_calls_;
  // rpc_qp's qp_num -> its connection, for routing RPC completions.
  std::unordered_map<uint32_t, PeerConnection*> rpc_connections_;
};

}  // namespace device
}  // namespace rdmadl

#endif  // RDMADL_SRC_DEVICE_RDMA_DEVICE_H_
