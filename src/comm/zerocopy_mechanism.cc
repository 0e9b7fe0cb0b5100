#include "src/comm/zerocopy_mechanism.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/check/mutation.h"
#include "src/check/rdma_check.h"
#include "src/net/fabric.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace comm {

using device::Direction;
using device::RemoteRegion;
using runtime::HostRuntime;
using runtime::RdmaArena;
using tensor::Tensor;

namespace {

// Metadata block layout (§3.3): sizes are fixed because the tensor rank is
// fixed across mini-batches even when dimensions vary.
//   [u32 dtype][u32 ndims][i64 dims[rank]][u64 src_addr][u32 src_rkey]
//   [u64 payload_bytes][u8 flag]
size_t MetadataBytes(int rank) { return 4 + 4 + 8 * rank + 8 + 4 + 8 + 1; }

// Device-route payloads are carved into SG extents of at most this many
// bytes; the extents ride one SG-WR per lane stripe (one doorbell, one CQE
// each).
constexpr uint64_t kGdrSgExtentBytes = 1ull << 20;

int64_t CostNs(uint64_t bytes, double bytes_per_sec) {
  return static_cast<int64_t>(static_cast<double>(bytes) / bytes_per_sec * 1e9);
}

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

struct ZeroCopyRdmaMechanism::EdgeState {
  graph::TransferEdge edge;
  Protocol protocol = Protocol::kStatic;
  HostRuntime* src = nullptr;
  HostRuntime* dst = nullptr;
  device::RdmaChannel* channel = nullptr;       // src -> dst, carries writes.
  device::RdmaChannel* read_channel = nullptr;  // dst -> src, carries reads.
  int qp_index = 0;                             // Lane hint for the engine.

  // ---- Receiver state ----
  RecvPhase phase = RecvPhase::kWaiting;
  Tensor recv_tensor;            // Static: preallocated once; dynamic: per arrival.
  uint8_t* flag_ptr = nullptr;   // Always-real completion flag polled by RdmaRecv.
  uint8_t* meta_block = nullptr; // Dynamic: metadata block in dst's meta arena.
  size_t meta_bytes = 0;
  bool dst_gpu_staging = false;  // Static receive needs a PCIe H2D after the flag.
  // §3.5 extended: receive buffer lives in the dst GPU arena and the payload
  // travels GPU-to-GPU with no staging hop; the flag is host-resident.
  bool device_route = false;

  // ---- Sender-side knowledge (filled by address distribution) ----
  RemoteRegion remote_data;
  RemoteRegion remote_flag;
  RemoteRegion remote_meta;
  uint8_t* src_meta_staging = nullptr;  // Sender-side metadata build buffer.
  uint32_t src_meta_lkey = 0;

  // Keeps sender buffers alive until the receiver's read has certainly
  // finished (released at the next step boundary).
  Tensor hold;
  std::vector<void*> staging_to_free_at_step;  // Freed on BeginStep (dynamic staging).

  // ---- Degradation ladder (survives ResetTransientState by design) ----
  EdgePath path = EdgePath::kZeroCopy;
  int consecutive_failures = 0;  // Zero-copy send failures in a row.
  int degraded_successes = 0;    // Clean degraded sends since demotion.
};

ZeroCopyRdmaMechanism::ZeroCopyRdmaMechanism(runtime::Cluster* cluster, ZeroCopyOptions options)
    : cluster_(cluster), options_(options) {}

ZeroCopyRdmaMechanism::~ZeroCopyRdmaMechanism() {
  // Return the per-edge arena carve-outs so a rebuilt mechanism (elastic
  // reconfiguration tears this one down and sets up a fresh one over the
  // surviving hosts) can re-carve receive buffers from the same registered
  // arenas. Stale "zc_addr" handlers are overwritten by the next Setup on
  // every host that still receives.
  for (auto& [key, s] : edges_) {
    if (s->flag_ptr != nullptr) {
      check::OnFlagForgotten(s->dst->endpoint().host_id, s->flag_ptr);
    }
    if (s->protocol == Protocol::kStatic) {
      if (s->remote_data.addr != 0) {
        StatusOr<RdmaArena*> arena =
            s->device_route ? s->dst->gpu_arena() : s->dst->rdma_arena();
        if (arena.ok()) {
          (*arena)->allocator->Deallocate(reinterpret_cast<void*>(s->remote_data.addr));
        }
      }
      // Device-route flags live in the meta arena in every memory mode (GPU
      // payload bytes are never host-pollable), virtual-mode flags always do.
      if ((!s->dst->real_memory() || s->device_route) && s->flag_ptr != nullptr) {
        StatusOr<RdmaArena*> meta = s->dst->meta_arena();
        if (meta.ok()) (*meta)->allocator->Deallocate(s->flag_ptr);
      }
    } else {
      if (s->meta_block != nullptr) {
        StatusOr<RdmaArena*> meta = s->dst->meta_arena();
        if (meta.ok()) (*meta)->allocator->Deallocate(s->meta_block);
      }
      if (s->src_meta_staging != nullptr) {
        StatusOr<RdmaArena*> meta = s->src->meta_arena();
        if (meta.ok()) (*meta)->allocator->Deallocate(s->src_meta_staging);
      }
    }
    if (!s->staging_to_free_at_step.empty()) {
      StatusOr<RdmaArena*> arena = s->src->rdma_arena();
      if (arena.ok()) {
        for (void* ptr : s->staging_to_free_at_step) {
          (*arena)->allocator->Deallocate(ptr);
        }
      }
    }
  }
  // The per-host "flag = 1" source bytes are carved from the meta arenas too;
  // a rebuilt mechanism re-carves its own, so return them as well (leaving
  // them would leak one byte per host per rebuild — found by RdmaCheck).
  for (auto& [host, flag] : flag_sources_) {
    StatusOr<RdmaArena*> meta = host->meta_arena();
    if (meta.ok()) (*meta)->allocator->Deallocate(flag);
  }
}

void ZeroCopyRdmaMechanism::Setup(const std::vector<graph::TransferEdge>& edges,
                                  std::function<void(Status)> done) {
  // Pass 1: size the per-process RDMA arenas (§3.4: one large registration).
  std::map<HostRuntime*, uint64_t> need;
  for (const graph::TransferEdge& edge : edges) {
    HostRuntime* src = cluster_->host(edge.src_device);
    HostRuntime* dst = cluster_->host(edge.dst_device);
    if (edge.shape.IsFullyDefined()) {
      const uint64_t bytes =
          edge.shape.num_elements() * tensor::DTypeSize(edge.dtype);
      need[dst] += bytes + tensor::Allocator::kAlignment;
      need[src] += bytes + tensor::Allocator::kAlignment;  // Staging worst case.
    }
  }
  for (auto& [host, bytes] : need) {
    StatusOr<RdmaArena*> arena = host->EnsureRdmaArena(bytes);
    if (!arena.ok()) {
      cluster_->simulator()->ScheduleAfter(
          0, [done = std::move(done), s = arena.status()]() { done(s); });
      return;
    }
  }

  // Pass 2: receiver-side preallocation and RPC handler registration.
  Status setup_status = OkStatus();
  for (const graph::TransferEdge& edge : edges) {
    auto state = std::make_unique<EdgeState>();
    state->edge = edge;
    state->src = cluster_->host(edge.src_device);
    state->dst = cluster_->host(edge.dst_device);
    Status s = SetupEdge(state.get());
    if (!s.ok()) {
      setup_status = s;
      break;
    }
    if (options_.graph_analysis) {
      analysis(state->src).static_producers.insert(edge.producer);
    }
    edges_[edge.key] = std::move(state);
  }
  if (!setup_status.ok()) {
    cluster_->simulator()->ScheduleAfter(
        0, [done = std::move(done), setup_status]() { done(setup_status); });
    return;
  }

  // Every receiving device answers address queries for its edges.
  std::set<HostRuntime*> receivers;
  for (auto& [key, state] : edges_) receivers.insert(state->dst);
  for (HostRuntime* dst : receivers) {
    dst->rdma_device()->RegisterRpcHandler(
        "zc_addr", [this](const std::vector<uint8_t>& request) {
          const std::string key(request.begin(), request.end());
          std::vector<uint8_t> response;
          auto it = edges_.find(key);
          if (it == edges_.end()) return response;  // Empty => error at caller.
          EdgeState* s = it->second.get();
          response.push_back(s->protocol == Protocol::kStatic ? 0 : 1);
          s->remote_data.EncodeTo(&response);
          s->remote_flag.EncodeTo(&response);
          s->remote_meta.EncodeTo(&response);
          return response;
        });
  }

  // Pass 3: every sender fetches the remote addresses over the vanilla RPC
  // (§3.2: "its address ... is distributed to the server that holds the
  // remote upstream tensor before the computation").
  auto pending = std::make_shared<int>(static_cast<int>(edges_.size()));
  auto first_error = std::make_shared<Status>();
  auto done_shared = std::make_shared<std::function<void(Status)>>(std::move(done));
  if (*pending == 0) {
    cluster_->simulator()->ScheduleAfter(0, [done_shared]() { (*done_shared)(OkStatus()); });
    return;
  }
  for (auto& [key, state] : edges_) {
    EdgeState* s = state.get();
    std::vector<uint8_t> payload(key.begin(), key.end());
    s->src->rdma_device()->Call(
        s->dst->endpoint(), "zc_addr", std::move(payload),
        [s, pending, first_error, done_shared](const Status& status,
                                               const std::vector<uint8_t>& response) {
          if (!status.ok()) {
            if (first_error->ok()) *first_error = status;
          } else if (response.size() < 1 + 3 * RemoteRegion::kWireSize) {
            if (first_error->ok()) {
              *first_error = Internal("short zc_addr response for " + s->edge.key);
            }
          } else {
            // Decode and install; the decoded values must round-trip the wire.
            const uint8_t* p = response.data() + 1;
            s->remote_data = *RemoteRegion::Decode(p, RemoteRegion::kWireSize);
            p += RemoteRegion::kWireSize;
            s->remote_flag = *RemoteRegion::Decode(p, RemoteRegion::kWireSize);
            p += RemoteRegion::kWireSize;
            s->remote_meta = *RemoteRegion::Decode(p, RemoteRegion::kWireSize);
          }
          if (--*pending == 0) {
            (*done_shared)(*first_error);
          }
        });
  }
}

Status ZeroCopyRdmaMechanism::SetupEdge(EdgeState* s) {
  const graph::TransferEdge& edge = s->edge;
  const bool src_gdr = s->src->options().tensors_on_gpu && s->src->options().gpudirect;
  const bool dst_gdr = s->dst->options().tensors_on_gpu && s->dst->options().gpudirect;
  const bool shape_static = edge.shape.IsFullyDefined();
  // Route planner. Device-to-device first: a static-shape edge whose two
  // endpoints both keep the tensor in a GDR-registered GPU arena skips every
  // staging hop — the payload travels GPU-to-GPU and only the 1-byte flag
  // lands in host memory (GPU bytes are never host-pollable, §3.5).
  if (shape_static && !options_.force_dynamic && src_gdr && dst_gdr &&
      options_.gdr_device_routes && s->dst->gpu_arena().ok()) {
    s->protocol = Protocol::kStatic;
    s->device_route = true;
  }
  if (!s->device_route) {
    // §3.5: remaining GPUDirect edges use the dynamic protocol (metadata
    // polled in host memory).
    if (shape_static && !options_.force_dynamic && !src_gdr && !dst_gdr) {
      s->protocol = Protocol::kStatic;
    } else {
      s->protocol = Protocol::kDynamic;
      if (!shape_static && edge.shape.num_dims() == 0) {
        return InvalidArgument(StrCat("edge ", edge.key, " has unknown rank"));
      }
    }
  }

  RDMADL_ASSIGN_OR_RETURN(RdmaArena * dst_meta, s->dst->meta_arena());
  RDMADL_ASSIGN_OR_RETURN(RdmaArena * src_meta, s->src->meta_arena());

  if (s->protocol == Protocol::kStatic && s->device_route) {
    const uint64_t bytes = edge.shape.num_elements() * tensor::DTypeSize(edge.dtype);
    RDMADL_ASSIGN_OR_RETURN(RdmaArena * dst_gpu, s->dst->gpu_arena());
    uint8_t* buf = static_cast<uint8_t*>(dst_gpu->allocator->Allocate(bytes));
    if (buf == nullptr) {
      return ResourceExhausted(StrCat("receive GPU arena exhausted on ", edge.dst_device));
    }
    auto buffer = std::make_shared<tensor::Buffer>(buf, bytes);
    s->recv_tensor = Tensor(std::move(buffer), edge.dtype, edge.shape);
    s->remote_data = RemoteRegion{reinterpret_cast<uint64_t>(buf), dst_gpu->rkey, bytes};
    // The flag cannot ride at the payload tail here: the tail is GPU memory
    // the receiver's poll loop cannot touch. It lives in the always-real
    // metadata arena instead, written after every payload extent completes.
    s->flag_ptr = static_cast<uint8_t*>(dst_meta->allocator->Allocate(1));
    if (s->flag_ptr == nullptr) return ResourceExhausted("meta arena exhausted");
    s->remote_flag =
        RemoteRegion{reinterpret_cast<uint64_t>(s->flag_ptr), dst_meta->rkey, 1};
    *s->flag_ptr = 0;
    s->dst_gpu_staging = false;  // Already device-resident on arrival.
  } else if (s->protocol == Protocol::kStatic) {
    const uint64_t bytes = edge.shape.num_elements() * tensor::DTypeSize(edge.dtype);
    RDMADL_ASSIGN_OR_RETURN(RdmaArena * dst_arena, s->dst->rdma_arena());
    // +1: room for the tail completion flag (§3.2).
    uint8_t* buf = static_cast<uint8_t*>(dst_arena->allocator->Allocate(bytes + 1));
    if (buf == nullptr) {
      return ResourceExhausted(StrCat("receive arena exhausted on ", edge.dst_device));
    }
    auto buffer = std::make_shared<tensor::Buffer>(buf, bytes + 1);
    s->recv_tensor = Tensor(std::move(buffer), edge.dtype, edge.shape);
    s->remote_data = RemoteRegion{reinterpret_cast<uint64_t>(buf), dst_arena->rkey, bytes};
    if (s->dst->real_memory()) {
      // Paper layout: flag byte at the tail of the tensor memory region.
      s->flag_ptr = buf + bytes;
      s->remote_flag = RemoteRegion{reinterpret_cast<uint64_t>(s->flag_ptr),
                                    dst_arena->rkey, 1};
      *s->flag_ptr = 0;
    } else {
      // Virtual-memory mode: the data buffer is a fake address, so the flag
      // lives in the always-real metadata arena instead.
      s->flag_ptr = static_cast<uint8_t*>(dst_meta->allocator->Allocate(1));
      if (s->flag_ptr == nullptr) return ResourceExhausted("meta arena exhausted");
      s->remote_flag =
          RemoteRegion{reinterpret_cast<uint64_t>(s->flag_ptr), dst_meta->rkey, 1};
      *s->flag_ptr = 0;
    }
    s->dst_gpu_staging =
        s->dst->options().tensors_on_gpu && !s->dst->options().gpudirect;
  } else {
    s->meta_bytes = MetadataBytes(edge.shape.num_dims());
    s->meta_block = static_cast<uint8_t*>(dst_meta->allocator->Allocate(s->meta_bytes));
    if (s->meta_block == nullptr) return ResourceExhausted("meta arena exhausted");
    std::memset(s->meta_block, 0, s->meta_bytes);
    s->flag_ptr = s->meta_block + s->meta_bytes - 1;
    s->remote_meta = RemoteRegion{reinterpret_cast<uint64_t>(s->meta_block), dst_meta->rkey,
                                  s->meta_bytes};
    s->src_meta_staging =
        static_cast<uint8_t*>(src_meta->allocator->Allocate(s->meta_bytes));
    if (s->src_meta_staging == nullptr) return ResourceExhausted("meta arena exhausted");
    s->src_meta_lkey = src_meta->lkey;
  }

  // Declare the edge's completion flag to the protocol checker: TryRecv must
  // never trust it before a write covering the flag byte has landed. The
  // guard range is the payload the flag vouches for — trusting the flag also
  // asserts every guarded byte has landed (torn-read detection).
  check::OnFlagLocation(s->dst->endpoint().host_id, s->flag_ptr, edge.key);
  if (s->protocol == Protocol::kStatic) {
    check::OnFlagGuards(s->dst->endpoint().host_id, s->flag_ptr,
                        reinterpret_cast<const void*>(s->remote_data.addr),
                        s->remote_data.length);
  } else {
    check::OnFlagGuards(s->dst->endpoint().host_id, s->flag_ptr, s->meta_block,
                        s->meta_bytes - 1);
  }

  // Channels: spread edges across the configured QPs (§3.1 / Figure 4).
  const int qp_count = s->src->options().num_qps_per_peer;
  const int qp_idx = static_cast<int>(edges_.size()) % qp_count;
  s->qp_index = qp_idx;
  RDMADL_ASSIGN_OR_RETURN(s->channel,
                          s->src->rdma_device()->GetChannel(s->dst->endpoint(), qp_idx));
  RDMADL_ASSIGN_OR_RETURN(s->read_channel,
                          s->dst->rdma_device()->GetChannel(s->src->endpoint(), qp_idx));
  return OkStatus();
}

TransferEngine* ZeroCopyRdmaMechanism::engine_for(HostRuntime* src) {
  for (auto& [host, engine] : engines_) {
    if (host == src) return engine.get();
  }
  auto engine = std::make_unique<TransferEngine>(src->rdma_device(), options_.engine);
  engine->BeginEpoch(step_);
  TransferEngine* raw = engine.get();
  engines_.emplace_back(src, std::move(engine));
  return raw;
}

void ZeroCopyRdmaMechanism::BeginStep(int64_t step) {
  step_ = step;
  for (auto& [host, engine] : engines_) {
    engine->BeginEpoch(step);
  }
  const bool tracing = options_.graph_analysis && step == 0;
  for (auto& [host, a] : analysis_) {
    a.tracer.set_tracing(tracing);
  }
  if (options_.graph_analysis && step == 0) {
    // Tracers may not exist yet for hosts that have not executed a node;
    // they are created lazily with tracing enabled via this flag.
    tracing_step_ = true;
  } else {
    tracing_step_ = false;
  }
  for (auto& [key, state] : edges_) {
    state->hold = Tensor();
    if (!state->staging_to_free_at_step.empty()) {
      StatusOr<RdmaArena*> arena = state->src->rdma_arena();
      if (arena.ok()) {
        for (void* ptr : state->staging_to_free_at_step) {
          (*arena)->allocator->Deallocate(ptr);
        }
      }
      state->staging_to_free_at_step.clear();
    }
  }
}

void ZeroCopyRdmaMechanism::ResetTransientState() {
  // Queued-but-unposted coalesced writes belong to the aborted step; drop
  // them before rearming the edges (mirrors DropPendingCallbacks).
  for (auto& [host, engine] : engines_) {
    engine->ResetTransientState();
  }
  for (auto& [key, state] : edges_) {
    EdgeState* s = state.get();
    s->phase = RecvPhase::kWaiting;
    if (s->flag_ptr != nullptr) {
      *s->flag_ptr = 0;
      check::OnFlagCleared(s->dst->endpoint().host_id, s->flag_ptr);
    }
    if (s->meta_block != nullptr && s->meta_bytes > 0) {
      std::memset(s->meta_block, 0, s->meta_bytes);
    }
    if (s->protocol == Protocol::kDynamic) s->recv_tensor = Tensor();
    s->hold = Tensor();
  }
}

tensor::Allocator* ZeroCopyRdmaMechanism::AllocatorForNode(HostRuntime* host,
                                                           const graph::Node& node,
                                                           tensor::Allocator* default_alloc) {
  if (host->options().tensors_on_gpu) {
    StatusOr<RdmaArena*> gpu = host->gpu_arena();
    CHECK(gpu.ok()) << gpu.status();
    return (*gpu)->allocator.get();
  }
  if (!options_.graph_analysis) return default_alloc;
  DeviceAnalysis& a = analysis(host);
  if (a.static_producers.count(node.name()) > 0 || a.tracer.InHotSet(node.id())) {
    StatusOr<RdmaArena*> arena = host->rdma_arena();
    CHECK(arena.ok()) << arena.status();
    return (*arena)->allocator.get();
  }
  return default_alloc;
}

void ZeroCopyRdmaMechanism::OnNodeBegin(HostRuntime* host, const graph::Node& node) {
  DeviceAnalysis& a = analysis(host);
  if (tracing_step_) a.tracer.set_tracing(true);
  a.tracer.BeginNodeExecution(node.id());
}

void ZeroCopyRdmaMechanism::OnAllocation(HostRuntime* host, const graph::Node& node,
                                         const void* ptr, size_t bytes) {
  analysis(host).tracer.RecordAllocation(node.id(), ptr, bytes);
}

int64_t ZeroCopyRdmaMechanism::Send(const graph::TransferEdge& edge, const Tensor& tensor,
                                    std::function<void(Status)> on_sent) {
  auto it = edges_.find(edge.key);
  CHECK(it != edges_.end()) << "unknown edge " << edge.key;
  EdgeState* s = it->second.get();
  HostRuntime* src = s->src;
  sim::Simulator* simulator = src->simulator();
  const uint64_t bytes = tensor.TotalBytes();
  const void* ptr = tensor.raw_data();
  s->hold = tensor;

  // §3.4 dynamic analysis: learn the allocation site of every transferred
  // buffer so later iterations allocate it RDMA-accessible directly.
  if (options_.graph_analysis) {
    analysis(src).tracer.RecordTransfer(ptr);
  }

  // Degradation ladder gate: a demoted edge stays on the staged TCP path
  // until its probation window opens, at which point one send re-probes the
  // zero-copy path (falling through below).
  if (s->path == EdgePath::kDegraded) {
    if (s->degraded_successes < kLadderProbationAfter) {
      return SendDegraded(s, tensor, std::move(on_sent));
    }
    s->path = EdgePath::kProbation;
    ++stats_.probation_probes;
    sim::TraceInstant("ladder", StrCat(s->edge.key, " probation probe"), simulator->Now());
  }

  // Classify the source buffer.
  StatusOr<const RdmaArena*> registered = src->ArenaFor(ptr);
  const bool in_gpu = [&] {
    StatusOr<RdmaArena*> gpu = src->gpu_arena();
    return src->options().tensors_on_gpu && gpu.ok() && (*gpu)->Contains(ptr);
  }();

  if (registered.ok()) {
    // Zero-copy path: the buffer is already RDMA-accessible (host arena, or
    // GPU arena under GPUDirect).
    ++stats_.zero_copy_sends;
    if (in_gpu) ++stats_.device_zero_copy_sends;  // No staging hop at all.
    PostPayload(s, tensor, ptr, (*registered)->lkey, /*data_rkey=*/0, /*delay_ns=*/0,
                /*staging=*/nullptr, WrapLadder(s, std::move(on_sent)));
    return 0;
  }

  // MR registration cache (§3.4 registration pressure): instead of staging,
  // register the buffer's pages through the extent cache and send zero-copy
  // in place. Repeat sends of the same buffer hit the cache and skip the
  // pinning cost entirely.
  if (options_.use_mr_cache && !in_gpu) {
    StatusOr<TransferEngine::MrHandle> cached = engine_for(src)->GetOrRegisterMr(ptr, bytes);
    if (cached.ok()) {
      ++stats_.mr_cache_sends;
      if (cached->hit) {
        ++stats_.mr_cache_hits;
      } else {
        ++stats_.mr_cache_misses;
      }
      stats_.mr_cache_evictions += cached->evictions;
      ++stats_.zero_copy_sends;  // No staging copy: the pages serve in place.
      PostPayload(s, tensor, ptr, cached->lkey, cached->rkey, cached->register_ns,
                  /*staging=*/nullptr, WrapLadder(s, std::move(on_sent)));
      return cached->register_ns;  // Page pinning runs on the issuing thread (§3.4).
    }
    // NIC/capacity exhaustion: fall through to the staging path.
  }

  // Staging path: allocate an RDMA-accessible buffer and copy into it.
  // MR-registration exhaustion (or any arena failure) demotes the edge and
  // serves this very send over the staged TCP path instead of failing the
  // step.
  StatusOr<RdmaArena*> arena_or = src->rdma_arena();
  if (!arena_or.ok()) {
    LadderDemote(s, "rdma arena unavailable");
    return SendDegraded(s, tensor, std::move(on_sent));
  }
  RdmaArena* arena = *arena_or;
  void* staging = arena->allocator->Allocate(bytes);
  if (staging == nullptr) {
    LadderDemote(s, "sender RDMA arena exhausted");
    return SendDegraded(s, tensor, std::move(on_sent));
  }
  on_sent = WrapLadder(s, std::move(on_sent));

  if (in_gpu) {
    // GPU tensor without GPUDirect: DMA it into host staging over PCIe. The
    // CPU is not held; the transfer occupies the PCIe link.
    ++stats_.pcie_copies;
    stats_.pcie_bytes += bytes;
    const net::CostModel& cost = src->cost();
    const int64_t pcie_ns =
        cost.pcie_latency_ns +
        static_cast<int64_t>(bytes / cost.pcie_bandwidth_bytes_per_sec * 1e9);
    net::Host* machine =
        src->rdma_device()->nic()->fabric()->host(src->endpoint().host_id);
    const int64_t pcie_end = machine->pcie().Reserve(simulator->Now(), pcie_ns);
    PostPayload(s, tensor, staging, arena->lkey, /*data_rkey=*/0,
                pcie_end - simulator->Now(), staging, std::move(on_sent));
    return 0;  // DMA copy; the executor worker is not held.
  }

  // Plain host-memory staging copy, on the RdmaSend op's own thread (this is
  // the copy the zero-copy analysis removes; with analysis off this is the
  // RDMA.cp baseline of Figure 8/12).
  ++stats_.staged_sends;
  stats_.staged_bytes += bytes;
  if (src->real_memory()) {
    std::memcpy(staging, ptr, bytes);
  }
  const net::CostModel& cost = src->cost();
  const int64_t copy_ns =
      cost.arena_alloc_overhead_ns +
      static_cast<int64_t>(bytes / cost.staging_memcpy_bytes_per_sec * 1e9);
  PostPayload(s, tensor, staging, arena->lkey, /*data_rkey=*/0, copy_ns, staging,
              std::move(on_sent));
  return copy_ns;
}

void ZeroCopyRdmaMechanism::PostPayload(EdgeState* s, const Tensor& tensor, const void* src_ptr,
                                        uint32_t lkey, uint32_t data_rkey, int64_t delay_ns,
                                        void* staging, std::function<void(Status)> on_sent) {
  s->src->simulator()->ScheduleAfter(
      delay_ns, [this, s, tensor, src_ptr, lkey, data_rkey, staging,
                 on_sent = std::move(on_sent)]() mutable {
        const uint64_t bytes = tensor.TotalBytes();
        if (s->protocol == Protocol::kStatic) {
          if (staging != nullptr) {
            // Static staging can be freed as soon as the write completes.
            on_sent = [s, staging, inner = std::move(on_sent)](Status status) {
              StatusOr<RdmaArena*> arena = s->src->rdma_arena();
              if (arena.ok()) (*arena)->allocator->Deallocate(staging);
              inner(status);
            };
          }
          PostWrites(s, src_ptr, lkey, bytes, std::move(on_sent));
        } else {
          // Dynamic staging must survive until the receiver's RDMA read, i.e.
          // until the step boundary.
          if (staging != nullptr) s->staging_to_free_at_step.push_back(staging);
          PostMetadataWrite(s, src_ptr, lkey, bytes, tensor, data_rkey, std::move(on_sent));
        }
      });
}

void ZeroCopyRdmaMechanism::PostWrites(EdgeState* s, const void* src_ptr, uint32_t lkey,
                                       uint64_t bytes, std::function<void(Status)> on_sent) {
  // Payload then flag, routed through the transfer engine: small tensors may
  // share a doorbell batch with other edges to the same host, large ones are
  // striped across QP lanes, and everything else takes the classic two-WR
  // same-QP path. On every route the flag byte is the last to land — the
  // §3.2 guarantee.
  StatusOr<RdmaArena*> src_meta = s->src->meta_arena();
  CHECK(src_meta.ok());
  TransferEngine::WriteDesc payload;
  payload.local_addr = const_cast<void*>(src_ptr);
  payload.lkey = lkey;
  payload.remote_addr = s->remote_data.addr;
  payload.rkey = s->remote_data.rkey;
  payload.bytes = bytes;
  payload.copy_bytes = s->src->real_memory();
  TransferEngine::WriteDesc flag;
  flag.local_addr = FlagSource(s->src);
  flag.lkey = (*src_meta)->lkey;
  flag.remote_addr = s->remote_flag.addr;
  flag.rkey = s->remote_flag.rkey;
  flag.bytes = 1;
  flag.copy_bytes = true;
  if (s->device_route && bytes > kGdrSgExtentBytes) {
    // Device route: carve the payload into SG extents and let the engine post
    // them as one scatter/gather WR per lane stripe — one doorbell and one
    // CQE per stripe instead of one per extent. The flag trails the last
    // extent of the last stripe (§3.2, per extent).
    const uint64_t chunk = kGdrSgExtentBytes;
    std::vector<TransferEngine::WriteDesc> extents;
    extents.reserve(static_cast<size_t>((bytes + chunk - 1) / chunk));
    for (uint64_t off = 0; off < bytes; off += chunk) {
      TransferEngine::WriteDesc e = payload;
      e.local_addr = static_cast<uint8_t*>(payload.local_addr) + off;
      e.remote_addr = payload.remote_addr + off;
      e.bytes = std::min(chunk, bytes - off);
      extents.push_back(e);
    }
    const TransferEngine::Route route = engine_for(s->src)->WriteGather(
        s->dst->endpoint(), extents, flag, s->qp_index,
        [cb = std::move(on_sent)](const Status& status) { cb(status); });
    if (route == TransferEngine::Route::kScatterGather) ++stats_.sg_sends;
    if (route == TransferEngine::Route::kStriped) ++stats_.striped_sends;
    if (route == TransferEngine::Route::kCoalesced) ++stats_.coalesced_sends;
    return;
  }
  const TransferEngine::Route route = engine_for(s->src)->WriteWithFlag(
      s->dst->endpoint(), payload, flag, s->qp_index,
      [cb = std::move(on_sent)](const Status& status) { cb(status); });
  if (route == TransferEngine::Route::kStriped) ++stats_.striped_sends;
  if (route == TransferEngine::Route::kCoalesced) ++stats_.coalesced_sends;
}

void ZeroCopyRdmaMechanism::PostMetadataWrite(EdgeState* s, const void* data_ptr, uint32_t lkey,
                                              uint64_t bytes, const Tensor& tensor,
                                              uint32_t data_rkey,
                                              std::function<void(Status)> on_sent) {
  // Serialize the (small, fixed-size) metadata: dims, dtype, and where the
  // receiver should read the payload from.
  uint8_t* m = s->src_meta_staging;
  const tensor::TensorShape& shape = tensor.shape();
  PutU32(m, static_cast<uint32_t>(tensor.dtype()));
  PutU32(m + 4, static_cast<uint32_t>(shape.num_dims()));
  for (int i = 0; i < shape.num_dims(); ++i) {
    PutU64(m + 8 + 8 * i, static_cast<uint64_t>(shape.dim(i)));
  }
  uint8_t* tail = m + 8 + 8 * shape.num_dims();
  PutU64(tail, reinterpret_cast<uint64_t>(data_ptr));
  if (data_rkey == 0) {
    StatusOr<const RdmaArena*> arena = s->src->ArenaFor(data_ptr);
    CHECK(arena.ok()) << arena.status();
    data_rkey = (*arena)->rkey;
  }
  PutU32(tail + 8, data_rkey);
  PutU64(tail + 12, bytes);
  m[s->meta_bytes - 1] = 1;  // Tail flag, last byte to land.

  // Routed through the engine as body + 1-byte tail flag: metadata blocks are
  // classic small-message traffic, so per-step dynamic-protocol edges to the
  // same host share one doorbell batch.
  TransferEngine::WriteDesc body;
  body.local_addr = m;
  body.lkey = s->src_meta_lkey;
  body.remote_addr = s->remote_meta.addr;
  body.rkey = s->remote_meta.rkey;
  body.bytes = s->meta_bytes - 1;
  body.copy_bytes = true;
  TransferEngine::WriteDesc flag;
  flag.local_addr = m + s->meta_bytes - 1;
  flag.lkey = s->src_meta_lkey;
  flag.remote_addr = s->remote_meta.addr + s->meta_bytes - 1;
  flag.rkey = s->remote_meta.rkey;
  flag.bytes = 1;
  flag.copy_bytes = true;
  const TransferEngine::Route route = engine_for(s->src)->WriteWithFlag(
      s->dst->endpoint(), body, flag, s->qp_index,
      [cb = std::move(on_sent)](const Status& status) { cb(status); });
  if (route == TransferEngine::Route::kCoalesced) ++stats_.coalesced_sends;
}

bool ZeroCopyRdmaMechanism::TryRecv(const graph::TransferEdge& edge, Tensor* out) {
  auto it = edges_.find(edge.key);
  CHECK(it != edges_.end()) << "unknown edge " << edge.key;
  EdgeState* s = it->second.get();
  switch (s->phase) {
    case RecvPhase::kWaiting: {
      if (*s->flag_ptr == 0) {
        check::OnFlagPolled(s->dst->endpoint().host_id, s->flag_ptr,
                            s->dst->simulator()->Now());
        // Seeded bug (explorer self-validation): act on the payload as if
        // the flag were already set.
        if (!check::MutationEnabled(check::kPrematureFlagTrust)) return false;
      }
      check::OnFlagTrusted(s->dst->endpoint().host_id, s->flag_ptr,
                           s->dst->simulator()->Now());
      *s->flag_ptr = 0;  // Clear for future use (§3.2).
      check::OnFlagCleared(s->dst->endpoint().host_id, s->flag_ptr);
      if (s->protocol == Protocol::kStatic) {
        if (!s->dst_gpu_staging) {
          ++stats_.static_transfers;
          *out = s->recv_tensor;
          return true;
        }
        // Stage the received tensor into GPU memory over PCIe.
        s->phase = RecvPhase::kStaging;
        ++stats_.pcie_copies;
        stats_.pcie_bytes += s->recv_tensor.TotalBytes();
        const net::CostModel& cost = s->dst->cost();
        const int64_t pcie_ns =
            cost.pcie_latency_ns +
            static_cast<int64_t>(s->recv_tensor.TotalBytes() /
                                 cost.pcie_bandwidth_bytes_per_sec * 1e9);
        net::Host* machine =
            s->dst->rdma_device()->nic()->fabric()->host(s->dst->endpoint().host_id);
        const int64_t end =
            machine->pcie().Reserve(s->dst->simulator()->Now(), pcie_ns);
        s->dst->simulator()->ScheduleAt(end, [s]() { s->phase = RecvPhase::kReady; });
        return false;
      }
      StartDynamicRead(s);
      return false;
    }
    case RecvPhase::kTransferring:
    case RecvPhase::kStaging:
      return false;
    case RecvPhase::kReady: {
      s->phase = RecvPhase::kWaiting;
      if (s->protocol == Protocol::kStatic) {
        ++stats_.static_transfers;
        *out = s->recv_tensor;
      } else {
        ++stats_.dynamic_transfers;
        *out = std::move(s->recv_tensor);
        s->recv_tensor = Tensor();
      }
      return true;
    }
  }
  return false;
}

void ZeroCopyRdmaMechanism::StartDynamicRead(EdgeState* s) {
  // Parse the metadata the sender just wrote (always real bytes).
  const uint8_t* m = s->meta_block;
  const auto dtype = static_cast<tensor::DType>(GetU32(m));
  const int rank = static_cast<int>(GetU32(m + 4));
  CHECK_EQ(rank, s->edge.shape.num_dims())
      << "tensor rank changed across mini-batches on edge " << s->edge.key;
  std::vector<int64_t> dims(rank);
  for (int i = 0; i < rank; ++i) dims[i] = static_cast<int64_t>(GetU64(m + 8 + 8 * i));
  const uint8_t* tail = m + 8 + 8 * rank;
  const uint64_t src_addr = GetU64(tail);
  const uint32_t src_rkey = GetU32(tail + 8);
  const uint64_t payload_bytes = GetU64(tail + 12);

  // Allocate the tensor storage in an RDMA-accessible region (§3.3), then
  // pull the payload with a one-sided read.
  const bool into_gpu = s->dst->options().tensors_on_gpu && s->dst->options().gpudirect;
  StatusOr<RdmaArena*> arena_or = into_gpu ? s->dst->gpu_arena() : s->dst->rdma_arena();
  CHECK(arena_or.ok()) << arena_or.status();
  RdmaArena* arena = *arena_or;
  tensor::TensorShape shape{std::move(dims)};
  Tensor t(arena->allocator.get(), dtype, shape);
  CHECK_EQ(t.TotalBytes(), payload_bytes) << "metadata/payload size mismatch";
  s->recv_tensor = t;
  s->phase = RecvPhase::kTransferring;
  s->read_channel->Memcpy(t.raw_data(), arena->lkey, src_addr, src_rkey, payload_bytes,
                          Direction::kRemoteToLocal,
                          [s](const Status& status) {
                            if (!status.ok()) {
                              // Transport failure: drop the half-read tensor
                              // and rearm the edge; the sender's retried step
                              // will rewrite the metadata block.
                              LOG(WARNING) << "dynamic RDMA read failed on edge "
                                           << s->edge.key << ": " << status;
                              s->recv_tensor = Tensor();
                              s->phase = RecvPhase::kWaiting;
                              return;
                            }
                            s->phase = RecvPhase::kReady;
                          },
                          /*copy_bytes=*/s->dst->real_memory());
}

// ---------------------------------------------------------------------------
// Degradation ladder (§3.3 fallback as a dynamic per-edge state machine).

int64_t ZeroCopyRdmaMechanism::SendDegraded(EdgeState* s, const Tensor& tensor,
                                            std::function<void(Status)> on_sent) {
  const uint64_t bytes = tensor.TotalBytes();
  ++stats_.degraded_sends;
  stats_.degraded_bytes += bytes;
  // gRPC-style staged transfer: dispatch + serialize on the sender, TCP
  // stream on the wire, deserialize + staging copy on the receiver — the same
  // cost structure as the RPC mechanism this path falls back to.
  const net::CostModel& cost = s->src->cost();
  const int64_t sender_ns =
      cost.rpc_dispatch_overhead_ns + CostNs(bytes, cost.serialize_bytes_per_sec);
  const int64_t receiver_ns = CostNs(bytes, cost.deserialize_bytes_per_sec) +
                              CostNs(bytes, cost.staging_memcpy_bytes_per_sec);
  sim::Simulator* simulator = s->src->simulator();
  auto on_sent_shared =
      std::make_shared<std::function<void(Status)>>(std::move(on_sent));
  cluster_->fabric()->Transfer(
      s->src->endpoint().host_id, s->dst->endpoint().host_id,
      std::max<uint64_t>(bytes, 1), net::Plane::kTcp, sender_ns, nullptr,
      [this, s, tensor, receiver_ns, simulator, on_sent_shared](Status status) {
        if (!status.ok()) {
          // The degraded path failed too (e.g. the peer crashed): the edge
          // stays demoted and its probation progress resets.
          s->degraded_successes = 0;
          (*on_sent_shared)(status.failed_edge().empty()
                                ? status.WithFailedEdge(s->edge.key)
                                : status);
          return;
        }
        ++s->degraded_successes;
        // Receiver-side completion surfaces through the same TryRecv states
        // as an RDMA arrival: static edges land in the preallocated tensor
        // and raise the flag; dynamic edges materialize the tensor directly.
        simulator->ScheduleAfter(receiver_ns, [s, simulator, tensor]() {
          if (s->protocol == Protocol::kStatic) {
            if (s->dst->real_memory()) {
              std::memcpy(s->recv_tensor.raw_data(), tensor.raw_data(),
                          tensor.TotalBytes());
            }
            *s->flag_ptr = 1;
            // Local set: the staged payload memcpy happened-before on this
            // same simulated thread — a legitimate HB edge for the checker.
            check::OnFlagSetLocally(s->dst->endpoint().host_id, s->flag_ptr,
                                    simulator->Now());
          } else {
            Tensor t(s->dst->default_allocator(), tensor.dtype(), tensor.shape());
            if (s->dst->real_memory()) {
              std::memcpy(t.raw_data(), tensor.raw_data(), tensor.TotalBytes());
            }
            s->recv_tensor = std::move(t);
            s->phase = RecvPhase::kReady;
          }
        });
        (*on_sent_shared)(OkStatus());
      });
  return sender_ns;
}

void ZeroCopyRdmaMechanism::LadderDemote(EdgeState* s, const char* why) {
  if (s->path == EdgePath::kDegraded) return;
  s->path = EdgePath::kDegraded;
  s->consecutive_failures = 0;
  s->degraded_successes = 0;
  ++stats_.ladder_demotions;
  sim::TraceInstant("ladder", StrCat(s->edge.key, " demoted to RPC staging: ", why),
                    s->src->simulator()->Now());
}

void ZeroCopyRdmaMechanism::LadderPromote(EdgeState* s) {
  s->path = EdgePath::kZeroCopy;
  s->consecutive_failures = 0;
  s->degraded_successes = 0;
  ++stats_.ladder_promotions;
  sim::TraceInstant("ladder", StrCat(s->edge.key, " promoted to zero-copy"),
                    s->src->simulator()->Now());
}

std::function<void(Status)> ZeroCopyRdmaMechanism::WrapLadder(
    EdgeState* s, std::function<void(Status)> on_sent) {
  return [this, s, on_sent = std::move(on_sent)](Status status) {
    if (status.ok()) {
      s->consecutive_failures = 0;
      if (s->path == EdgePath::kProbation) LadderPromote(s);
      on_sent(status);
      return;
    }
    ++s->consecutive_failures;
    if (s->path == EdgePath::kProbation) {
      // The link is still sick: back down to the degraded rung; probation
      // restarts from zero clean degraded sends.
      s->path = EdgePath::kDegraded;
      s->degraded_successes = 0;
      sim::TraceInstant("ladder", StrCat(s->edge.key, " probation failed"),
                        s->src->simulator()->Now());
    } else if (s->consecutive_failures >= kLadderDemoteAfter) {
      LadderDemote(s, "zero-copy failure streak");
    }
    on_sent(status.failed_edge().empty() ? status.WithFailedEdge(s->edge.key)
                                         : status);
  };
}

EdgePath ZeroCopyRdmaMechanism::edge_path(const std::string& edge_key) const {
  auto it = edges_.find(edge_key);
  CHECK(it != edges_.end()) << "unknown edge " << edge_key;
  return it->second->path;
}

uint8_t* ZeroCopyRdmaMechanism::FlagSource(HostRuntime* host) {
  auto it = flag_sources_.find(host);
  if (it == flag_sources_.end()) {
    StatusOr<RdmaArena*> meta = host->meta_arena();
    CHECK(meta.ok()) << meta.status();
    auto* flag = static_cast<uint8_t*>((*meta)->allocator->Allocate(1));
    CHECK(flag != nullptr);
    *flag = 1;
    it = flag_sources_.emplace(host, flag).first;
  }
  return it->second;
}

}  // namespace comm
}  // namespace rdmadl
