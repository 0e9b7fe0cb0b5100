// The paper's zero-copy RDMA tensor-transfer mechanism (§3).
//
// Per cross-device edge, one of two protocols:
//
//   Static placement (§3.2) — when the analyzer proved the tensor shape
//   static: the receiver preallocates the tensor in its RDMA arena once and
//   distributes its address over the device library's vanilla RPC. Every
//   step, the sender one-sided-writes the payload and then a one-byte
//   completion flag on the same QP (FIFO ordering + the NIC's ascending-
//   address delivery guarantee make the flag the last byte to land). The
//   receiver's RdmaRecv op polls the flag under the executor's polling-async
//   scheduling, clears it, and reactivates the dependents. In real-memory
//   mode the flag lives at the tail of the receive buffer exactly as in the
//   paper; in virtual-memory benchmark mode it lives in the (always-real)
//   metadata arena so polling still reads actual bytes.
//
//   Dynamic allocation (§3.3) — when the shape varies per mini-batch: the
//   tensor rank is still fixed, so a fixed-size metadata block (dims, dtype,
//   source address/rkey, tail flag) is preallocated at the receiver and its
//   address distributed. The sender writes the metadata; the receiver polls
//   its flag, allocates the tensor storage from its RDMA arena, and pulls the
//   payload with a one-sided RDMA read.
//
// Graph-analyzer integration (§3.4):
//   * producers that feed _Send nodes are allocated from the RDMA arena from
//     step 0 (static analysis);
//   * during step 0 a TracingAllocator maps buffer address -> allocating
//     node; each transferred buffer promotes its true allocation site into
//     set S (catching Identity/Reshape/ApplySgd pass-throughs), and from
//     step 1 those sites allocate from the arena too;
//   * with graph analysis off (options.graph_analysis = false) every send
//     pays a staging copy into the arena — the paper's RDMA.cp baseline.
//
// GPUDirect (§3.5): when the sending process keeps tensors in GPU memory,
// non-GDR sends stage through host memory over PCIe (and receives stage
// back); with GDR the GPU arena is NIC-registered and every GPU-side edge
// uses the dynamic protocol with metadata polled in host memory, as the
// paper prescribes.
#ifndef RDMADL_SRC_COMM_ZEROCOPY_MECHANISM_H_
#define RDMADL_SRC_COMM_ZEROCOPY_MECHANISM_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <set>
#include <utility>
#include <vector>

#include "src/analyzer/allocation_tracer.h"
#include "src/comm/transfer_engine.h"
#include "src/runtime/session.h"
#include "src/runtime/transfer.h"

namespace rdmadl {
namespace comm {

struct ZeroCopyOptions {
  // §3.4 analysis on; turning it off yields the RDMA.cp baseline (sender-side
  // staging copy on every transfer).
  bool graph_analysis = true;
  // Force the §3.3 dynamic protocol even for statically known shapes
  // (ablation: measures the metadata + read overhead).
  bool force_dynamic = false;
  // Device-to-device zero-copy routes (§3.5 extended): when both endpoints of
  // a static-shape edge keep the tensor in a GDR-registered GPU arena, the
  // route planner skips every staging hop — the sender scatter/gather-writes
  // GPU-to-GPU and raises a host-resident flag (GPU memory cannot be polled).
  // Off restores the pre-SG behavior: every GDR edge takes the dynamic
  // host-metadata protocol. With GDR off this flag changes nothing.
  bool gdr_device_routes = true;
  // ---- Transfer-engine fast path (ISSUE 5): per-sender lane striping for
  // large writes and doorbell coalescing for small ones. Both default on;
  // disable individual paths here for ablations.
  TransferEngineOptions engine;
  // MR registration cache: unregistered send buffers are registered through
  // an extent-based LRU cache instead of being staged-copied into the arena,
  // so repeated dynamic-protocol sends of the same buffer pay the §3.4
  // pinning cost once. Off by default: staging is the paper's baseline
  // behavior (RDMA.cp) and the cache changes which path such sends take.
  bool use_mr_cache = false;
};

struct ZeroCopyStats {
  int64_t static_transfers = 0;
  int64_t dynamic_transfers = 0;
  int64_t zero_copy_sends = 0;
  int64_t staged_sends = 0;
  uint64_t staged_bytes = 0;
  int64_t pcie_copies = 0;
  uint64_t pcie_bytes = 0;
  // Degradation ladder.
  int64_t ladder_demotions = 0;
  int64_t ladder_promotions = 0;
  int64_t degraded_sends = 0;
  uint64_t degraded_bytes = 0;
  int64_t probation_probes = 0;
  // GPUDirect device routes (§3.5 extended).
  int64_t device_zero_copy_sends = 0;  // GPU-to-GPU sends with no staging hop.
  int64_t sg_sends = 0;                // Sends routed as scatter/gather WRs.
  // Transfer engine.
  int64_t striped_sends = 0;     // Sends split across QP lanes.
  int64_t coalesced_sends = 0;   // Sends merged into doorbell batches.
  int64_t mr_cache_sends = 0;    // Sends served by a cache-registered MR.
  int64_t mr_cache_hits = 0;
  int64_t mr_cache_misses = 0;
  int64_t mr_cache_evictions = 0;
};

// Per-edge transport degradation ladder (the paper's §3.3 fallback to the
// RPC mechanism, made dynamic). kLadderDemoteAfter consecutive zero-copy
// failures demote an edge to an RPC-style staged transfer over the TCP plane;
// arena or MR-registration exhaustion demotes immediately (the send that hit
// the wall is itself served degraded). After kLadderProbationAfter clean
// degraded sends the next send re-probes zero-copy and promotes back on
// success. Ladder state deliberately survives ResetTransientState: the whole
// point is remembering that an edge is unhealthy across retries.
inline constexpr int kLadderDemoteAfter = 2;
inline constexpr int kLadderProbationAfter = 3;

// Which transport a degradable edge is currently on.
enum class EdgePath {
  kZeroCopy,    // Healthy: one-sided RDMA (static, dynamic, or device route).
  kDegraded,    // Demoted: RPC-style staged transfer over the TCP plane.
  kProbation,   // Re-probing zero-copy after a span of clean degraded sends.
};

class ZeroCopyRdmaMechanism : public runtime::TransferMechanism {
 public:
  ZeroCopyRdmaMechanism(runtime::Cluster* cluster, ZeroCopyOptions options);
  ~ZeroCopyRdmaMechanism() override;

  std::string name() const override {
    return options_.graph_analysis ? "RDMA.zerocp" : "RDMA.cp";
  }
  RecvMode recv_mode() const override { return RecvMode::kPolling; }

  void Setup(const std::vector<graph::TransferEdge>& edges,
             std::function<void(Status)> done) override;
  void BeginStep(int64_t step) override;

  int64_t Send(const graph::TransferEdge& edge, const tensor::Tensor& tensor,
               std::function<void(Status)> on_sent) override;
  bool TryRecv(const graph::TransferEdge& edge, tensor::Tensor* out) override;

  tensor::Allocator* AllocatorForNode(runtime::HostRuntime* host, const graph::Node& node,
                                      tensor::Allocator* default_allocator) override;
  void OnNodeBegin(runtime::HostRuntime* host, const graph::Node& node) override;
  void OnAllocation(runtime::HostRuntime* host, const graph::Node& node, const void* ptr,
                    size_t bytes) override;

  const ZeroCopyStats& stats() const { return stats_; }

  // Current ladder position of |edge_key| (tests and diagnostics).
  EdgePath edge_path(const std::string& edge_key) const;

  // Fault recovery: discards every edge's in-flight receive state (completion
  // flags, dynamic metadata blocks, partially received tensors, sender
  // holds). Call after a failed step has been aborted and the simulator has
  // quiesced, before retrying the step — a half-delivered transfer must not
  // be mistaken for a fresh arrival.
  void ResetTransientState();

 private:
  enum class Protocol { kStatic, kDynamic };
  enum class RecvPhase { kWaiting, kTransferring, kStaging, kReady };

  struct EdgeState;

  Status SetupEdge(EdgeState* state);
  // Posts |tensor|'s payload from |src_ptr| (covered by |lkey|) |delay_ns|
  // from now: PostWrites on a static edge, PostMetadataWrite (with
  // |data_rkey|) on a dynamic one. A non-null |staging| is the arena copy
  // this send owns: static edges free it on completion, dynamic edges at
  // the next step boundary (the receiver reads it until then).
  void PostPayload(EdgeState* state, const tensor::Tensor& tensor, const void* src_ptr,
                   uint32_t lkey, uint32_t data_rkey, int64_t delay_ns, void* staging,
                   std::function<void(Status)> on_sent);
  // Static protocol: payload write followed by the flag-byte write, on the
  // same QP. |src_ptr| must lie inside a registered arena covered by |lkey|.
  // Device-route edges carve the payload into SG extents and post through
  // TransferEngine::WriteGather instead (one doorbell per lane stripe).
  void PostWrites(EdgeState* state, const void* src_ptr, uint32_t lkey, uint64_t bytes,
                  std::function<void(Status)> on_sent);
  // Dynamic protocol: metadata write with the tail flag as its last byte.
  // |data_rkey| overrides the rkey advertised for the payload (cache-
  // registered MRs live outside the arenas); 0 derives it from ArenaFor.
  void PostMetadataWrite(EdgeState* state, const void* data_ptr, uint32_t lkey,
                         uint64_t bytes, const tensor::Tensor& tensor,
                         uint32_t data_rkey, std::function<void(Status)> on_sent);
  void StartDynamicRead(EdgeState* state);
  // The 1-byte "flag = 1" source buffer in |host|'s meta arena.
  uint8_t* FlagSource(runtime::HostRuntime* host);

  // ---- Degradation ladder ----
  // Serves one send over the staged TCP path (serialize -> TCP stream ->
  // deserialize + staging copy, then the receiver-side arrival is surfaced
  // through the same TryRecv states as an RDMA arrival). Returns the
  // sender-side blocking time in ns.
  int64_t SendDegraded(EdgeState* state, const tensor::Tensor& tensor,
                       std::function<void(Status)> on_sent);
  void LadderDemote(EdgeState* state, const char* why);
  void LadderPromote(EdgeState* state);
  // Wraps a zero-copy on_sent callback with ladder bookkeeping (success
  // clears the failure streak / promotes a probation edge; failure counts
  // toward demotion and tags the status with the edge key).
  std::function<void(Status)> WrapLadder(EdgeState* state,
                                         std::function<void(Status)> on_sent);

  // Host-side per-device analyzer state.
  struct DeviceAnalysis {
    analyzer::AllocationSiteTracer tracer;
    std::set<std::string> static_producers;
  };
  DeviceAnalysis& analysis(runtime::HostRuntime* host) { return analysis_[host]; }

  // Per-sending-device transfer engine, created lazily. Kept in creation
  // order (not keyed by pointer value) so iteration is run-to-run stable.
  TransferEngine* engine_for(runtime::HostRuntime* src);

  runtime::Cluster* cluster_;
  ZeroCopyOptions options_;
  ZeroCopyStats stats_;
  std::unordered_map<std::string, std::unique_ptr<EdgeState>> edges_;
  std::map<runtime::HostRuntime*, DeviceAnalysis> analysis_;
  std::map<runtime::HostRuntime*, uint8_t*> flag_sources_;
  std::vector<std::pair<runtime::HostRuntime*, std::unique_ptr<TransferEngine>>> engines_;
  int64_t step_ = -1;
  bool tracing_step_ = false;
};

}  // namespace comm
}  // namespace rdmadl

#endif  // RDMADL_SRC_COMM_ZEROCOPY_MECHANISM_H_
