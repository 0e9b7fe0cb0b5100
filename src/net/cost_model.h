// CostModel: every calibration constant of the simulated cluster in one place.
//
// The defaults model the paper's testbed (EuroSys '19, §5): dual Xeon
// E5-2690v4 servers with 100 Gbps Mellanox MT27700 InfiniBand NICs and Tesla
// P100 GPUs. The constants were tuned so the micro-benchmark (Figure 8) and
// the end-to-end benchmarks (Figure 9/11/12, Table 3) reproduce the paper's
// *ratios*; see EXPERIMENTS.md for measured-vs-paper numbers.
#ifndef RDMADL_SRC_NET_COST_MODEL_H_
#define RDMADL_SRC_NET_COST_MODEL_H_

#include <cstdint>
#include <limits>
#include <string>

namespace rdmadl {
namespace net {

struct CostModel {
  // ---------------------------------------------------------------- RDMA NIC
  // 100 Gbps line rate, ~12 GB/s effective payload bandwidth after headers.
  double rdma_bandwidth_bytes_per_sec = 12.0e9;
  // One-way wire+switch latency; round-trip ~2 us as reported for MT27700.
  int64_t rdma_one_way_latency_ns = 900;
  // CPU cost to post a verb (doorbell, WQE build) plus NIC WQE fetch.
  int64_t rdma_post_overhead_ns = 250;
  // NIC-side processing per work request before bytes hit the wire.
  int64_t rdma_nic_processing_ns = 350;
  // Completion-queue entry generation + poller pickup.
  int64_t cq_poll_overhead_ns = 150;
  // Delivery granularity of one-sided operations: bytes land at the target in
  // ascending address order, one segment at a time (per §3.2, matching the
  // ordering guarantee of Mellanox NICs that the flag-byte protocol relies on).
  uint64_t rdma_mtu_bytes = 4096;

  // Per-QP WQE-engine throughput ceiling: a single queue pair's processing
  // pipeline (WQE fetch, DMA scheduling, segmentation) tops out below link
  // rate on large transfers, which is what makes multi-QP lane striping pay
  // off on real NICs. Modeled as an extra initiation delay of length/rate
  // before the wire transfer starts; 0 disables the ceiling (single QP
  // reaches full link rate, the pre-striping behavior).
  double rdma_qp_engine_bytes_per_sec = 0.0;

  // IB RC transport reliability: on a lost segment the QP retransmits the
  // work request with exponential backoff (base << attempt, capped at
  // rdma_transport_retry_max_ns so a raised retry budget cannot overflow the
  // shift or stall a run for virtual hours), up to the retry count (the
  // 3-bit retry_cnt field caps at 7); exhaustion moves the QP to the error
  // state and flushes queued work requests. The default cap equals
  // base << 7, so the stock 7-attempt schedule is unchanged.
  int rdma_transport_retry_count = 7;
  int64_t rdma_transport_retry_base_ns = 20'000;
  int64_t rdma_transport_retry_max_ns = 2'560'000;

  // Memory-region registration (§3.4): pinning pages via the kernel.
  int64_t mr_register_base_ns = 40'000;     // Syscall + driver entry.
  int64_t mr_register_per_page_ns = 220;    // Per 4 KB page pinned.
  uint64_t mr_page_bytes = 4096;
  // Hardware limit on simultaneously registered regions (models the
  // "unexpected errors due to hardware resource limit" of §3.4).
  int max_memory_regions = 2048;
  // Hardware limit on live queue pairs per NIC. Real NICs degrade sharply
  // once the QP context cache misses (RDMAvisor's motivating observation);
  // here it is a hard cap: creating a QP past it fails with
  // kResourceExhausted. Sized so a 256-host parameter-server job fits (2 RPC
  // QPs per peer edge plus the pooled data lanes).
  int max_queue_pairs = 2048;

  // ----------------------------------------------------------------- TCP/IP
  // Effective gRPC-over-TCP goodput for large tensors (IPoIB-era TF 1.x
  // numbers: single stream + kernel stack + gRPC framing land in the low
  // Gbps; this is what makes the paper's 25-61x gaps possible).
  double tcp_bandwidth_bytes_per_sec = 0.30e9;
  // Kernel + interrupt one-way latency.
  int64_t tcp_one_way_latency_ns = 18'000;
  // Per-message socket send/recv software cost on each side.
  int64_t tcp_per_message_overhead_ns = 9'000;

  // -------------------------------------------------------------------- CPU
  // Streaming memcpy bandwidth (RPC-side copies, which pipeline across
  // buffers).
  double memcpy_bytes_per_sec = 20.0e9;
  // The RdmaSend staging copy (RDMA.cp path, §3.4): a single cold
  // tensor-sized memcpy on the op's own thread.
  double staging_memcpy_bytes_per_sec = 11.0e9;
  // Element-wise reduction (gradient summation) throughput: a streaming
  // read-read-write float-add loop, roughly memcpy-bound on one core.
  double reduce_bytes_per_sec = 20.0e9;
  // Protobuf-style serialization / deserialization throughput for tensor
  // payloads (gRPC baselines only; the zero-copy path never serializes).
  double serialize_bytes_per_sec = 8.5e9;
  double deserialize_bytes_per_sec = 8.5e9;
  // Effective fixed software cost of one RPC tensor transfer on each
  // endpoint: gRPC dispatch plus TF's per-tensor rendezvous bookkeeping
  // (request/meta round trips in the r1.x RDMA path). Occupies the comm
  // thread handling the call.
  int64_t rpc_dispatch_overhead_ns = 110'000;
  // Fixed in-library receive ring buffer per RPC channel (§2.2): messages
  // larger than this are fragmented at the sender (extra copy) and
  // re-assembled at the receiver (extra copy).
  uint64_t rpc_ring_buffer_bytes = 4 * 1024 * 1024;
  // TF r1.2's gRPC+RDMA path crashed on messages above 1 GB; reproduced as a
  // structured error (see Figure 8's missing point).
  uint64_t rpc_rdma_max_message_bytes = 1ull << 30;

  // The device library's vanilla send/recv RPC (§3.1) used for address
  // distribution: per-call handler dispatch cost on each side. Much lighter
  // than the gRPC baseline because it does no serialization framework work.
  int64_t mini_rpc_dispatch_ns = 1'500;

  // Heap allocation costs.
  int64_t malloc_overhead_ns = 400;             // Normal allocator.
  int64_t arena_alloc_overhead_ns = 120;        // Pre-registered RDMA arena.

  // Polling-async scheduling (§4): cost of one flag check, and the idle retry
  // interval when a poller has nothing else to run. On real hardware a
  // poller simply spins on an idle core; in the discrete-event simulation
  // each retry is a poll tick (sim::Simulator::ArmPoll: a miss moves the
  // tick to the back of a FIFO, not an event), and the interval backs off
  // exponentially up to the max while nothing arrives (resetting on any
  // progress): IdlePollBackoffNs below, validated by IdlePollScheduleError.
  // The max bounds the added latency at a value negligible against multi-ms
  // tensor transfers.
  int64_t flag_poll_cost_ns = 80;
  int64_t idle_poll_interval_ns = 1'000;
  int64_t idle_poll_max_interval_ns = 16'000;

  // ------------------------------------------------------------------- PCIe
  // Host<->GPU staging copies (used when GPUDirect is off, §3.5 / Table 3).
  double pcie_bandwidth_bytes_per_sec = 10.0e9;
  int64_t pcie_latency_ns = 1'300;
  // GPUDirect reads run at a slightly lower rate than host-memory RDMA
  // (P100-era GDR read bandwidth penalty).
  double gdr_bandwidth_bytes_per_sec = 9.5e9;

  // --------------------------------------------------------------- Loopback
  // Same-host transfers (worker <-> PS colocated on one machine) short-cut
  // through the NIC's loopback path.
  double loopback_bandwidth_bytes_per_sec = 16.0e9;
  int64_t loopback_latency_ns = 400;
};

// Nanoseconds to move |bytes| at |bytes_per_sec|, truncated toward zero.
inline int64_t CostNs(uint64_t bytes, double bytes_per_sec) {
  return static_cast<int64_t>(static_cast<double>(bytes) / bytes_per_sec * 1e9);
}

// CPU time of an RPC-style staged copy of |bytes| over the TCP plane, per
// side: the sender dispatches and serializes, the receiver deserializes and
// copies into the destination buffer.
struct StagedCopyNs {
  int64_t sender;
  int64_t receiver;
};
inline StagedCopyNs StagedCopyCost(const CostModel& cost, uint64_t bytes) {
  return {cost.rpc_dispatch_overhead_ns + CostNs(bytes, cost.serialize_bytes_per_sec),
          CostNs(bytes, cost.deserialize_bytes_per_sec) +
              CostNs(bytes, cost.staging_memcpy_bytes_per_sec)};
}

// Capped exponential backoff: min(base << attempt, cap), safe for any attempt
// (the naive `base << attempt` overflows int64 past attempt ~40 and goes
// negative, which would schedule events in the past). Shared by the RC
// transport-retry schedule, the DCQCN CNP moderation timer and the idle poll
// schedule.
inline int64_t CappedBackoffNs(int64_t base_ns, int attempt, int64_t cap_ns) {
  if (base_ns <= 0) return 0;
  if (cap_ns <= 0) cap_ns = std::numeric_limits<int64_t>::max();
  if (base_ns >= cap_ns) return cap_ns;
  // base << attempt overflows (or exceeds the cap) exactly when
  // base > cap >> attempt; attempt >= 63 always saturates.
  if (attempt < 0) attempt = 0;
  if (attempt >= 63 || base_ns > (cap_ns >> attempt)) return cap_ns;
  return base_ns << attempt;
}

// The transport retransmission delay before attempt |attempt| (0-based).
inline int64_t TransportBackoffNs(const CostModel& cost, int attempt) {
  return CappedBackoffNs(cost.rdma_transport_retry_base_ns, attempt,
                         cost.rdma_transport_retry_max_ns);
}

// The idle poll schedule (§4 polling-async) of the executor's polling pass
// and the collective flag pollers: how long a poller yields after |misses|
// idle retries in a row (0-based). On a valid schedule this equals repeated
// min(2x, max) doubling from the base interval.
inline int64_t IdlePollBackoffNs(const CostModel& cost, int misses) {
  return CappedBackoffNs(cost.idle_poll_interval_ns, misses, cost.idle_poll_max_interval_ns);
}

// Why IdlePollBackoffNs cannot drive a poller, or "" when it can. A zero
// interval never advances virtual time (the pollers livelock), and a max
// below the base is not a backoff.
inline std::string IdlePollScheduleError(const CostModel& cost) {
  const int64_t base = cost.idle_poll_interval_ns, cap = cost.idle_poll_max_interval_ns;
  if (base > 0 && cap >= base) return "";
  return "idle poll schedule needs 0 < idle_poll_interval_ns (" + std::to_string(base) +
         ") <= idle_poll_max_interval_ns (" + std::to_string(cap) + ")";
}

// RoCE (RDMA over Converged Ethernet) preset: the paper notes its mechanism,
// unlike TF's IB-specific gRPC+RDMA path, also runs over RoCE NICs. Same
// verbs semantics; slightly higher latency and lower effective payload rate
// than native InfiniBand.
inline CostModel RoceCostModel() {
  CostModel cost;
  cost.rdma_bandwidth_bytes_per_sec = 11.0e9;  // 100 GbE minus Ethernet framing.
  cost.rdma_one_way_latency_ns = 1'400;        // PFC/ECN-managed Ethernet switch.
  cost.rdma_nic_processing_ns = 450;
  return cost;
}

}  // namespace net
}  // namespace rdmadl

#endif  // RDMADL_SRC_NET_COST_MODEL_H_
