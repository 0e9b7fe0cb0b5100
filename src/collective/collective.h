// Collective communication over the RDMA device library (ISSUE 1).
//
// The paper evaluates its zero-copy tensor transfer only in the
// parameter-server pattern (§3, Figure 3). This subsystem applies the same
// static-placement idea (§3.2) to ring collectives: every landing zone a
// collective will ever write — per-step ring slots, final chunk positions,
// completion flag bytes — is preallocated and NIC-registered once at group
// creation, and the addresses are distributed over the device library's
// vanilla RPC (off the critical path). Every data movement on the critical
// path is then a one-sided RdmaChannel::Memcpy write followed by a one-byte
// flag write on the same QP; RC FIFO ordering plus ascending-address delivery
// make the flag the last byte to land, so the receiver's poller observes
// arrival exactly as in the paper's §3.2 protocol.
//
// The one collective is AllReduce, a virtual-time state machine driven by
// the simulation kernel. Its ring schedule is a reduce-scatter fused with an
// all-gather per pipeline lane: a lane's all-gather begins the moment its
// reduce-scatter ends, with no global barrier between phases.
//
// Chunked pipelining: the vector is split into |pipeline_depth| lanes that
// run the ring independently and concurrently, so the egress link of a host
// is transmitting one lane's chunk while the CPU reduces another's — links
// stay busy across ring steps.
//
// Ablation knobs: |algorithm| switches the transfer schedule between the
// bandwidth-optimal ring and a naive gather-to-root + scatter-from-root star
// (the PS-shaped pattern); |transport| switches the same schedule between
// zero-copy one-sided RDMA and a gRPC-over-TCP-style staged path (serialize +
// TCP stream + deserialize per hop), so benchmarks can separate
// algorithm-vs-transport effects.
//
// Memory fidelity follows the host runtime's two modes: with
// |materialize| = true the buffers are real and collectives compute
// bitwise-exact float sums (unit tests); with false the buffers are reserved,
// never-dereferenced registered ranges (virtual-memory benchmark mode — an
// 8-host 512 MB all-reduce does not materialize 4 GB), while flag bytes stay
// real so the polling protocol always reads actual memory.
#ifndef RDMADL_SRC_COLLECTIVE_COLLECTIVE_H_
#define RDMADL_SRC_COLLECTIVE_COLLECTIVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/transfer_engine.h"
#include "src/device/rdma_device.h"
#include "src/util/status.h"

namespace rdmadl {
namespace collective {

enum class Algorithm {
  kRing,         // Bandwidth-optimal ring (reduce-scatter + all-gather).
  kNaiveGather,  // Gather-to-root, reduce at root, scatter result (star).
  // Two-level topology-aware all-reduce: binomial reduce trees within each
  // rack feed a fused ring over the rack leaders across the spine, then
  // binomial broadcast trees fan the result back out. Lanes
  // pipeline the level handoff: one lane's leader ring runs while another
  // lane's rack trees are still reducing. On a flat fabric the whole group
  // is one "rack", so this degenerates to a single binomial tree.
  kHierarchical,
  // NetReduce-style in-network reduction: every rank streams aggregation
  // windows into its ToR's reduction engine; partials cross the spine
  // aggregator and the result streams back down. Requires a topology with
  // switch_reduce enabled.
  kInNetwork,
  // Resolved once at Create from the fabric shape and tensor size: flat or
  // single-rack groups run kRing; multi-rack groups run kInNetwork when the
  // fabric has a switch-reduce stage and the tensor fits the in-network
  // sweet spot, else kHierarchical. options().algorithm holds the result.
  kAuto,
};

enum class Transport {
  kRdmaZeroCopy,  // One-sided writes into preallocated slots (§3.2 idiom).
  kTcpStaging,    // gRPC-TCP-style: serialize + TCP stream + deserialize.
};

const char* AlgorithmName(Algorithm algorithm);
const char* TransportName(Transport transport);

struct CollectiveOptions {
  Algorithm algorithm = Algorithm::kRing;
  Transport transport = Transport::kRdmaZeroCopy;
  // Ring lanes that pipeline independently; slot memory scales with this.
  int pipeline_depth = 4;
  // Port the group's per-rank devices bind on their hosts.
  uint16_t port = 7100;
  // Real payload memory (tests, examples) vs. virtual ranges (benchmarks).
  bool materialize = true;
  // Device-library parallelism for the group's devices.
  int num_cqs = 2;
  // Tracer track prefix for collective spans ("host0 ring[0]", ...).
  std::string trace_prefix = "ring";
  // Virtual-time budget for one collective; 0 = unlimited. A collective still
  // in flight when the budget elapses fails with kDeadlineExceeded instead of
  // hanging virtual time (e.g. a crashed peer whose flag never arrives).
  int64_t op_timeout_ns = 0;
  // Per-rank transfer-engine knobs (lane striping of big chunks). Coalescing
  // is always forced off here: ring flags are per-(lane, step) slots and the
  // chunks are medium-sized, so batching would only add latency.
  comm::TransferEngineOptions engine;
};

struct CollectiveStats {
  int64_t allreduces = 0;
  int64_t ring_steps = 0;    // Chunk transfers posted (any algorithm).
  uint64_t bytes_sent = 0;   // Payload bytes put on the wire.
  int64_t setup_rpcs = 0;    // Address-distribution calls (setup only).
  int64_t reconfigurations = 0;  // Membership-change ring rebuilds.
};

using DoneCallback = std::function<void(const Status&)>;

// A group of N ranks, one per listed host, each owning an RdmaDevice bound to
// (host, options.port), a data buffer of |max_elements| floats, preallocated
// ring slots, and an always-real flag block. The whole group lives in one
// simulation; the public entry points drive all ranks' state machines in
// virtual time and invoke |done| when the collective has completed on every
// rank (or failed anywhere). One collective may be in flight at a time.
class CollectiveGroup {
 public:
  static StatusOr<std::unique_ptr<CollectiveGroup>> Create(
      device::DeviceDirectory* directory, const std::vector<int>& hosts,
      uint64_t max_elements, CollectiveOptions options = {});
  ~CollectiveGroup();

  CollectiveGroup(const CollectiveGroup&) = delete;
  CollectiveGroup& operator=(const CollectiveGroup&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }
  uint64_t max_elements() const { return max_elements_; }
  const CollectiveOptions& options() const { return options_; }
  // The concrete algorithm the group runs (kAuto is resolved at Create and
  // stays fixed across Reconfigure).
  Algorithm algorithm() const { return options_.algorithm; }
  // Rack partition the hierarchical/in-network schedules use: member ranks
  // per rack ordinal, members in rank order, leader first. A flat fabric is
  // one rack. Rebuilt by Reconfigure (the first surviving member of a rack
  // becomes its leader — re-election is positional, no extra protocol).
  const std::vector<std::vector<int>>& racks() const { return racks_; }
  sim::Simulator* simulator() const;

  // Rank r's local vector (|max_elements| floats). Null in virtual mode.
  float* data(int rank) const;

  // Element-wise sum over the first |count| elements of every rank's vector;
  // on completion every rank holds the full sum.
  void AllReduce(uint64_t count, DoneCallback done);

  bool busy() const { return op_ != nullptr; }
  const CollectiveStats& stats() const { return stats_; }

  // Recovers every rank's errored QPs (after a failed/timed-out collective,
  // once the simulator has quiesced) so the next op starts on clean channels.
  Status ResetTransport();

  // Elastic membership change: shrinks the group to |alive_hosts| (which must
  // be a subset of the current members), destroying dead ranks' devices and
  // rebuilding the ring over the survivors. The per-step chunk capacity grows
  // as N shrinks (ceil(max_elements / N)), so ring slots and flag blocks are
  // reallocated and re-registered; the data buffers and their registrations
  // persist. The next collective re-runs the ring-buffer address exchange.
  // Preconditions: no collective in flight, simulator quiesced (no in-flight
  // closures may reference a dead rank's device).
  Status Reconfigure(const std::vector<int>& alive_hosts);

  // Host ids of the current members, in rank order.
  std::vector<int> hosts() const;

 private:
  struct Rank;
  struct Op;
  struct Waiter;
  struct RingLane;

  CollectiveGroup(device::DeviceDirectory* directory, uint64_t max_elements,
                  CollectiveOptions options);

  Status Init(const std::vector<int>& hosts);
  // Per-rank resources for the current layout, shared by Init and
  // Reconfigure: creates the device and engine of ranks that have none,
  // (re)allocates the flag block and slot area, registers the data buffer
  // once, fills the self address entry and (re)registers the address RPC.
  Status ProvisionRanks(const std::vector<int>& hosts);

  // Validates and begins an op; |start| runs once address exchange is done.
  void Begin(std::shared_ptr<Op> op, std::function<void()> start);
  // Address distribution over the device library's vanilla RPC (§3.1), run
  // lazily before the first collective.
  void ExchangeAddresses(std::function<void()> then);
  // The (src, dst) rank pairs whose remote addresses the configured
  // schedules can ever post a write over. Every schedule is ring- or
  // star-shaped, so this is O(ranks) — exchanging (and connecting) all
  // n*(n-1) pairs would put hosts^2 queue pairs on the fabric at cluster
  // scale for no benefit.
  std::vector<std::pair<int, int>> RequiredAddressPairs() const;
  void Finish(const std::shared_ptr<Op>& op);
  void Fail(const std::shared_ptr<Op>& op, const Status& status);
  void FinishUnit(const std::shared_ptr<Op>& op);
  // Splits |op| into |lanes| near-equal pipeline lanes (Op::lanes) and
  // expects |units_per_lane| FinishUnit calls per non-empty lane. Returns
  // false, after finishing the op, when every lane is empty.
  bool StartLanes(const std::shared_ptr<Op>& op, int lanes, int units_per_lane);

  // Posts one chunk: payload (if |bytes| > 0) then the 1-byte completion flag
  // |flag_index| at |dst_rank|, over the configured transport.
  void PostChunk(const std::shared_ptr<Op>& op, int src_rank, int dst_rank,
                 int qp_lane, uint64_t local_addr, uint32_t local_lkey,
                 uint64_t remote_addr, uint32_t remote_rkey, uint64_t bytes,
                 int flag_index);

  // Sequential flag poller: watches flag bytes [flag_base, flag_base +
  // num_flags) at |rank| in order, invoking |on_arrival|(i, resume) for each;
  // the handler calls resume() when the poller may advance (§4-style
  // exponential-backoff polling).
  void StartWaiter(const std::shared_ptr<Op>& op, int rank, int flag_base,
                   int num_flags,
                   std::function<void(int, std::function<void()>)> on_arrival);
  void PollWaiter(std::shared_ptr<Op> op, std::shared_ptr<Waiter> waiter);

  // Virtual reduce cost of folding |bytes| into an accumulator.
  int64_t ReduceNs(uint64_t bytes) const;
  const net::CostModel& cost() const;

  // Algorithm entry points (ring_allreduce.cc, naive_allreduce.cc,
  // hierarchical_allreduce.cc, innetwork_allreduce.cc).
  void StartRing(const std::shared_ptr<Op>& op);
  void StartNaiveGather(const std::shared_ptr<Op>& op);
  void StartHierarchical(const std::shared_ptr<Op>& op);
  void StartInNetwork(const std::shared_ptr<Op>& op);
  // One ring lane at one member (the flat ring and the hierarchical leader
  // ring): posts step 0, then polls the lane's flags and runs each arrival.
  void RunRingLane(const std::shared_ptr<Op>& op, RingLane lane);
  // Posts step |step| of |lane|, or runs its on_done once every step is done.
  void RingLaneStep(const std::shared_ptr<Op>& op, const RingLane& lane, int step);
  // One aggregation window of lane |lane| through the switch-reduce stage;
  // chains itself until the lane's rounds are exhausted.
  void IssueInNetworkRound(const std::shared_ptr<Op>& op, int lane, int round);

  // Groups the member hosts into racks_ / rank_rack_ / rank_pos_ / leaders_
  // from the fabric topology (one rack when flat), and sets rank_order_.
  void BuildRacks(const std::vector<int>& hosts);
  // Slot/flag layout shared by Init and Reconfigure (ring + naive + the
  // hierarchical tree/leader-ring areas and the in-network round flags).
  void ComputeLayout(int n);
  // Multi-level engine routing: cross-rack stripes funnel through one
  // oversubscribed uplink, so the per-rank engines cap their stripe fan-out
  // to 1 lane for cross-rack destinations (hierarchical/in-network only).
  void InstallLaneLimitResolver();
  // False (and fails the op with kDeadlineExceeded naming |where|) when the
  // op's deadline has passed at a level handoff.
  bool CheckDeadline(const std::shared_ptr<Op>& op, const char* where);
  // Registers flag (rank, index) with the protocol checker and records it on
  // the op for teardown (Finish/Fail forget every declared flag).
  void DeclareFlag(const std::shared_ptr<Op>& op, int rank, int flag_index,
                   const char* kind);
  // Retires every flag DeclareFlag registered for |op| from the checker.
  void ForgetDeclaredFlags(const std::shared_ptr<Op>& op);

  const std::string& RankTrack(int rank) const;

  device::DeviceDirectory* directory_;
  uint64_t max_elements_;
  CollectiveOptions options_;
  CollectiveStats stats_;

  uint64_t chunk_cap_elements_ = 0;  // Per-(lane, step) ring slot capacity.
  uint64_t ring_slot_bytes_ = 0;     // Ring slot area per rank.
  uint64_t naive_slot_offset_ = 0;   // Root gather parking starts here.
  int flag_capacity_ = 0;            // Flag bytes per rank.
  bool exchanged_ = false;
  int pending_exchanges_ = 0;

  // Hierarchical schedule state (rebuilt by Init/Reconfigure; empty unless
  // the resolved algorithm needs it).
  std::vector<std::vector<int>> racks_;  // Rack ordinal -> ranks, leader first.
  std::vector<int> rank_rack_;           // Rank -> rack ordinal.
  std::vector<int> rank_pos_;            // Rank -> position in rack (0=leader).
  std::vector<int> leaders_;             // Rack ordinal -> leader rank.
  int tree_rounds_ = 0;                  // ceil(log2(max rack size)).
  uint64_t lane_cap_elements_ = 0;       // ceil(max_elements / lanes).
  uint64_t hier_extra_slot_bytes_ = 0;   // Tree + leader-ring areas per rank.
  uint64_t hier_tree_slot_offset_ = 0;   // Tree slot (lane, round) area.
  uint64_t hier_ring_slot_offset_ = 0;   // Leader-ring per-step slot area.
  uint64_t hier_ring_cap_elements_ = 0;  // Leader-ring per-step slot capacity.
  int hier_flags_per_lane_ = 0;          // tree_rounds + 2(R-1) + 1.

  // In-network schedule state.
  uint64_t innet_window_elements_ = 0;  // Switch SRAM window, in floats.
  int innet_rounds_cap_ = 0;            // Max rounds of any lane.

  std::vector<int> host_to_rank_;  // Fabric host id -> rank, -1 elsewhere.
  std::vector<int> rank_order_;    // 0..N-1: the flat ring's members.

  std::vector<std::unique_ptr<Rank>> ranks_;
  mutable std::vector<std::string> rank_tracks_;
  std::shared_ptr<Op> op_;
};

}  // namespace collective
}  // namespace rdmadl

#endif  // RDMADL_SRC_COLLECTIVE_COLLECTIVE_H_
