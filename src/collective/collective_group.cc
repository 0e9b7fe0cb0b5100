// CollectiveGroup core: resource setup (buffers, registration, address
// distribution), op lifecycle, the chunk-post primitive for both transports,
// and the flag pollers. The algorithm schedules live in ring_allreduce.cc,
// hierarchical_allreduce.cc, innetwork_allreduce.cc and naive_allreduce.cc.
#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/check/rdma_check.h"
#include "src/collective/internal.h"
#include "src/net/fabric.h"
#include "src/net/switch_reduce.h"
#include "src/net/topology.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

namespace {

// Virtual-mode address windows: each rank reserves a 1 TB window far above
// the host runtime's windows (which sit at (index + 2) << 40); the data
// buffer lives at the window base and the slot area 512 GB above it. The
// addresses are registered with the NIC but never dereferenced.
constexpr uint64_t kVirtualBase = 1ull << 56;
constexpr uint64_t kVirtualWindowBytes = 1ull << 40;
constexpr uint64_t kVirtualSlotOffset = 1ull << 39;
uint64_t next_virtual_window = 0;

// kAuto picks the in-network schedule only when the whole tensor fits a
// modest multiple of the switch aggregation window: the serialized
// window-rounds through one spine engine beat host rings on latency for
// small tensors but lose to the hierarchical schedule's pipelined
// bandwidth once tensors grow.
constexpr uint64_t kAutoInNetworkMaxBytes = 8ull << 20;

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRing:
      return "ring";
    case Algorithm::kNaiveGather:
      return "naive-gather";
    case Algorithm::kHierarchical:
      return "hierarchical";
    case Algorithm::kInNetwork:
      return "in-network";
    case Algorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

const char* TransportName(Transport transport) {
  switch (transport) {
    case Transport::kRdmaZeroCopy:
      return "rdma-zerocopy";
    case Transport::kTcpStaging:
      return "tcp-staging";
  }
  return "unknown";
}

CollectiveGroup::CollectiveGroup(device::DeviceDirectory* directory, uint64_t max_elements,
                                 CollectiveOptions options)
    : directory_(directory), max_elements_(max_elements), options_(std::move(options)) {}

CollectiveGroup::~CollectiveGroup() = default;

StatusOr<std::unique_ptr<CollectiveGroup>> CollectiveGroup::Create(
    device::DeviceDirectory* directory, const std::vector<int>& hosts, uint64_t max_elements,
    CollectiveOptions options) {
  if (hosts.empty()) {
    return InvalidArgument("collective group needs at least one host");
  }
  if (max_elements == 0) {
    return InvalidArgument("collective group max_elements must be positive");
  }
  std::string poll_error =
      net::IdlePollScheduleError(directory->rdma_fabric()->fabric()->cost());
  if (!poll_error.empty()) return InvalidArgument(std::move(poll_error));
  const int num_hosts = directory->rdma_fabric()->fabric()->num_hosts();
  std::unordered_set<int> seen;
  for (int host : hosts) {
    if (host < 0 || host >= num_hosts) {
      return InvalidArgument(StrCat("host ", host, " outside fabric of ", num_hosts));
    }
    if (!seen.insert(host).second) {
      return InvalidArgument(StrCat("host ", host, " listed twice in collective group"));
    }
  }
  options.pipeline_depth = std::clamp(options.pipeline_depth, 1, 64);
  options.num_cqs = std::clamp(options.num_cqs, 1, 16);

  std::unique_ptr<CollectiveGroup> group(
      new CollectiveGroup(directory, max_elements, std::move(options)));
  RDMADL_RETURN_IF_ERROR(group->Init(hosts));
  return group;
}

void CollectiveGroup::BuildRacks(const std::vector<int>& hosts) {
  const int n = static_cast<int>(hosts.size());
  net::Topology* topo = directory_->rdma_fabric()->fabric()->topology();
  racks_.clear();
  rank_rack_.assign(n, 0);
  rank_pos_.assign(n, 0);
  // Group by rack id ascending, members in rank order; the first member of a
  // rack is its leader (so after Reconfigure drops dead ranks, the first
  // survivor is the leader automatically — re-election is positional).
  std::vector<int> rack_ids;
  for (int r = 0; r < n; ++r) {
    const int rid = topo != nullptr ? topo->rack_of(hosts[r]) : 0;
    auto it = std::lower_bound(rack_ids.begin(), rack_ids.end(), rid);
    const size_t pos = static_cast<size_t>(it - rack_ids.begin());
    if (it == rack_ids.end() || *it != rid) {
      rack_ids.insert(it, rid);
      racks_.insert(racks_.begin() + static_cast<long>(pos), std::vector<int>());
      // Earlier inserts shift later rack ordinals; recompute below.
    }
    racks_[pos].push_back(r);
  }
  leaders_.clear();
  for (int rk = 0; rk < static_cast<int>(racks_.size()); ++rk) {
    leaders_.push_back(racks_[rk][0]);
    for (int p = 0; p < static_cast<int>(racks_[rk].size()); ++p) {
      rank_rack_[racks_[rk][p]] = rk;
      rank_pos_[racks_[rk][p]] = p;
    }
  }
  rank_order_.resize(n);
  for (int r = 0; r < n; ++r) rank_order_[r] = r;
}

void CollectiveGroup::ComputeLayout(int n) {
  const int lanes = options_.pipeline_depth;

  // Ring slot capacity is sized as if one lane carried the whole vector, an
  // upper bound on every pipeline lane's chunk.
  chunk_cap_elements_ = CeilDiv(max_elements_, static_cast<uint64_t>(n));
  ring_slot_bytes_ = static_cast<uint64_t>(lanes) * (n > 1 ? n - 1 : 0) * chunk_cap_elements_ *
                     sizeof(float);
  naive_slot_offset_ = ring_slot_bytes_;

  // Hierarchical slot areas live after the ring slots (exclusive with the
  // naive root parking — the algorithms cannot coexist in one group): one
  // full-lane tree slot per (lane, round) and one leader-ring slot per
  // (lane, step). Every rank gets the same layout; non-leaders simply never
  // see their ring slots written.
  tree_rounds_ = 0;
  lane_cap_elements_ = 0;
  hier_extra_slot_bytes_ = 0;
  hier_tree_slot_offset_ = 0;
  hier_ring_slot_offset_ = 0;
  hier_ring_cap_elements_ = 0;
  hier_flags_per_lane_ = 0;
  int hier_flags = 0;
  if (options_.algorithm == Algorithm::kHierarchical) {
    int max_rack = 1;
    for (const auto& members : racks_) {
      max_rack = std::max(max_rack, static_cast<int>(members.size()));
    }
    while ((1 << tree_rounds_) < max_rack) ++tree_rounds_;
    const int num_racks = std::max(1, static_cast<int>(racks_.size()));
    lane_cap_elements_ = CeilDiv(max_elements_, static_cast<uint64_t>(lanes));
    hier_ring_cap_elements_ = CeilDiv(lane_cap_elements_, static_cast<uint64_t>(num_racks));
    hier_tree_slot_offset_ = ring_slot_bytes_;
    const uint64_t tree_bytes = static_cast<uint64_t>(lanes) * tree_rounds_ *
                                lane_cap_elements_ * sizeof(float);
    hier_ring_slot_offset_ = hier_tree_slot_offset_ + tree_bytes;
    const uint64_t ring_bytes = static_cast<uint64_t>(lanes) *
                                (num_racks > 1 ? num_racks - 1 : 0) *
                                hier_ring_cap_elements_ * sizeof(float);
    hier_extra_slot_bytes_ = tree_bytes + ring_bytes;
    hier_flags_per_lane_ = tree_rounds_ + 2 * (num_racks > 1 ? num_racks - 1 : 0) + 1;
    hier_flags = lanes * hier_flags_per_lane_;
  }

  // In-network rounds: one flag per (lane, aggregation window).
  innet_window_elements_ = 0;
  innet_rounds_cap_ = 0;
  int innet_flags = 0;
  if (options_.algorithm == Algorithm::kInNetwork) {
    net::Topology* topo = directory_->rdma_fabric()->fabric()->topology();
    CHECK(topo != nullptr);
    lane_cap_elements_ = CeilDiv(max_elements_, static_cast<uint64_t>(lanes));
    innet_window_elements_ =
        std::max<uint64_t>(1, topo->config().switch_reduce_window_bytes / sizeof(float));
    innet_rounds_cap_ =
        static_cast<int>(CeilDiv(lane_cap_elements_, innet_window_elements_));
    innet_flags = lanes * innet_rounds_cap_;
  }

  // One flag byte per expected arrival of the busiest op shape, rounded up so
  // the block and its trailing constant source byte share one registration.
  const int ring_flags = lanes * (n > 1 ? 2 * (n - 1) : 1);
  flag_capacity_ = std::max({ring_flags, n, hier_flags, innet_flags});
  flag_capacity_ = static_cast<int>(CeilDiv(flag_capacity_, 64) * 64);
}

void CollectiveGroup::InstallLaneLimitResolver() {
  if (options_.algorithm != Algorithm::kHierarchical &&
      options_.algorithm != Algorithm::kInNetwork) {
    return;
  }
  net::Topology* topo = directory_->rdma_fabric()->fabric()->topology();
  if (topo == nullptr) return;
  for (const auto& rank : ranks_) {
    const int my_rack = topo->rack_of(rank->endpoint.host_id);
    rank->engine->set_lane_limit_resolver([topo, my_rack](const Endpoint& remote) {
      // Cross-rack stripes all funnel through the same oversubscribed rack
      // uplink: fanning them across QP lanes buys no bandwidth and only
      // multiplies WQE-engine work, so cap to a single lane. Intra-rack
      // writes keep the full stripe fan-out.
      return topo->rack_of(remote.host_id) == my_rack ? 0 : 1;
    });
  }
}

Status CollectiveGroup::Init(const std::vector<int>& hosts) {
  const int n = static_cast<int>(hosts.size());
  const uint64_t data_bytes = max_elements_ * sizeof(float);

  BuildRacks(hosts);
  net::Fabric* fabric = directory_->rdma_fabric()->fabric();
  if (options_.algorithm == Algorithm::kAuto) {
    if (racks_.size() < 2) {
      options_.algorithm = Algorithm::kRing;
    } else if (fabric->switch_reduce() != nullptr && data_bytes <= kAutoInNetworkMaxBytes) {
      options_.algorithm = Algorithm::kInNetwork;
    } else {
      options_.algorithm = Algorithm::kHierarchical;
    }
  }
  if (options_.algorithm == Algorithm::kInNetwork && fabric->switch_reduce() == nullptr) {
    return InvalidArgument(
        "in-network collective requires a hierarchical topology with switch_reduce");
  }
  ComputeLayout(n);
  return ProvisionRanks(hosts);
}

Status CollectiveGroup::ProvisionRanks(const std::vector<int>& hosts) {
  const int n = static_cast<int>(hosts.size());
  const uint64_t data_bytes = max_elements_ * sizeof(float);
  const int num_qps = std::clamp(options_.pipeline_depth, 1, 4);
  for (int i = 0; i < n; ++i) {
    if (i == size()) {
      // First provisioning (Init): the rank's device and transfer engine.
      auto rank = std::make_unique<Rank>();
      rank->endpoint = Endpoint{hosts[i], options_.port};
      RDMADL_ASSIGN_OR_RETURN(
          rank->device,
          device::RdmaDevice::Create(directory_, options_.num_cqs, num_qps, rank->endpoint));
      comm::TransferEngineOptions engine_options = options_.engine;
      engine_options.enable_coalescing = false;  // Ring flags are per-slot.
      rank->engine = std::make_unique<comm::TransferEngine>(rank->device.get(), engine_options);
      ranks_.push_back(std::move(rank));
    }
    Rank* rank = ranks_[i].get();
    rank->index = i;

    // Flags are always real: the poller reads actual bytes (§3.2), even when
    // the payload buffers are virtual. A replaced block is released only
    // after the new one is allocated.
    RDMADL_ASSIGN_OR_RETURN(rank->flag_region,
                            rank->device->AllocateMemRegion(flag_capacity_ + 1));
    std::memset(rank->flag_region.data(), 0, flag_capacity_ + 1);
    rank->flag_region.data()[flag_capacity_] = 1;  // Constant flag source.

    uint64_t slot_bytes = ring_slot_bytes_ + hier_extra_slot_bytes_;
    if (options_.algorithm == Algorithm::kNaiveGather && i == 0 && n > 1) {
      slot_bytes += static_cast<uint64_t>(n - 1) * data_bytes;  // Gather parking.
    }

    // The data buffer is registered once and persists; the slot area is
    // sized by the current layout, so a previous one is released before its
    // replacement is registered. Virtual regions are ranges of the rank's
    // window, with the slot area at a fixed offset in it.
    if (!rank->data_region.valid()) {
      RDMADL_ASSIGN_OR_RETURN(
          rank->data_region,
          options_.materialize
              ? rank->device->AllocateMemRegion(data_bytes)
              : rank->device->RegisterMemRegion(
                    kVirtualBase + (next_virtual_window++) * kVirtualWindowBytes, data_bytes));
    }
    rank->slot_region = device::MemRegion();
    if (slot_bytes > 0) {
      RDMADL_ASSIGN_OR_RETURN(
          rank->slot_region,
          options_.materialize ? rank->device->AllocateMemRegion(slot_bytes)
                               : rank->device->RegisterMemRegion(
                                     rank->data_region.addr() + kVirtualSlotOffset, slot_bytes));
    }

    rank->peers.assign(n, Rank::PeerAddrs{});
    rank->peers[i].data = rank->data_region.Remote();
    rank->peers[i].slots = rank->slot_region.Remote();
    rank->peers[i].flags = rank->flag_region.Remote();

    // Address distribution (§3.1): peers fetch the three descriptors over the
    // device library's vanilla RPC before the first collective. The handler
    // captures the rank's index, so re-registering (same method name
    // replaces the old handler) follows every renumbering.
    rank->device->RegisterRpcHandler(
        "collective/addrs", [rank, i](const std::vector<uint8_t>&) {
          std::vector<uint8_t> out;
          rank->peers[i].data.EncodeTo(&out);
          rank->peers[i].slots.EncodeTo(&out);
          rank->peers[i].flags.EncodeTo(&out);
          return out;
        });
  }

  host_to_rank_.assign(directory_->rdma_fabric()->fabric()->num_hosts(), -1);
  for (int i = 0; i < n; ++i) host_to_rank_[hosts[i]] = i;
  InstallLaneLimitResolver();

  rank_tracks_.assign(n, std::string());
  exchanged_ = false;  // The next op runs the slot-address exchange.
  pending_exchanges_ = 0;
  return OkStatus();
}

sim::Simulator* CollectiveGroup::simulator() const {
  return directory_->rdma_fabric()->fabric()->simulator();
}

const net::CostModel& CollectiveGroup::cost() const {
  return directory_->rdma_fabric()->fabric()->cost();
}

float* CollectiveGroup::data(int rank) const {
  CHECK_GE(rank, 0);
  CHECK_LT(rank, size());
  return ranks_[rank]->data_ptr();
}

int64_t CollectiveGroup::ReduceNs(uint64_t bytes) const {
  return net::CostNs(bytes, cost().reduce_bytes_per_sec);
}

const std::string& CollectiveGroup::RankTrack(int rank) const {
  std::string& track = rank_tracks_[rank];
  if (track.empty()) {
    track = StrCat("host", ranks_[rank]->endpoint.host_id, " ", options_.trace_prefix, "[", rank,
                   "]");
  }
  return track;
}

// ---------------------------------------------------------------------------
// Op lifecycle.

void CollectiveGroup::AllReduce(uint64_t count, DoneCallback done) {
  auto op = std::make_shared<Op>();
  op->count = count;
  op->done = std::move(done);
  Begin(op, [this, op] {
    switch (options_.algorithm) {
      case Algorithm::kNaiveGather:
        StartNaiveGather(op);
        break;
      case Algorithm::kHierarchical:
        StartHierarchical(op);
        break;
      case Algorithm::kInNetwork:
        StartInNetwork(op);
        break;
      default:
        StartRing(op);
        break;
    }
  });
}

void CollectiveGroup::Begin(std::shared_ptr<Op> op, std::function<void()> start) {
  sim::Simulator* sim = simulator();
  if (op->count > max_elements_) {
    sim->ScheduleAfter(0, [op] {
      if (op->done) {
        op->done(InvalidArgument(StrCat("collective of ", op->count,
                                        " elements exceeds group capacity")));
      }
    });
    return;
  }
  if (op_) {
    sim->ScheduleAfter(0, [op] {
      if (op->done) op->done(FailedPrecondition("another collective is already in flight"));
    });
    return;
  }
  op_ = op;
  // Flags are single-use per op: each expected arrival has its own byte,
  // written exactly once, so reset is the only bulk flag write and happens
  // strictly before any chunk is posted.
  for (const auto& rank : ranks_) {
    std::memset(rank->flags(), 0, flag_capacity_);
  }
  if (options_.op_timeout_ns > 0) {
    op->deadline_ns = sim->Now() + options_.op_timeout_ns;
    sim->ScheduleAfter(options_.op_timeout_ns, [this, op] {
      if (op->finished) return;
      Fail(op, DeadlineExceeded(StrCat("collective did not complete within ",
                                       options_.op_timeout_ns, "ns")));
    });
  }
  if (op->count == 0 || size() == 1) {
    sim->ScheduleAfter(0, [this, op, sim] {
      op->start_ns = sim->Now();
      Finish(op);
    });
    return;
  }
  auto begin = [this, op, sim, start = std::move(start)] {
    if (op->finished) return;
    op->start_ns = sim->Now();
    start();
  };
  if (!exchanged_) {
    ExchangeAddresses(std::move(begin));
  } else {
    sim->ScheduleAfter(0, std::move(begin));
  }
}

std::vector<std::pair<int, int>> CollectiveGroup::RequiredAddressPairs() const {
  const int n = size();
  std::vector<std::pair<int, int>> pairs;
  if (n <= 1) return pairs;
  // Deduplicated, deterministically ordered: hierarchical tree edges can
  // coincide with ring-successor edges.
  std::set<std::pair<int, int>> set;
  // Ring successors: the flat ring only ever writes rank -> (rank + 1) % n.
  // Every algorithm exchanges them although only the flat ring writes over
  // them; dropping them for the others would change the setup RPC and QP
  // counts the benches record.
  for (int r = 0; r < n; ++r) set.emplace(r, (r + 1) % n);
  if (options_.algorithm == Algorithm::kNaiveGather) {
    // Star to and from the gather root.
    for (int r = 1; r < n; ++r) {
      set.emplace(0, r);
      set.emplace(r, 0);
    }
  }
  if (options_.algorithm == Algorithm::kHierarchical) {
    // Binomial tree edges within each rack, both directions (child -> parent
    // for the reduce, parent -> child for the broadcast), plus the leader
    // ring across racks. O(n) total: every non-leader has exactly one parent.
    const int num_racks = static_cast<int>(racks_.size());
    for (int rk = 0; rk < num_racks; ++rk) {
      const std::vector<int>& members = racks_[rk];
      for (int p = 1; p < static_cast<int>(members.size()); ++p) {
        int j = 0;
        while (((p >> j) & 1) == 0) ++j;
        const int parent = p - (1 << j);
        set.emplace(members[p], members[parent]);
        set.emplace(members[parent], members[p]);
      }
    }
    if (num_racks > 1) {
      for (int rk = 0; rk < num_racks; ++rk) {
        set.emplace(leaders_[rk], leaders_[(rk + 1) % num_racks]);
      }
    }
  }
  pairs.assign(set.begin(), set.end());
  return pairs;
}

void CollectiveGroup::ExchangeAddresses(std::function<void()> then) {
  const std::vector<std::pair<int, int>> pairs = RequiredAddressPairs();
  pending_exchanges_ = static_cast<int>(pairs.size());
  if (pending_exchanges_ == 0) {
    exchanged_ = true;
    then();
    return;
  }
  auto shared_then = std::make_shared<std::function<void()>>(std::move(then));
  for (const auto& [r, q] : pairs) {
    {
      Rank* self = ranks_[r].get();
      stats_.setup_rpcs++;
      self->device->Call(
          ranks_[q]->endpoint, "collective/addrs", {},
          [this, r, q, shared_then](const Status& status, const std::vector<uint8_t>& payload) {
            if (!status.ok()) {
              if (op_) Fail(op_, status);
              return;
            }
            constexpr size_t kOne = device::RemoteRegion::kWireSize;
            if (payload.size() < 3 * kOne) {
              if (op_) Fail(op_, Internal("short collective/addrs response"));
              return;
            }
            Rank::PeerAddrs& addrs = ranks_[r]->peers[q];
            auto data = device::RemoteRegion::Decode(payload.data(), kOne);
            auto slots = device::RemoteRegion::Decode(payload.data() + kOne, kOne);
            auto flags = device::RemoteRegion::Decode(payload.data() + 2 * kOne, kOne);
            if (!data.ok() || !slots.ok() || !flags.ok()) {
              if (op_) Fail(op_, Internal("bad collective/addrs response"));
              return;
            }
            addrs.data = *data;
            addrs.slots = *slots;
            addrs.flags = *flags;
            if (--pending_exchanges_ == 0) {
              exchanged_ = true;
              (*shared_then)();
            }
          });
    }
  }
}

void CollectiveGroup::Finish(const std::shared_ptr<Op>& op) {
  if (op->finished) return;
  op->finished = true;
  stats_.allreduces++;
  sim::TraceSpan("collective", op->start_ns, simulator()->Now(), "allreduce ", op->count, " elems");
  ForgetDeclaredFlags(op);
  op_.reset();
  if (op->done) op->done(OkStatus());
}

void CollectiveGroup::Fail(const std::shared_ptr<Op>& op, const Status& status) {
  if (op->finished) return;
  op->finished = true;
  op->status = status;
  ForgetDeclaredFlags(op);
  op_.reset();
  sim::TraceInstant("collective", simulator()->Now(), "failed: ", status.message());
  if (op->done) op->done(status);
}

// Retires the op's flag declarations from the protocol checker so the shadow
// state never outlives the op (the flag block itself is reused by the next
// op after a memset).
void CollectiveGroup::ForgetDeclaredFlags(const std::shared_ptr<Op>& op) {
  for (const auto& [r, f] : op->declared_flags) {
    check::OnFlagForgotten(ranks_[r]->endpoint.host_id, ranks_[r]->flags() + f);
  }
  op->declared_flags.clear();
}

// Declares flag |flag_index| of |rank| to the protocol checker (no-op when no
// checker is installed) and records it on the op for Finish/Fail cleanup.
void CollectiveGroup::DeclareFlag(const std::shared_ptr<Op>& op, int rank, int flag_index,
                                  const char* kind) {
  if (check::RdmaCheck::Current() == nullptr) return;
  Rank* r = ranks_[rank].get();
  check::OnFlagLocation(r->endpoint.host_id, r->flags() + flag_index,
                        StrCat(options_.trace_prefix, " ", kind, " r", rank, " f", flag_index));
  op->declared_flags.emplace_back(rank, flag_index);
}

// Re-checks the op's virtual-time budget at a level handoff. Returns false
// (after failing the op with a message naming the handoff) when the deadline
// has passed; the Begin backstop timer would eventually fire too, but this
// surfaces *where* the budget was blown.
bool CollectiveGroup::CheckDeadline(const std::shared_ptr<Op>& op, const char* where) {
  if (op->finished) return false;
  if (op->deadline_ns > 0 && simulator()->Now() >= op->deadline_ns) {
    Fail(op, DeadlineExceeded(StrCat("collective deadline exceeded at ", where)));
    return false;
  }
  return true;
}

Status CollectiveGroup::ResetTransport() {
  for (const auto& rank : ranks_) {
    RDMADL_RETURN_IF_ERROR(rank->device->RecoverChannels());
  }
  return OkStatus();
}

std::vector<int> CollectiveGroup::hosts() const {
  std::vector<int> out;
  out.reserve(ranks_.size());
  for (const auto& rank : ranks_) out.push_back(rank->endpoint.host_id);
  return out;
}

Status CollectiveGroup::Reconfigure(const std::vector<int>& alive_hosts) {
  if (op_) return FailedPrecondition("cannot reconfigure with a collective in flight");
  if (alive_hosts.empty()) {
    return InvalidArgument("reconfigure needs at least one survivor");
  }
  std::unordered_set<int> alive(alive_hosts.begin(), alive_hosts.end());
  if (alive.size() != alive_hosts.size()) {
    return InvalidArgument("duplicate host in survivor list");
  }
  std::unordered_set<int> current;
  for (const auto& rank : ranks_) current.insert(rank->endpoint.host_id);
  for (int host : alive_hosts) {
    if (current.count(host) == 0) {
      return InvalidArgument(StrCat("host ", host, " is not a member of this group"));
    }
  }

  // Drop dead ranks. Destroying a rank's device unbinds its endpoint and
  // takes down both ends of the survivors' RPC connections to it (their
  // channel wrappers stay, and are never used again). The quiesce
  // precondition guarantees no scheduled closure still references the device.
  std::vector<std::unique_ptr<Rank>> survivors;
  for (auto& rank : ranks_) {
    if (alive.count(rank->endpoint.host_id) > 0) {
      survivors.push_back(std::move(rank));
    } else {
      rank->device->DropPendingCallbacks();
    }
  }
  ranks_ = std::move(survivors);

  // Same layout and provisioning as Init, for the smaller membership:
  // re-derive the rack grouping (a whole rack may have died; the
  // hierarchical leader of each surviving rack is its first surviving member
  // by position) and rerun the shared layout. chunk_cap grows as n shrinks
  // (ceil), so the slot area can be *larger* per rank than before — slots
  // and flags are reallocated; data buffers persist.
  BuildRacks(hosts());
  ComputeLayout(size());
  RDMADL_RETURN_IF_ERROR(ProvisionRanks(hosts()));

  ++stats_.reconfigurations;
  sim::TraceInstant("collective", simulator()->Now(), "reconfigured to ", size(), " ranks");
  return OkStatus();
}

bool CollectiveGroup::StartLanes(const std::shared_ptr<Op>& op, int lanes, int units_per_lane) {
  op->lanes.resize(lanes);
  int active_lanes = 0;
  for (int l = 0; l < lanes; ++l) {
    op->lanes[l] = SplitRange(op->count, lanes, l);
    if (op->lanes[l].count > 0) active_lanes++;
  }
  op->pending_units = active_lanes * units_per_lane;
  if (op->pending_units == 0) {
    Finish(op);
    return false;
  }
  return true;
}

void CollectiveGroup::FinishUnit(const std::shared_ptr<Op>& op) {
  if (op->finished) return;
  CHECK_GT(op->pending_units, 0);
  if (--op->pending_units == 0) Finish(op);
}

// ---------------------------------------------------------------------------
// Chunk post: payload then trailing flag, over either transport.

void CollectiveGroup::PostChunk(const std::shared_ptr<Op>& op, int src_rank, int dst_rank,
                                int qp_lane, uint64_t local_addr, uint32_t local_lkey,
                                uint64_t remote_addr, uint32_t remote_rkey, uint64_t bytes,
                                int flag_index) {
  if (op->finished) return;
  Rank* src = ranks_[src_rank].get();
  Rank* dst = ranks_[dst_rank].get();
  stats_.ring_steps++;
  stats_.bytes_sent += bytes;

  if (options_.transport == Transport::kRdmaZeroCopy) {
    // Payload then flag through the shared transfer engine. On the direct
    // path the flag trails the payload on the same QP (RC FIFO ordering plus
    // ascending-address delivery make it the last byte to land, §3.2); on the
    // striped path the engine posts the flag only after every stripe's
    // completion, which preserves the same contract. The 1-byte flag source
    // is the constant at the tail of the flag block, so the delivery-time
    // read can never observe a stale staging value.
    const Rank::PeerAddrs& peer = src->peers[dst_rank];
    comm::TransferEngine::WriteDesc payload;
    payload.local_addr = reinterpret_cast<void*>(local_addr);
    payload.lkey = local_lkey;
    payload.remote_addr = remote_addr;
    payload.rkey = remote_rkey;
    payload.bytes = bytes;
    payload.copy_bytes = options_.materialize;
    comm::TransferEngine::WriteDesc flag;
    flag.local_addr = src->flags() + flag_capacity_;
    flag.lkey = src->flag_region.lkey();
    flag.remote_addr = peer.flags.addr + flag_index;
    flag.rkey = peer.flags.rkey;
    flag.bytes = 1;
    flag.copy_bytes = true;
    src->engine->WriteWithFlag(dst->endpoint, payload, flag, qp_lane,
                               [this, op](const Status& status) {
                                 if (!status.ok()) Fail(op, status);
                               });
    return;
  }

  // TCP staging path: gRPC-style dispatch + serialize on the sender, TCP
  // stream on the wire, deserialize + staging copy into the destination on
  // the receiver, then the receiver-side completion sets the flag byte. Same
  // ring schedule, so benchmarks isolate the transport effect.
  const net::StagedCopyNs staged = net::StagedCopyCost(cost(), bytes);
  net::Fabric* fabric = directory_->rdma_fabric()->fabric();
  const bool copy = options_.materialize && bytes > 0;
  fabric->Transfer(
      src->endpoint.host_id, dst->endpoint.host_id, std::max<uint64_t>(bytes, 1),
      net::Plane::kTcp, staged.sender, nullptr,
      [this, op, dst, local_addr, remote_addr, bytes, flag_index, receiver_ns = staged.receiver,
       copy](Status status) {
        if (op->finished) return;
        if (!status.ok()) {
          Fail(op, status);
          return;
        }
        simulator()->ScheduleAfter(receiver_ns, [op, dst, local_addr, remote_addr, bytes,
                                                 flag_index, copy] {
          if (op->finished) return;
          if (copy) {
            // Source values are read at delivery time; the schedules only
            // ever post a chunk whose source is final (the causal chain that
            // triggers any later write to it runs through this delivery).
            std::memcpy(reinterpret_cast<void*>(remote_addr),
                        reinterpret_cast<const void*>(local_addr), bytes);
          }
          dst->flags()[flag_index] = 1;
          check::OnFlagSetLocally(dst->endpoint.host_id, dst->flags() + flag_index,
                                  dst->device->simulator()->Now());
        });
      });
}

// ---------------------------------------------------------------------------
// Flag pollers.

void CollectiveGroup::StartWaiter(const std::shared_ptr<Op>& op, int rank, int flag_base,
                                  int num_flags,
                                  std::function<void(int, std::function<void()>)> on_arrival) {
  if (num_flags == 0) {
    FinishUnit(op);
    return;
  }
  auto waiter = std::make_shared<Waiter>();
  waiter->group = this;
  waiter->op = op;
  waiter->rank = rank;
  waiter->flag_base = flag_base;
  waiter->num_flags = num_flags;
  waiter->on_arrival = std::move(on_arrival);
  ArmWaiter(waiter);
}

void CollectiveGroup::ArmWaiter(const std::shared_ptr<Waiter>& waiter) {
  // Jittered: poll cadence is scheduling noise, fair game for the explorer.
  simulator()->ArmPoll(waiter->PollDelay(), waiter.get(), /*tag=*/0, /*jittered=*/true, waiter);
}

int64_t CollectiveGroup::Waiter::PollDelay() const {
  int64_t delay = group->cost().flag_poll_cost_ns;
  if (misses > 0) delay += net::IdlePollBackoffNs(group->cost(), misses - 1);
  return delay;
}

sim::Poller::Result CollectiveGroup::Waiter::Tick(uint64_t /*tag*/) {
  if (op->finished) return kFired;
  Rank* r = group->ranks_[rank].get();
  if (!check::PollFlag(r->endpoint.host_id, r->flags() + flag_base + next,
                       group->simulator()->Now())) {
    ++misses;
    // At the backoff cap, with no checker to tell each poll to, the next
    // poll misses the same way until something else runs.
    const net::CostModel& cost = group->cost();
    return {PollDelay(), check::RdmaCheck::Current() == nullptr &&
                             net::IdlePollBackoffNs(cost, misses) ==
                                 net::IdlePollBackoffNs(cost, misses - 1)};
  }
  misses = 0;
  on_arrival(next, [self = shared_from_this()] {
    if (self->op->finished) return;
    if (++self->next == self->num_flags) {
      self->group->FinishUnit(self->op);
      return;
    }
    self->group->ArmWaiter(self);
  });
  return kFired;
}

void CollectiveGroup::Waiter::Skipped(uint64_t /*tag*/, uint64_t n) {
  misses += static_cast<int>(n);
}

}  // namespace collective
}  // namespace rdmadl
