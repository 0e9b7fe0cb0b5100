#include "src/net/switch_reduce.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/check/rdma_check.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace net {

SwitchReduceStage::SwitchReduceStage(Fabric* fabric, Topology* topology)
    : fabric_(fabric), topology_(topology) {
  rack_engine_free_.assign(topology_->num_racks(), 0);
}

int64_t SwitchReduceStage::EngineAluNs(uint64_t bytes) const {
  const TopologyConfig& config = topology_->config();
  return std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(std::max<uint64_t>(bytes, 1)) /
                              config.switch_reduce_bytes_per_sec * 1e9));
}

void SwitchReduceStage::AllReduceChunk(const std::vector<int>& hosts, uint64_t bytes,
                                       std::function<void(int rack_ordinal)> rack_partial,
                                       std::function<void()> aggregated,
                                       std::function<void(int host)> deliver,
                                       std::function<void(Status)> complete) {
  sim::Simulator* simulator = fabric_->simulator();
  const CostModel& cost = fabric_->cost();
  const TopologyConfig& config = topology_->config();
  const int64_t now = simulator->Now();
  ++windows_;

  // Fail-stop contributors poison the whole window: the switch engine counts
  // contributions per window and a missing stream stalls it until the control
  // plane tears the group down. Surface that as an immediate typed failure
  // after one propagation latency, mirroring Fabric::Transfer's refusal path.
  if (sim::FaultInjector* fault = fabric_->fault_injector()) {
    for (int h : hosts) {
      if (fault->HostDead(h, now)) {
        sim::TraceInstant("fault", now, "switch-reduce refused: host", h, " crashed");
        if (complete) {
          simulator->ScheduleAt(
              now + cost.rdma_one_way_latency_ns,
              [h, complete_cb = std::move(complete)]() {
                complete_cb(
                    Unavailable(StrCat("host", h, " crashed")).WithFailedHost(h));
              });
        }
        return;
      }
    }
  }

  const int64_t host_wire_ns = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(std::max<uint64_t>(bytes, 1)) /
                              cost.rdma_bandwidth_bytes_per_sec * 1e9));
  const int64_t hop_wire_ns = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(std::max<uint64_t>(bytes, 1)) /
                              (cost.rdma_bandwidth_bytes_per_sec *
                               topology_->shared_bandwidth_scale()) *
                              1e9));
  const int64_t alu_ns = EngineAluNs(bytes);

  // Group the contributors by rack, ascending rack id, members in the
  // caller's order. Participating-rack ordinal (not global rack id) indexes
  // the rack_partial callback so callers can keep dense partial buffers.
  std::vector<int> rack_ids;
  std::vector<std::vector<int>> members;
  for (int h : hosts) {
    const int rack = topology_->rack_of(h);
    auto it = std::lower_bound(rack_ids.begin(), rack_ids.end(), rack);
    const size_t pos = static_cast<size_t>(it - rack_ids.begin());
    if (it == rack_ids.end() || *it != rack) {
      rack_ids.insert(it, rack);
      members.insert(members.begin() + static_cast<long>(pos), std::vector<int>());
    }
    members[pos].push_back(h);
  }
  const int num_racks = static_cast<int>(rack_ids.size());

  // Phase 1: every contributor streams its window up to its ToR engine. The
  // engine is a serialization point: it folds one stream at a time, in the
  // order streams become available at the switch.
  std::vector<int64_t> rack_done(num_racks, 0);
  for (int rk = 0; rk < num_racks; ++rk) {
    const int rack = rack_ids[rk];
    std::vector<int64_t> arrivals;
    arrivals.reserve(members[rk].size());
    for (int h : members[rk]) {
      const int64_t egress_done = fabric_->host(h)->egress().Reserve(now, host_wire_ns);
      const int64_t uplink_done =
          topology_->rack_uplink(rack)->Reserve(egress_done, hop_wire_ns);
      arrivals.push_back(uplink_done + cost.rdma_one_way_latency_ns);
    }
    // Fold in arrival order: the engine starts on whichever stream lands
    // first. Stable sort keeps ties in member order for determinism.
    std::stable_sort(arrivals.begin(), arrivals.end());
    int64_t engine_free = rack_engine_free_[rack];
    for (int64_t arrival : arrivals) {
      engine_free = std::max(engine_free, arrival) + alu_ns;
    }
    engine_free += config.switch_engine_latency_ns;  // Pipeline drain.
    rack_engine_free_[rack] = engine_free;
    rack_done[rk] = engine_free;
    if (rack_partial) {
      simulator->ScheduleAt(engine_free, [rk, rack_partial]() { rack_partial(rk); });
    }
  }

  // Phase 2: rack partials cross their uplinks to the spine aggregator. With
  // a single participating rack the ToR partial already is the global sum.
  int64_t global_done;
  if (num_racks > 1) {
    std::vector<int64_t> partial_arrivals;
    partial_arrivals.reserve(static_cast<size_t>(num_racks));
    for (int rk = 0; rk < num_racks; ++rk) {
      const int64_t up_done =
          topology_->rack_uplink(rack_ids[rk])->Reserve(rack_done[rk], hop_wire_ns);
      partial_arrivals.push_back(up_done + config.per_hop_latency_ns);
    }
    std::stable_sort(partial_arrivals.begin(), partial_arrivals.end());
    int64_t engine_free = spine_engine_free_;
    for (int64_t arrival : partial_arrivals) {
      engine_free = std::max(engine_free, arrival) + alu_ns;
    }
    engine_free += config.switch_engine_latency_ns;
    spine_engine_free_ = engine_free;
    global_done = engine_free;
  } else {
    global_done = rack_done.empty() ? now : rack_done[0];
  }
  if (aggregated) {
    simulator->ScheduleAt(global_done, [aggregated]() { aggregated(); });
  }

  // Phase 3: the reduced window streams back down every participating rack
  // to every contributor. Deliveries are independent per host; the rack
  // downlink and the host ingress are the serialization points. Each
  // delivery is visible to the protocol checker as a one-segment transfer
  // from the fabric itself (src_host = -1: the data leaves a switch engine,
  // not a peer host), keeping ascending-address validation live on this
  // path.
  struct Fanout {
    std::function<void(int host)> deliver;
    std::function<void(Status)> complete;
    size_t remaining = 0;
  };
  auto fanout = std::make_shared<Fanout>();
  fanout->deliver = std::move(deliver);
  fanout->complete = std::move(complete);
  fanout->remaining = hosts.size();
  if (fanout->remaining == 0) {
    if (fanout->complete) {
      simulator->ScheduleAt(global_done,
                            [fanout]() { fanout->complete(OkStatus()); });
    }
    return;
  }
  for (int rk = 0; rk < num_racks; ++rk) {
    const int rack = rack_ids[rk];
    const int64_t spine_to_rack =
        num_racks > 1 ? global_done + config.per_hop_latency_ns : global_done;
    for (int h : members[rk]) {
      const int64_t down_done =
          topology_->rack_downlink(rack)->Reserve(spine_to_rack, hop_wire_ns);
      const int64_t ingress_done =
          fabric_->host(h)->ingress().Reserve(down_done, host_wire_ns);
      const int64_t deliver_at = ingress_done + cost.rdma_one_way_latency_ns;
      const uint64_t check_id = check::OnTransferStarted(-1, h, bytes, now);
      simulator->ScheduleAt(deliver_at, [h, bytes, check_id, deliver_at, fanout]() {
        if (bytes > 0) check::OnTransferSegment(check_id, 0, bytes, deliver_at);
        check::OnTransferFinished(check_id);
        if (fanout->deliver) fanout->deliver(h);
        if (--fanout->remaining == 0 && fanout->complete) {
          fanout->complete(OkStatus());
        }
      });
    }
  }
}

}  // namespace net
}  // namespace rdmadl
