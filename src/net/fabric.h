// Simulated cluster fabric: hosts connected by a full-bisection network.
//
// Each host has one egress and one ingress link; a transfer occupies the
// source egress and destination ingress for bytes/bandwidth seconds (split
// into segments of one MTU, or of bytes/64 above 64 MTUs, so concurrent
// transfers share bandwidth fairly), then lands after the plane's one-way
// latency. Both the RDMA plane and the TCP plane run over the same physical
// links but with different effective bandwidths and latencies from the
// CostModel.
#ifndef RDMADL_SRC_NET_FABRIC_H_
#define RDMADL_SRC_NET_FABRIC_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/net/congestion.h"
#include "src/net/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/util/logging.h"
#include "src/util/status.h"

namespace rdmadl {
namespace net {

struct TopologyConfig;
class Topology;
class SwitchReduceStage;

namespace internal {
struct TransferProgress;
}  // namespace internal

// A unidirectional serialization point (a NIC port direction). Transfers
// reserve time on the link; the link hands back the completion time.
class Link {
 public:
  explicit Link(std::string name) : name_(std::move(name)) {}

  // Reserves |duration_ns| of link time starting no earlier than |now|.
  // Returns the time at which the reserved slot *ends*. A slot may not start
  // inside a down window: the reservation queues until the link recovers.
  // (Slots already started when a window opens are allowed to finish —
  // in-flight packets are not clawed back.)
  int64_t Reserve(int64_t now, int64_t duration_ns) {
    const int64_t start = AvailableAt(std::max(now, next_free_ns_));
    next_free_ns_ = start + duration_ns;
    busy_ns_total_ += duration_ns;
    return next_free_ns_;
  }

  // Marks the link unusable in [from_ns, until_ns): reservations queue past
  // the window. Overlapping (or touching) windows are coalesced at insert, so
  // the vector stays minimal under chaos schedules that flap a link for an
  // entire run and AvailableAt can treat the windows as disjoint. Installed
  // by Fabric::SetFaultInjector.
  void AddDownWindow(int64_t from_ns, int64_t until_ns) {
    if (until_ns <= from_ns) return;
    // Every existing window that ends at/after our start and starts at/before
    // our end overlaps (or touches) the new one; merge the whole run.
    auto first = std::lower_bound(
        down_windows_.begin(), down_windows_.end(), from_ns,
        [](const std::pair<int64_t, int64_t>& w, int64_t t) { return w.second < t; });
    auto last = first;
    while (last != down_windows_.end() && last->first <= until_ns) {
      from_ns = std::min(from_ns, last->first);
      until_ns = std::max(until_ns, last->second);
      ++last;
    }
    down_windows_.insert(down_windows_.erase(first, last), {from_ns, until_ns});
  }

  // Earliest time >= |t| at which the link is up. The windows are sorted and
  // disjoint (coalesced at insert), so |t| can fall inside at most one:
  // binary-search it instead of scanning — this is on every Reserve, which
  // at 1000 hosts under chaos seeds dominates the fabric's hot path.
  int64_t AvailableAt(int64_t t) const {
    auto it = std::upper_bound(
        down_windows_.begin(), down_windows_.end(), t,
        [](int64_t t, const std::pair<int64_t, int64_t>& w) { return t < w.first; });
    if (it == down_windows_.begin()) return t;
    --it;
    return t < it->second ? it->second : t;
  }

  // Bounds this link's queue. All values are in wire time (Fabric converts
  // CongestionConfig's byte thresholds using the link's bandwidth). Zero
  // capacity and threshold leave the link unbounded and unmarked — Admit then
  // behaves exactly like Reserve.
  void ConfigureCongestion(int64_t capacity_ns, int64_t ecn_threshold_ns,
                           bool pause_on_overflow, int64_t pause_ns) {
    capacity_ns_ = capacity_ns;
    ecn_threshold_ns_ = ecn_threshold_ns;
    pause_on_overflow_ = pause_on_overflow;
    pause_ns_ = pause_ns;
  }

  struct Admission {
    int64_t done_ns = 0;  // Slot end; for a drop, where the slot would have started.
    bool ecn = false;     // Queue stood above the ECN threshold at enqueue.
    bool dropped = false; // Queue was full (drop policy): nothing was reserved.
  };

  // Reserve with queue accounting: the backlog is the wire time between |now|
  // (the packet's arrival at the queue) and the earliest slot start. Above the
  // ECN threshold the admission is marked; above capacity it is either tail
  // dropped (nothing reserved) or, under the pause policy, the link opens a
  // pause window at the end of the backlog — upstream stalls, the queue
  // drains, nothing is lost. Pause windows go through AddDownWindow and so
  // coalesce with fault-injected down windows.
  Admission Admit(int64_t now, int64_t duration_ns) {
    Admission adm;
    if (capacity_ns_ > 0 || ecn_threshold_ns_ > 0) {
      const int64_t start = AvailableAt(std::max(now, next_free_ns_));
      const int64_t backlog = start - now;
      if (backlog > cstats_.peak_backlog_ns) cstats_.peak_backlog_ns = backlog;
      if (capacity_ns_ > 0 && backlog > capacity_ns_) {
        if (!pause_on_overflow_) {
          ++cstats_.overflow_drops;
          adm.dropped = true;
          adm.done_ns = start;
          return adm;
        }
        ++cstats_.pause_windows;
        cstats_.paused_ns_total += pause_ns_;
        AddDownWindow(start, start + pause_ns_);
      }
      if (ecn_threshold_ns_ > 0 && backlog >= ecn_threshold_ns_) {
        ++cstats_.ecn_marks;
        adm.ecn = true;
      }
    }
    adm.done_ns = Reserve(now, duration_ns);
    return adm;
  }

  // True when this link's queue is bounded or marking (Admit != Reserve).
  bool congested() const { return capacity_ns_ > 0 || ecn_threshold_ns_ > 0; }

  int64_t next_free_ns() const { return next_free_ns_; }
  int64_t busy_ns_total() const { return busy_ns_total_; }
  const std::string& name() const { return name_; }
  const CongestionStats& congestion_stats() const { return cstats_; }

 private:
  std::string name_;
  int64_t next_free_ns_ = 0;
  int64_t busy_ns_total_ = 0;  // For utilization accounting.
  // Congestion bounds (wire-time units); zero = unbounded, see Admit.
  int64_t capacity_ns_ = 0;
  int64_t ecn_threshold_ns_ = 0;
  bool pause_on_overflow_ = false;
  int64_t pause_ns_ = 0;
  CongestionStats cstats_;
  std::vector<std::pair<int64_t, int64_t>> down_windows_;  // Sorted by start.
};

// One simulated server.
class Host {
 public:
  Host(int id, sim::Simulator* simulator, const CostModel* cost);

  int id() const { return id_; }
  sim::Simulator* simulator() const { return simulator_; }
  const CostModel& cost() const { return *cost_; }

  Link& egress() { return egress_; }
  Link& ingress() { return ingress_; }
  // The loopback path has its own serialization point so same-host traffic
  // does not contend with the wire.
  Link& loopback() { return loopback_; }
  // PCIe link to the (simulated) GPU, used for staging copies and GDR.
  Link& pcie() { return pcie_; }

 private:
  int id_;
  sim::Simulator* simulator_;
  const CostModel* cost_;
  Link egress_;
  Link ingress_;
  Link loopback_;
  Link pcie_;
};

// Which plane a transfer runs on; selects bandwidth/latency constants.
enum class Plane { kRdma, kTcp };

// A byte range [offset, offset + length) of one transfer's stream.
struct StreamRange {
  uint64_t offset = 0;
  uint64_t length = 0;
};

struct TransferStats {
  uint64_t transfers = 0;
  uint64_t bytes = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulator* simulator, const CostModel& cost, int num_hosts);
  // Builds a hierarchical rack/spine fabric when |topology| is hierarchical;
  // a default (flat) config is byte-identical to the three-arg constructor.
  Fabric(sim::Simulator* simulator, const CostModel& cost, int num_hosts,
         const TopologyConfig& topology);
  ~Fabric();

  Host* host(int id) {
    CHECK_GE(id, 0);
    CHECK_LT(id, static_cast<int>(hosts_.size()));
    return hosts_[id].get();
  }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  sim::Simulator* simulator() const { return simulator_; }
  const CostModel& cost() const { return cost_; }

  // Moves |bytes| from |src| to |dst| on |plane|. Bytes are delivered in
  // ascending offset order: |on_chunk| (optional) fires once per delivered
  // segment with (offset, length); |on_complete| fires when the last segment
  // has landed (OkStatus), or when a fault kills the transfer (kUnavailable;
  // the ascending prefix that already landed stays delivered). The transfer
  // starts after |initiation_delay_ns| of sender-side processing (e.g. NIC
  // WQE fetch) from the current virtual time.
  //
  // |observed| names the stream ranges someone can see land (bytes copied
  // into memory, flag bytes), in ascending offset order; it is read only
  // during the call. A segment
  // overlapping one of them gets |on_chunk| at its own delivery time. Any
  // other segment may be delivered together with the transfer's next
  // delivery event, in order and never before its own time — so an
  // |on_chunk| that only advances unobserved bookkeeping sees the same
  // sequence of calls, just not at distinct instants. Completion, failure
  // and ECN feedback always keep their own times, and with an RdmaCheck or
  // a SchedulePolicy installed every segment is its own event.
  //
  // |on_ecn| (optional) fires once per delivered segment that was ECN-marked
  // by a congested queue on its path, at the segment's delivery time — the
  // hook the RDMA layer uses to generate CNPs back to the sending QP. Never
  // fires for dropped segments (a lost packet carries no mark home) and never
  // fires on a fabric whose CongestionConfig is disabled.
  void Transfer(int src, int dst, uint64_t bytes, Plane plane, int64_t initiation_delay_ns,
                std::function<void(uint64_t offset, uint64_t length)> on_chunk,
                std::function<void(Status)> on_complete,
                std::function<void(int64_t deliver_ns)> on_ecn = nullptr,
                std::span<const StreamRange> observed = {});

  // Attaches a fault injector (nullptr to detach). Down windows configured on
  // the injector are installed onto the hosts' egress/ingress links at attach
  // time, so configure the injector fully before attaching. With no injector
  // the fabric consumes no randomness and behaves exactly as before.
  void SetFaultInjector(sim::FaultInjector* injector);
  sim::FaultInjector* fault_injector() const { return fault_; }

  const TransferStats& stats(Plane plane) const {
    return plane == Plane::kRdma ? rdma_stats_ : tcp_stats_;
  }

  // Null for flat fabrics.
  Topology* topology() const { return topology_.get(); }
  // Null unless the topology is hierarchical with switch_reduce enabled.
  SwitchReduceStage* switch_reduce() const { return switch_reduce_.get(); }

  // The congestion model this fabric was built with (all-zero = disabled).
  // Works on flat fabrics too: incast is a host-ingress pathology and needs
  // no racks. The RDMA layer reads dcqcn parameters from here.
  const CongestionConfig& congestion() const { return congestion_; }
  // Congestion counters summed over every host port and shared topology link.
  CongestionStats congestion_totals() const;

 private:
  friend struct internal::TransferProgress;

  // Bulk transfers recycle their per-transfer progress blocks through a
  // fabric-owned freelist instead of new/delete per transfer: at 1000 hosts
  // the allocator churn in Transfer dominates simulator throughput. Blocks
  // keep their segment-vector capacity across reuse.
  internal::TransferProgress* AcquireProgress();
  void RecycleProgress(internal::TransferProgress* progress);

  sim::Simulator* simulator_;
  CostModel cost_;
  CongestionConfig congestion_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unique_ptr<Topology> topology_;  // Null for flat fabrics.
  std::unique_ptr<SwitchReduceStage> switch_reduce_;  // Null unless enabled.
  sim::FaultInjector* fault_ = nullptr;  // Not owned.
  TransferStats rdma_stats_;
  TransferStats tcp_stats_;
  std::vector<std::unique_ptr<internal::TransferProgress>> progress_pool_;
  std::vector<internal::TransferProgress*> progress_free_;
};

}  // namespace net
}  // namespace rdmadl

#endif  // RDMADL_SRC_NET_FABRIC_H_
