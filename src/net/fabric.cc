#include "src/net/fabric.h"

#include <algorithm>
#include <utility>

#include "src/check/rdma_check.h"
#include "src/net/switch_reduce.h"
#include "src/net/topology.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace net {

namespace internal {

// Shared state for one bulk transfer's delivery events. Plain pointer, not
// a shared_ptr: each event closure captures only {TransferProgress*, first
// segment, last segment} — 16 trivially-copyable bytes, which fits
// std::function's inline buffer — so scheduling an event allocates nothing.
// An event delivers the segments folded into it (see Fabric::Transfer) and
// then its own. Blocks are owned and recycled by the Fabric (its progress
// freelist); the last event to fire hands the block back.
struct TransferProgress {
  struct Segment {
    uint64_t offset = 0;
    uint64_t length = 0;  // 0 for dropped or zero-payload segments.
    int64_t deliver_at = 0;
    bool dropped = false;
    bool ecn = false;  // Marked CE by a congested queue on the path.
  };
  Fabric* fabric = nullptr;
  uint64_t delivered = 0;
  uint64_t total_bytes = 0;
  uint64_t check_id = 0;
  int src = 0;
  int dst = 0;
  uint32_t events = 0;  // Delivery events scheduled.
  uint32_t fired = 0;
  std::vector<Segment> segments;
  std::function<void(uint64_t, uint64_t)> on_chunk;
  std::function<void(Status)> on_complete;
  std::function<void(int64_t)> on_ecn;

  // Clears per-transfer state for reuse; keeps segment-vector capacity.
  void Reset() {
    delivered = 0;
    total_bytes = 0;
    check_id = 0;
    src = 0;
    dst = 0;
    events = 0;
    fired = 0;
    segments.clear();
    on_chunk = nullptr;
    on_complete = nullptr;
    on_ecn = nullptr;
  }

  // The event of segment |last|: delivers segments [first, last] in order.
  void Deliver(uint32_t first, uint32_t last);
  void DeliverSegment(const Segment& seg);
};

void TransferProgress::Deliver(uint32_t first, uint32_t last) {
  for (uint32_t i = first; i <= last; ++i) DeliverSegment(segments[i]);
  if (++fired == events) fabric->RecycleProgress(this);
}

void TransferProgress::DeliverSegment(const Segment& seg) {
  if (seg.dropped) {
    // A lost segment truncates the transfer: the in-order transport delivers
    // nothing past the gap, so earlier segments land normally and the
    // completion (fired at the lost segment's delivery time, when the
    // sender's retransmission timer would notice) carries the failure. A
    // retry rewrites from offset 0, preserving the ascending-prefix invariant
    // receivers rely on.
    check::OnTransferFinished(check_id);
    if (on_complete) {
      auto complete = std::move(on_complete);
      on_complete = nullptr;
      complete(Unavailable(
          StrCat("segment lost on host", src, "->host", dst, " at offset ", seg.offset)));
    }
  } else {
    if (seg.length > 0) {
      check::OnTransferSegment(check_id, seg.offset, seg.length, seg.deliver_at);
      if (on_chunk) on_chunk(seg.offset, seg.length);
    }
    // ECN feedback rides the delivered packet: the receiving NIC sees the CE
    // mark now and (one CNP-moderated hop later) the sender reacts.
    if (seg.ecn && on_ecn) on_ecn(seg.deliver_at);
    delivered += seg.length;
    if (delivered >= total_bytes) {
      check::OnTransferFinished(check_id);
      if (on_complete) {
        auto complete = std::move(on_complete);
        on_complete = nullptr;
        complete(OkStatus());
      }
    }
  }
}

}  // namespace internal

Host::Host(int id, sim::Simulator* simulator, const CostModel* cost)
    : id_(id),
      simulator_(simulator),
      cost_(cost),
      egress_(StrCat("host", id, ".egress")),
      ingress_(StrCat("host", id, ".ingress")),
      loopback_(StrCat("host", id, ".loopback")),
      pcie_(StrCat("host", id, ".pcie")) {}

Fabric::Fabric(sim::Simulator* simulator, const CostModel& cost, int num_hosts)
    : Fabric(simulator, cost, num_hosts, TopologyConfig()) {}

Fabric::Fabric(sim::Simulator* simulator, const CostModel& cost, int num_hosts,
               const TopologyConfig& topology)
    : simulator_(simulator), cost_(cost), congestion_(topology.congestion) {
  CHECK_GT(num_hosts, 0);
  if (topology.hierarchical()) {
    topology_ = std::make_unique<Topology>(topology, num_hosts);
    if (topology.switch_reduce) {
      switch_reduce_ = std::make_unique<SwitchReduceStage>(this, topology_.get());
    }
  }
  hosts_.reserve(num_hosts);
  for (int i = 0; i < num_hosts; ++i) {
    hosts_.push_back(std::make_unique<Host>(i, simulator, &cost_));
  }
  if (congestion_.enabled()) {
    // Byte thresholds become per-link wire time at host-port bandwidth, so
    // every queue bounds the same queuing *delay*: shared rack/spine links
    // (N× the bandwidth) implicitly hold N× the bytes, as their fatter
    // buffers would. Loopback and PCIe stay unbounded — congestion is a
    // network phenomenon here, not a memory-bus one.
    const double bw = cost_.rdma_bandwidth_bytes_per_sec;
    auto to_ns = [bw](uint64_t bytes) -> int64_t {
      if (bytes == 0) return 0;
      return std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(bytes) / bw * 1e9));
    };
    const int64_t cap_ns = to_ns(congestion_.queue_capacity_bytes);
    const int64_t ecn_ns = to_ns(congestion_.ecn_threshold_bytes);
    auto configure = [&](Link& link) {
      link.ConfigureCongestion(cap_ns, ecn_ns, congestion_.pause_on_overflow,
                               congestion_.pause_ns);
    };
    for (auto& host : hosts_) {
      configure(host->egress());
      configure(host->ingress());
    }
    if (topology_ != nullptr) {
      for (int r = 0; r < topology_->num_racks(); ++r) {
        configure(*topology_->rack_uplink(r));
        configure(*topology_->rack_downlink(r));
      }
      for (int s = 0; s < topology_->num_spine_links(); ++s) {
        configure(*topology_->spine_link(s));
      }
    }
  }
}

Fabric::~Fabric() = default;

CongestionStats Fabric::congestion_totals() const {
  CongestionStats totals;
  for (const auto& host : hosts_) {
    totals.MergeFrom(host->egress().congestion_stats());
    totals.MergeFrom(host->ingress().congestion_stats());
  }
  if (topology_ != nullptr) {
    for (int r = 0; r < topology_->num_racks(); ++r) {
      totals.MergeFrom(topology_->rack_uplink(r)->congestion_stats());
      totals.MergeFrom(topology_->rack_downlink(r)->congestion_stats());
    }
    for (int s = 0; s < topology_->num_spine_links(); ++s) {
      totals.MergeFrom(topology_->spine_link(s)->congestion_stats());
    }
  }
  return totals;
}

internal::TransferProgress* Fabric::AcquireProgress() {
  if (progress_free_.empty()) {
    progress_pool_.push_back(std::make_unique<internal::TransferProgress>());
    progress_pool_.back()->fabric = this;
    return progress_pool_.back().get();
  }
  internal::TransferProgress* progress = progress_free_.back();
  progress_free_.pop_back();
  return progress;
}

void Fabric::RecycleProgress(internal::TransferProgress* progress) {
  progress->Reset();
  progress_free_.push_back(progress);
}

void Fabric::SetFaultInjector(sim::FaultInjector* injector) {
  fault_ = injector;
  if (injector == nullptr) return;
  for (auto& host : hosts_) {
    for (const sim::DownWindow& w : injector->down_windows(host->id())) {
      host->egress().AddDownWindow(w.from_ns, w.until_ns);
      host->ingress().AddDownWindow(w.from_ns, w.until_ns);
      sim::TraceSpan("fault", w.from_ns, w.until_ns, "host", host->id(), " link down");
    }
  }
  for (const auto& [host_id, at_ns] : injector->crash_times()) {
    sim::TraceInstant("fault", at_ns, "host", host_id, " crash");
  }
}

void Fabric::Transfer(int src, int dst, uint64_t bytes, Plane plane,
                      int64_t initiation_delay_ns,
                      std::function<void(uint64_t, uint64_t)> on_chunk,
                      std::function<void(Status)> on_complete,
                      std::function<void(int64_t)> on_ecn,
                      std::span<const StreamRange> observed) {
  Host* src_host = host(src);
  Host* dst_host = host(dst);

  const bool loopback = (src == dst);
  double bandwidth;
  int64_t latency;
  if (loopback) {
    bandwidth = cost_.loopback_bandwidth_bytes_per_sec;
    latency = cost_.loopback_latency_ns;
  } else if (plane == Plane::kRdma) {
    bandwidth = cost_.rdma_bandwidth_bytes_per_sec;
    latency = cost_.rdma_one_way_latency_ns;
  } else {
    bandwidth = cost_.tcp_bandwidth_bytes_per_sec;
    latency = cost_.tcp_one_way_latency_ns;
  }

  // With a hierarchical topology, inter-rack transfers cross extra switches
  // (latency) and contend for the shared rack-uplink/spine/rack-downlink
  // serialization points (reserved per chunk below). Intra-rack and loopback
  // traffic, and every transfer on a flat fabric, take the original path.
  Topology::Hop hops[3];
  int num_hops = 0;
  double shared_bandwidth = bandwidth;
  if (topology_ != nullptr && !loopback) {
    latency += topology_->ExtraLatencyNs(src, dst);
    num_hops = topology_->PathHops(src, dst, hops);
    shared_bandwidth = bandwidth * topology_->shared_bandwidth_scale();
  }

  TransferStats& stats = (plane == Plane::kRdma) ? rdma_stats_ : tcp_stats_;
  ++stats.transfers;
  stats.bytes += bytes;

  const int64_t now = simulator_->Now() + initiation_delay_ns;

  // Shadow id for the checker's per-transfer ascending-address tracking
  // (0 when no checker is installed; every downstream hook no-ops on 0).
  const uint64_t check_id = check::OnTransferStarted(src, dst, bytes, simulator_->Now());

  if (fault_ != nullptr) {
    // Fail-stop hosts: the transfer is refused after one propagation latency
    // (the initiator learns nothing arrived), never silently swallowed, so
    // callers waiting on completion always make progress.
    const int dead = fault_->FirstDeadHost(src, dst, now);
    if (dead >= 0) {
      sim::TraceInstant("fault", now, "transfer refused: host", dead, " crashed");
      check::OnTransferFinished(check_id);
      if (on_complete) {
        simulator_->ScheduleAt(
            now + latency, [dead, complete_cb = std::move(on_complete)]() {
              complete_cb(
                  Unavailable(StrCat("host", dead, " crashed")).WithFailedHost(dead));
            });
      }
      return;
    }
    const int64_t spike_ns = fault_->DrawSpikeNs(src, dst);
    if (spike_ns > 0) {
      sim::TraceInstant("fault", now, "latency spike +", spike_ns, "ns host", src, "->host", dst);
      latency += spike_ns;
    }
    // Straggler-knob link jitter: a small per-transfer latency wobble, drawn
    // only when the knob is configured so existing seeds keep their exact
    // random-draw order (and thus byte-identical traces).
    latency += fault_->DrawJitterNs(src, dst);
  }

  // Segment size: MTU-sized for small transfers (fine-grained partial
  // visibility for the flag-byte protocol), scaled up for very large ones so
  // one transfer is about 64 segments of link arithmetic. Ascending-order
  // delivery semantics are identical either way; how many of the segments
  // cost a delivery event is decided after the loop below.
  constexpr uint64_t kMaxChunksPerTransfer = 64;
  const uint64_t chunk_size =
      std::max<uint64_t>(cost_.rdma_mtu_bytes, bytes / kMaxChunksPerTransfer);

  // Sub-MTU messages (flag bytes, metadata blocks, RPC control frames) do not
  // serialize behind queued bulk transfers: a real NIC interleaves packets of
  // different QPs, so a one-byte write never waits for hundreds of megabytes
  // of unrelated traffic to drain. They pay their own wire time + latency —
  // but still queue behind link down windows.
  if (bytes <= cost_.rdma_mtu_bytes) {
    const int64_t wire_ns = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(std::max<uint64_t>(bytes, 1)) /
                                bandwidth * 1e9));
    int64_t start = now;
    if (!loopback) {
      start = std::max(src_host->egress().AvailableAt(start),
                       dst_host->ingress().AvailableAt(start));
    }
    // A loopback copy never touches a wire, so it loses nothing.
    const bool dropped = !loopback && fault_ != nullptr && fault_->ShouldDropSegment(src, dst);
    const int64_t deliver_at = start + wire_ns + latency;
    if (dropped) {
      sim::TraceInstant("fault", deliver_at, "drop host", src, "->host", dst, " offset=0");
    }
    auto chunk_cb = std::move(on_chunk);
    auto complete_cb = std::move(on_complete);
    simulator_->ScheduleAt(
        deliver_at, [bytes, src, dst, dropped, check_id, deliver_at,
                     chunk_cb = std::move(chunk_cb), complete_cb = std::move(complete_cb)]() {
          if (dropped) {
            check::OnTransferFinished(check_id);
            if (complete_cb) {
              complete_cb(Unavailable(
                  StrCat("segment lost on host", src, "->host", dst, " at offset 0")));
            }
            return;
          }
          if (bytes > 0) check::OnTransferSegment(check_id, 0, bytes, deliver_at);
          if (chunk_cb && bytes > 0) chunk_cb(0, bytes);
          check::OnTransferFinished(check_id);
          if (complete_cb) complete_cb(OkStatus());
        });
    return;
  }

  const uint64_t total = std::max<uint64_t>(bytes, 1);

  internal::TransferProgress* progress = AcquireProgress();
  progress->total_bytes = bytes;
  progress->check_id = check_id;
  progress->src = src;
  progress->dst = dst;
  progress->on_chunk = std::move(on_chunk);
  progress->on_complete = std::move(on_complete);
  progress->on_ecn = std::move(on_ecn);
  progress->segments.reserve(static_cast<size_t>((total + chunk_size - 1) / chunk_size));

  uint64_t offset = 0;
  int64_t cursor = now;  // Egress reservations are sequential per transfer.
  while (offset < total) {
    const uint64_t len = std::min<uint64_t>(chunk_size, total - offset);
    const int64_t wire_ns =
        std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(len) / bandwidth * 1e9));

    internal::TransferProgress::Segment seg;
    seg.offset = offset;
    seg.length = (bytes == 0) ? 0 : len;

    if (loopback) {
      const int64_t done = src_host->loopback().Reserve(cursor, wire_ns);
      cursor = done;
      seg.deliver_at = done + latency;
    } else {
      // With a disabled CongestionConfig, Admit is exactly Reserve: no marks,
      // no drops, identical slot arithmetic. With queues bounded, any point
      // on the path — egress port, shared rack/spine hop, ingress port — may
      // mark the segment CE or (drop policy) tail-drop it; a drop truncates
      // the transfer like a fault-injected loss and the RC transport's
      // retransmission pays the recovery cost. This is the incast mechanism.
      const Link::Admission eg = src_host->egress().Admit(cursor, wire_ns);
      seg.ecn = eg.ecn;
      if (eg.dropped) {
        seg.dropped = true;
        // Nothing was transmitted; the sender notices when the bytes should
        // have landed.
        seg.deliver_at = eg.done_ns + wire_ns + latency;
      } else {
        cursor = eg.done_ns;
        int64_t path_done = eg.done_ns;
        if (num_hops > 0) {
          // Each chunk crosses the shared rack-uplink, spine, and
          // rack-downlink serialization points after leaving the host port;
          // an oversubscribed link stretches the chunk's wire time by the
          // bandwidth ratio, and queuing on any hop delays everything
          // downstream of it.
          const int64_t hop_wire_ns = std::max<int64_t>(
              1, static_cast<int64_t>(static_cast<double>(len) / shared_bandwidth * 1e9));
          for (int h = 0; h < num_hops && !seg.dropped; ++h) {
            const Link::Admission hop = hops[h].link->Admit(path_done, hop_wire_ns);
            seg.ecn |= hop.ecn;
            if (hop.dropped) {
              seg.dropped = true;
              seg.deliver_at = hop.done_ns + hop_wire_ns + latency;
            } else {
              path_done = hop.done_ns;
            }
          }
        }
        if (!seg.dropped) {
          // Ingress occupancy mirrors the sending port: the receiving port is
          // busy for the chunk's own wire time, ending at delivery. On an
          // unbounded link the reservation is pure accounting and delivery
          // stays at path_done + latency (the admitted slot ends exactly
          // there when the queue is empty). With a bounded queue the segment
          // genuinely waits its turn — many senders into one port drain
          // serially, which is the incast bottleneck itself.
          const Link::Admission in =
              dst_host->ingress().Admit(path_done - wire_ns + latency, wire_ns);
          seg.ecn |= in.ecn;
          seg.dropped = in.dropped;
          seg.deliver_at = seg.dropped ? in.done_ns + wire_ns
                          : dst_host->ingress().congested() ? in.done_ns
                                                            : path_done + latency;
        }
      }
      if (seg.dropped) {
        sim::TraceInstant("congestion", seg.deliver_at, "queue drop host", src, "->host", dst,
                          " offset=", seg.offset);
      }
    }

    if (!seg.dropped && !loopback && fault_ != nullptr && fault_->ShouldDropSegment(src, dst)) {
      seg.dropped = true;
      sim::TraceInstant("fault", seg.deliver_at, "drop host", src, "->host", dst, " offset=",
                        seg.offset);
    }
    if (seg.dropped) seg.length = 0;
    progress->segments.push_back(seg);
    // No segment is delivered past a drop (Deliver turns it into the failed
    // completion at its delivery time).
    if (seg.dropped) break;
    offset += len;
  }

  // One delivery event per segment someone can observe at its own time; the
  // rest fold into the next event, which delivers them first. A segment
  // keeps its event when it is the last (completion or failure), carries an
  // ECN mark (the CNP keeps its time), overlaps an |observed| range, or
  // would land after the next segment (folding it would deliver it early;
  // only the segment before a drop can). The events still come from this
  // one loop in ascending seq, so dropping some keeps the relative order of
  // the rest against every other event. Under an RdmaCheck or a
  // SchedulePolicy each segment is an event the checker or explorer sees.
  const bool fold = check_id == 0 && simulator_->schedule_policy() == nullptr;
  const std::vector<internal::TransferProgress::Segment>& segments = progress->segments;
  const uint32_t n = static_cast<uint32_t>(segments.size());
  size_t range = 0;  // |observed| ascends like the segments do.
  uint32_t first = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const internal::TransferProgress::Segment& seg = segments[i];
    if (fold && i + 1 < n && !seg.dropped && !seg.ecn &&
        seg.deliver_at <= segments[i + 1].deliver_at) {
      while (range < observed.size() &&
             observed[range].offset + observed[range].length <= seg.offset) {
        ++range;
      }
      const bool seen =
          range < observed.size() && observed[range].offset < seg.offset + seg.length;
      if (!seen) continue;
    }
    ++progress->events;
    simulator_->ScheduleAt(seg.deliver_at,
                           [progress, first, i]() { progress->Deliver(first, i); });
    first = i + 1;
  }
}

}  // namespace net
}  // namespace rdmadl
