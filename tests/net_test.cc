#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/net/topology.h"

namespace rdmadl {
namespace net {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  sim::Simulator simulator_;
  CostModel cost_;
};

TEST_F(FabricTest, ConstructsHosts) {
  Fabric fabric(&simulator_, cost_, 4);
  EXPECT_EQ(fabric.num_hosts(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fabric.host(i)->id(), i);
  }
}

TEST_F(FabricTest, TransferCompletesAfterBandwidthAndLatency) {
  Fabric fabric(&simulator_, cost_, 2);
  const uint64_t bytes = 1 << 20;  // 1 MB
  int64_t completed_at = -1;
  fabric.Transfer(0, 1, bytes, Plane::kRdma, 0, nullptr,
                  [&](Status s) { completed_at = simulator_.Now(); });
  ASSERT_TRUE(simulator_.Run().ok());
  const int64_t wire_ns =
      static_cast<int64_t>(bytes / cost_.rdma_bandwidth_bytes_per_sec * 1e9);
  // Completion = serialization + one-way latency, within per-chunk rounding
  // (each 4 KB chunk may truncate up to 1 ns).
  EXPECT_GE(completed_at, wire_ns + cost_.rdma_one_way_latency_ns - 1000);
  EXPECT_LE(completed_at, wire_ns + cost_.rdma_one_way_latency_ns + 10'000);
}

TEST_F(FabricTest, ChunksArriveInAscendingOffsetOrder) {
  Fabric fabric(&simulator_, cost_, 2);
  std::vector<uint64_t> offsets;
  bool complete = false;
  fabric.Transfer(
      0, 1, 3 * cost_.rdma_mtu_bytes + 17, Plane::kRdma, 0,
      [&](uint64_t offset, uint64_t length) { offsets.push_back(offset); },
      [&](Status s) { complete = s.ok(); });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_TRUE(complete);
  ASSERT_EQ(offsets.size(), 4u);
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_GT(offsets[i], offsets[i - 1]);
  }
  EXPECT_EQ(offsets[0], 0u);
}

TEST_F(FabricTest, ChunkLengthsSumToTotal) {
  Fabric fabric(&simulator_, cost_, 2);
  const uint64_t bytes = 10 * cost_.rdma_mtu_bytes + 123;
  uint64_t sum = 0;
  fabric.Transfer(
      0, 1, bytes, Plane::kRdma, 0, [&](uint64_t, uint64_t length) { sum += length; },
      nullptr);
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(sum, bytes);
}

TEST_F(FabricTest, TcpPlaneIsSlowerThanRdma) {
  Fabric fabric(&simulator_, cost_, 2);
  const uint64_t bytes = 8 << 20;
  int64_t rdma_done = 0, tcp_done = 0;
  fabric.Transfer(0, 1, bytes, Plane::kRdma, 0, nullptr,
                  [&](Status s) { rdma_done = simulator_.Now(); });
  ASSERT_TRUE(simulator_.Run().ok());

  sim::Simulator sim2;
  Fabric fabric2(&sim2, cost_, 2);
  fabric2.Transfer(0, 1, bytes, Plane::kTcp, 0, nullptr,
                   [&](Status s) { tcp_done = sim2.Now(); });
  ASSERT_TRUE(sim2.Run().ok());
  EXPECT_GT(tcp_done, 2 * rdma_done);
}

TEST_F(FabricTest, ConcurrentTransfersShareEgressLink) {
  Fabric fabric(&simulator_, cost_, 3);
  const uint64_t bytes = 4 << 20;
  int64_t t1 = 0, t2 = 0;
  // Two transfers from host 0 contend on its egress.
  fabric.Transfer(0, 1, bytes, Plane::kRdma, 0, nullptr,
                  [&](Status s) { t1 = simulator_.Now(); });
  fabric.Transfer(0, 2, bytes, Plane::kRdma, 0, nullptr,
                  [&](Status s) { t2 = simulator_.Now(); });
  ASSERT_TRUE(simulator_.Run().ok());
  const int64_t one_wire_ns =
      static_cast<int64_t>(bytes / cost_.rdma_bandwidth_bytes_per_sec * 1e9);
  // The later one must take ~2x the single-transfer serialization time.
  const int64_t last = std::max(t1, t2);
  EXPECT_GE(last, 2 * one_wire_ns);
}

TEST_F(FabricTest, LoopbackDoesNotUseEgress) {
  Fabric fabric(&simulator_, cost_, 2);
  bool done = false;
  fabric.Transfer(0, 0, 1 << 20, Plane::kRdma, 0, nullptr, [&](Status s) { done = s.ok(); });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(fabric.host(0)->egress().busy_ns_total(), 0);
  EXPECT_GT(fabric.host(0)->loopback().busy_ns_total(), 0);
}

TEST_F(FabricTest, LoopbackLosesNoSegment) {
  // A colocated copy never touches a wire: every drop the injector would
  // draw (here, all of them) applies to other paths only.
  Fabric fabric(&simulator_, cost_, 2);
  sim::FaultInjector injector(/*seed=*/1);
  sim::LinkFaultSpec spec;
  spec.drop_probability = 1.0;
  injector.SetDefaultLinkFault(spec);
  fabric.SetFaultInjector(&injector);
  for (const uint64_t bytes : {uint64_t{64}, 32 * cost_.rdma_mtu_bytes}) {
    Status loop = Internal("not run"), wire = Internal("not run");
    fabric.Transfer(0, 0, bytes, Plane::kRdma, 0, nullptr, [&](Status s) { loop = s; });
    fabric.Transfer(0, 1, bytes, Plane::kRdma, 0, nullptr, [&](Status s) { wire = s; });
    ASSERT_TRUE(simulator_.Run().ok());
    EXPECT_TRUE(loop.ok()) << bytes << " B: " << loop;
    EXPECT_FALSE(wire.ok()) << bytes << " B";
  }
  EXPECT_EQ(injector.stats().dropped_segments, 2u);
}

TEST_F(FabricTest, ZeroByteTransferStillCompletes) {
  Fabric fabric(&simulator_, cost_, 2);
  bool done = false;
  int chunks = 0;
  fabric.Transfer(
      0, 1, 0, Plane::kRdma, 0, [&](uint64_t, uint64_t) { ++chunks; },
      [&](Status s) { done = s.ok(); });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(chunks, 0);
}

TEST_F(FabricTest, InitiationDelayShiftsCompletion) {
  Fabric fabric(&simulator_, cost_, 2);
  int64_t t_no_delay = 0, t_delay = 0;
  {
    sim::Simulator s1;
    Fabric f1(&s1, cost_, 2);
    f1.Transfer(0, 1, 4096, Plane::kRdma, 0, nullptr, [&](Status s) { t_no_delay = s1.Now(); });
    ASSERT_TRUE(s1.Run().ok());
  }
  {
    sim::Simulator s2;
    Fabric f2(&s2, cost_, 2);
    f2.Transfer(0, 1, 4096, Plane::kRdma, 50'000, nullptr,
                [&](Status s) { t_delay = s2.Now(); });
    ASSERT_TRUE(s2.Run().ok());
  }
  EXPECT_EQ(t_delay - t_no_delay, 50'000);
}

// Observed ranges choose which segments cost a delivery event, never what
// is delivered: a transfer observed end to end and the same transfer
// observed nowhere see one ordered chunk sequence and one completion, also
// when a segment is lost mid-transfer.
TEST_F(FabricTest, FoldedDeliveryMatchesPerSegmentDelivery) {
  struct Run {
    std::vector<std::pair<uint64_t, uint64_t>> chunks;
    int64_t done_at = -1;
    StatusCode code = StatusCode::kOk;
    uint64_t events = 0;
  };
  const uint64_t bytes = 32 * cost_.rdma_mtu_bytes;
  auto run = [&](uint64_t seed, bool observed) {
    sim::Simulator sim;
    Fabric fabric(&sim, cost_, 2);
    sim::FaultInjector injector(seed);
    sim::LinkFaultSpec spec;
    spec.drop_probability = 0.05;
    injector.SetLinkFault(0, 1, spec);
    fabric.SetFaultInjector(&injector);
    const StreamRange whole{0, bytes};
    Run r;
    fabric.Transfer(
        0, 1, bytes, Plane::kRdma, 0,
        [&](uint64_t offset, uint64_t length) { r.chunks.emplace_back(offset, length); },
        [&](Status s) {
          r.done_at = sim.Now();
          r.code = s.code();
        },
        nullptr, observed ? std::span<const StreamRange>(&whole, 1) : std::span<const StreamRange>());
    EXPECT_TRUE(sim.Run().ok());
    r.events = sim.events_dispatched();
    return r;
  };
  bool saw_mid_drop = false;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Run each = run(seed, true);
    const Run folded = run(seed, false);
    EXPECT_EQ(folded.chunks, each.chunks) << "seed " << seed;
    EXPECT_EQ(folded.done_at, each.done_at) << "seed " << seed;
    EXPECT_EQ(folded.code, each.code) << "seed " << seed;
    EXPECT_EQ(each.events, each.chunks.size() + (each.code == StatusCode::kOk ? 0 : 1));
    EXPECT_EQ(folded.events, 1u) << "seed " << seed;
    if (each.code != StatusCode::kOk && each.chunks.size() > 1) saw_mid_drop = true;
  }
  EXPECT_TRUE(saw_mid_drop) << "no seed lost a segment mid-transfer";
}

TEST_F(FabricTest, StatsAccumulatePerPlane) {
  Fabric fabric(&simulator_, cost_, 2);
  fabric.Transfer(0, 1, 1000, Plane::kRdma, 0, nullptr, nullptr);
  fabric.Transfer(0, 1, 2000, Plane::kRdma, 0, nullptr, nullptr);
  fabric.Transfer(1, 0, 500, Plane::kTcp, 0, nullptr, nullptr);
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(fabric.stats(Plane::kRdma).transfers, 2u);
  EXPECT_EQ(fabric.stats(Plane::kRdma).bytes, 3000u);
  EXPECT_EQ(fabric.stats(Plane::kTcp).transfers, 1u);
  EXPECT_EQ(fabric.stats(Plane::kTcp).bytes, 500u);
}

TEST(LinkTest, ReserveSerializes) {
  Link link("test");
  EXPECT_EQ(link.Reserve(100, 50), 150);
  EXPECT_EQ(link.Reserve(100, 50), 200);  // Starts after the previous slot.
  EXPECT_EQ(link.Reserve(500, 50), 550);  // Idle gap allowed.
  EXPECT_EQ(link.busy_ns_total(), 150);
}

TEST(LinkTest, ReserveQueuesPastDownWindow) {
  Link link("test");
  link.AddDownWindow(1000, 5000);
  // A reservation that would start inside the window waits for the link to
  // come back up, then starts immediately.
  EXPECT_EQ(link.Reserve(2000, 100), 5100);
  // Before the window the link is usable...
  Link link2("test2");
  link2.AddDownWindow(1000, 5000);
  EXPECT_EQ(link2.Reserve(0, 100), 100);
  // ...and a slot that STARTS before the window may finish inside it (packets
  // in flight when the link drops are not clawed back).
  EXPECT_EQ(link2.Reserve(900, 300), 1200);
  // The backlog accumulated behind the window drains in FIFO order after it.
  EXPECT_EQ(link2.Reserve(1500, 100), 5100);
  EXPECT_EQ(link2.Reserve(1500, 100), 5200);
}

TEST(LinkTest, MultipleDownWindowsAllRespected) {
  Link link("test");
  link.AddDownWindow(100, 200);
  link.AddDownWindow(300, 400);
  // Starting inside window 1 pushes to 200; the slot [200, 250) fits between
  // the windows.
  EXPECT_EQ(link.Reserve(150, 50), 250);
  // Starting inside window 2 pushes past it.
  EXPECT_EQ(link.Reserve(350, 50), 450);
}

TEST(LinkTest, OverlappingDownWindowsCoalesce) {
  Link link("test");
  // Overlapping, touching, and contained windows added out of order must
  // behave as their union [100, 900).
  link.AddDownWindow(400, 600);
  link.AddDownWindow(100, 450);   // Overlaps the first on the left.
  link.AddDownWindow(600, 900);   // Touches on the right.
  link.AddDownWindow(200, 300);   // Fully contained.
  EXPECT_EQ(link.AvailableAt(50), 50);
  EXPECT_EQ(link.AvailableAt(100), 900);
  EXPECT_EQ(link.AvailableAt(599), 900);
  EXPECT_EQ(link.AvailableAt(899), 900);
  EXPECT_EQ(link.AvailableAt(900), 900);
  EXPECT_EQ(link.Reserve(250, 10), 910);
}

TEST(LinkTest, DisjointWindowsStayDisjointAndSorted) {
  Link link("test");
  link.AddDownWindow(500, 600);
  link.AddDownWindow(100, 200);
  link.AddDownWindow(300, 400);
  EXPECT_EQ(link.AvailableAt(150), 200);
  EXPECT_EQ(link.AvailableAt(350), 400);
  EXPECT_EQ(link.AvailableAt(550), 600);
  EXPECT_EQ(link.AvailableAt(250), 250);
  // A window bridging two existing ones merges all three.
  link.AddDownWindow(150, 550);
  EXPECT_EQ(link.AvailableAt(150), 600);
  EXPECT_EQ(link.AvailableAt(250), 600);
}

class TopologyTest : public ::testing::Test {
 protected:
  TopologyConfig Hierarchical(int hosts_per_rack, double oversubscription) {
    TopologyConfig config;
    config.hosts_per_rack = hosts_per_rack;
    config.oversubscription = oversubscription;
    return config;
  }

  sim::Simulator simulator_;
  CostModel cost_;
};

TEST_F(TopologyTest, FlatConfigMatchesThreeArgConstructorExactly) {
  // Same transfer schedule on a flat-config Fabric and on the plain
  // constructor must produce identical completion times: the topology path
  // is byte-identical when hosts_per_rack == 0.
  std::vector<int64_t> plain, flat;
  for (int variant = 0; variant < 2; ++variant) {
    sim::Simulator sim;
    std::vector<int64_t>& out = (variant == 0) ? plain : flat;
    std::unique_ptr<Fabric> fabric;
    if (variant == 0) {
      fabric = std::make_unique<Fabric>(&sim, cost_, 8);
    } else {
      fabric = std::make_unique<Fabric>(&sim, cost_, 8, TopologyConfig());
    }
    for (int src = 0; src < 4; ++src) {
      fabric->Transfer(src, 7 - src, (src + 1) << 20, Plane::kRdma, 100 * src, nullptr,
                       [&out, &sim](Status s) { out.push_back(sim.Now()); });
    }
    ASSERT_TRUE(sim.Run().ok());
  }
  EXPECT_EQ(plain, flat);
}

TEST_F(TopologyTest, RackAndSpineShape) {
  Topology topo(Hierarchical(32, 4.0), 1000);
  EXPECT_EQ(topo.num_racks(), 32);          // ceil(1000 / 32)
  EXPECT_EQ(topo.num_spine_links(), 32);    // Defaults to one per rack.
  EXPECT_EQ(topo.rack_of(0), 0);
  EXPECT_EQ(topo.rack_of(31), 0);
  EXPECT_EQ(topo.rack_of(32), 1);
  EXPECT_EQ(topo.rack_of(999), 31);
  EXPECT_DOUBLE_EQ(topo.shared_bandwidth_scale(), 8.0);  // 32 hosts / 4x oversub.
  // Intra-rack: no shared hops, no extra latency.
  Topology::Hop hops[3];
  EXPECT_EQ(topo.PathHops(0, 31, hops), 0);
  EXPECT_EQ(topo.ExtraLatencyNs(0, 31), 0);
  // Inter-rack: uplink -> spine -> downlink, two extra switch traversals.
  ASSERT_EQ(topo.PathHops(0, 32, hops), 3);
  EXPECT_EQ(hops[0].link, topo.rack_uplink(0));
  EXPECT_EQ(hops[2].link, topo.rack_downlink(1));
  EXPECT_EQ(topo.ExtraLatencyNs(0, 32), 2 * topo.config().per_hop_latency_ns);
  // Spine selection is deterministic per rack pair.
  EXPECT_EQ(topo.spine_index(0, 1), topo.spine_index(0, 1));
}

TEST_F(TopologyTest, InterRackTransferPaysExtraHopLatency) {
  const uint64_t bytes = 256;  // Sub-MTU: no shared-link queuing, pure latency.
  int64_t intra = 0, inter = 0;
  {
    sim::Simulator sim;
    Fabric fabric(&sim, cost_, 64, Hierarchical(32, 1.0));
    fabric.Transfer(0, 1, bytes, Plane::kRdma, 0, nullptr,
                    [&](Status s) { intra = sim.Now(); });
    ASSERT_TRUE(sim.Run().ok());
  }
  {
    sim::Simulator sim;
    Fabric fabric(&sim, cost_, 64, Hierarchical(32, 1.0));
    fabric.Transfer(0, 33, bytes, Plane::kRdma, 0, nullptr,
                    [&](Status s) { inter = sim.Now(); });
    ASSERT_TRUE(sim.Run().ok());
  }
  TopologyConfig config = Hierarchical(32, 1.0);
  EXPECT_EQ(inter - intra, 2 * config.per_hop_latency_ns);
}

TEST_F(TopologyTest, OversubscribedUplinkSerializesInterRackTransfers) {
  // Eight hosts in rack 0 each blast a bulk transfer to a distinct host in
  // rack 1. With a heavily oversubscribed uplink the shared link serializes
  // the aggregate; with a non-blocking fabric the transfers run in parallel.
  const uint64_t bytes = 4 << 20;
  auto run = [&](const TopologyConfig& config) {
    sim::Simulator sim;
    Fabric fabric(&sim, cost_, 16, config);
    int64_t last = 0;
    for (int i = 0; i < 8; ++i) {
      fabric.Transfer(i, 8 + i, bytes, Plane::kRdma, 0, nullptr,
                      [&last, &sim](Status s) { last = std::max(last, sim.Now()); });
    }
    EXPECT_TRUE(sim.Run().ok());
    return last;
  };
  const int64_t contended = run(Hierarchical(8, 8.0));   // Uplink = 1 host port.
  const int64_t nonblocking = run(Hierarchical(8, 1.0)); // Uplink = 8 host ports.
  // 8 flows through a single-port uplink serialize ~8x; require a clear gap.
  EXPECT_GT(contended, 4 * nonblocking);
  // Intra-rack traffic is unaffected by oversubscription.
  sim::Simulator sim;
  Fabric fabric(&sim, cost_, 16, Hierarchical(8, 8.0));
  int64_t t = 0;
  fabric.Transfer(0, 1, bytes, Plane::kRdma, 0, nullptr, [&](Status s) { t = sim.Now(); });
  ASSERT_TRUE(sim.Run().ok());
  sim::Simulator sim_flat;
  Fabric flat(&sim_flat, cost_, 16);
  int64_t t_flat = 0;
  flat.Transfer(0, 1, bytes, Plane::kRdma, 0, nullptr,
                [&](Status s) { t_flat = sim_flat.Now(); });
  ASSERT_TRUE(sim_flat.Run().ok());
  EXPECT_EQ(t, t_flat);
}

}  // namespace
}  // namespace net
}  // namespace rdmadl
