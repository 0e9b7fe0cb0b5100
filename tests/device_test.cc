#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "src/device/rdma_device.h"
#include "src/sim/fault.h"

namespace rdmadl {
namespace device {
namespace {

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest()
      : fabric_(&simulator_, cost_, 4), rdma_(&fabric_), directory_(&rdma_) {}

  std::unique_ptr<RdmaDevice> MakeDevice(int host, uint16_t port, int num_cqs = 2,
                                         int num_qps = 2) {
    auto dev = RdmaDevice::Create(&directory_, num_cqs, num_qps, Endpoint{host, port});
    CHECK(dev.ok()) << dev.status();
    return std::move(dev).value();
  }

  sim::Simulator simulator_;
  net::CostModel cost_;
  net::Fabric fabric_;
  rdma::RdmaFabric rdma_;
  DeviceDirectory directory_;
};

TEST_F(DeviceTest, CreateValidatesArguments) {
  EXPECT_FALSE(RdmaDevice::Create(&directory_, 0, 1, Endpoint{0, 1}).ok());
  EXPECT_FALSE(RdmaDevice::Create(&directory_, 1, 0, Endpoint{0, 1}).ok());
  EXPECT_FALSE(RdmaDevice::Create(&directory_, 1, 1, Endpoint{99, 1}).ok());
}

TEST_F(DeviceTest, CreateRejectsDuplicateEndpoint) {
  auto dev = MakeDevice(0, 7000);
  auto dup = RdmaDevice::Create(&directory_, 1, 1, Endpoint{0, 7000});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DeviceTest, EndpointFreedOnDestruction) {
  { auto dev = MakeDevice(0, 7000); }
  auto again = RdmaDevice::Create(&directory_, 1, 1, Endpoint{0, 7000});
  EXPECT_TRUE(again.ok());
}

TEST_F(DeviceTest, AllocateMemRegionProvidesUsableMemory) {
  auto dev = MakeDevice(0, 7000);
  auto region = dev->AllocateMemRegion(1 << 16);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->size(), 1u << 16);
  ASSERT_NE(region->data(), nullptr);
  std::memset(region->data(), 0x7F, region->size());
  EXPECT_EQ(region->data()[100], 0x7F);
  EXPECT_NE(region->lkey(), 0u);
  EXPECT_NE(region->rkey(), 0u);
}

TEST_F(DeviceTest, AllocateMemRegionRejectsZeroSize) {
  auto dev = MakeDevice(0, 7000);
  EXPECT_FALSE(dev->AllocateMemRegion(0).ok());
}

TEST_F(DeviceTest, RemoteRegionRoundTripsThroughWireEncoding) {
  auto dev = MakeDevice(0, 7000);
  auto region = dev->AllocateMemRegion(4096);
  ASSERT_TRUE(region.ok());
  RemoteRegion remote = region->Remote();
  std::vector<uint8_t> wire;
  remote.EncodeTo(&wire);
  EXPECT_EQ(wire.size(), RemoteRegion::kWireSize);
  auto decoded = RemoteRegion::Decode(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->addr, remote.addr);
  EXPECT_EQ(decoded->rkey, remote.rkey);
  EXPECT_EQ(decoded->length, remote.length);
}

TEST_F(DeviceTest, RemoteSliceBoundsChecked) {
  auto dev = MakeDevice(0, 7000);
  auto region = dev->AllocateMemRegion(1000);
  ASSERT_TRUE(region.ok());
  EXPECT_TRUE(region->RemoteSlice(0, 1000).ok());
  EXPECT_TRUE(region->RemoteSlice(500, 500).ok());
  EXPECT_FALSE(region->RemoteSlice(500, 501).ok());
  EXPECT_FALSE(region->RemoteSlice(1000, 1).ok());
  EXPECT_TRUE(region->RemoteSlice(1000, 0).ok());  // Empty slice at the end.
}

TEST_F(DeviceTest, RemoteSliceRejectsOverflowingOffsets) {
  // offset + length must not wrap around uint64 and sneak past the bounds
  // check.
  auto dev = MakeDevice(0, 7000);
  auto region = dev->AllocateMemRegion(1000);
  ASSERT_TRUE(region.ok());
  EXPECT_FALSE(region->RemoteSlice(UINT64_MAX, 1).ok());
  EXPECT_FALSE(region->RemoteSlice(UINT64_MAX, UINT64_MAX).ok());
  EXPECT_FALSE(region->RemoteSlice(1, UINT64_MAX).ok());
  EXPECT_FALSE(region->RemoteSlice(UINT64_MAX - 500, 501).ok());
}

TEST_F(DeviceTest, RemoteRegionDecodeRejectsTruncatedBuffers) {
  auto dev = MakeDevice(0, 7000);
  auto region = dev->AllocateMemRegion(4096);
  ASSERT_TRUE(region.ok());
  std::vector<uint8_t> wire;
  region->Remote().EncodeTo(&wire);
  ASSERT_EQ(wire.size(), RemoteRegion::kWireSize);
  for (size_t len = 0; len < RemoteRegion::kWireSize; ++len) {
    EXPECT_FALSE(RemoteRegion::Decode(wire.data(), len).ok()) << "len=" << len;
  }
  EXPECT_FALSE(RemoteRegion::Decode(nullptr, 0).ok());
}

TEST_F(DeviceTest, GetChannelValidatesIndexAndPeer) {
  auto a = MakeDevice(0, 7000, 2, 3);
  auto b = MakeDevice(1, 7000, 2, 3);
  EXPECT_FALSE(a->GetChannel(Endpoint{1, 7000}, -1).ok());
  EXPECT_FALSE(a->GetChannel(Endpoint{1, 7000}, 3).ok());
  EXPECT_EQ(a->GetChannel(Endpoint{2, 7000}, 0).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(a->GetChannel(Endpoint{0, 7000}, 0).ok());  // Self.
  auto chan = a->GetChannel(Endpoint{1, 7000}, 1);
  ASSERT_TRUE(chan.ok());
  EXPECT_EQ((*chan)->qp_index(), 1);
}

TEST_F(DeviceTest, MemcpyLocalToRemoteMovesBytes) {
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  auto src = a->AllocateMemRegion(8192);
  auto dst = b->AllocateMemRegion(8192);
  ASSERT_TRUE(src.ok() && dst.ok());
  std::iota(src->data(), src->data() + 8192, 0);
  std::memset(dst->data(), 0, 8192);

  auto chan = a->GetChannel(Endpoint{1, 7000}, 0);
  ASSERT_TRUE(chan.ok());
  Status done_status = Internal("not called");
  (*chan)->Memcpy(reinterpret_cast<uint64_t>(src->data()), *src,
                  reinterpret_cast<uint64_t>(dst->data()), dst->Remote(), 8192,
                  Direction::kLocalToRemote, [&](const Status& s) { done_status = s; });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_TRUE(done_status.ok()) << done_status;
  EXPECT_EQ(std::memcmp(src->data(), dst->data(), 8192), 0);
}

TEST_F(DeviceTest, MemcpyRemoteToLocalReadsBytes) {
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  auto local = a->AllocateMemRegion(4096);
  auto remote = b->AllocateMemRegion(4096);
  ASSERT_TRUE(local.ok() && remote.ok());
  std::memset(remote->data(), 0x3C, 4096);
  std::memset(local->data(), 0, 4096);

  auto chan = a->GetChannel(Endpoint{1, 7000}, 0);
  ASSERT_TRUE(chan.ok());
  bool done = false;
  (*chan)->Memcpy(reinterpret_cast<uint64_t>(local->data()), *local,
                  reinterpret_cast<uint64_t>(remote->data()), remote->Remote(), 4096,
                  Direction::kRemoteToLocal, [&](const Status& s) {
                    EXPECT_TRUE(s.ok());
                    done = true;
                  });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(local->data()[0], 0x3C);
  EXPECT_EQ(local->data()[4095], 0x3C);
}

TEST_F(DeviceTest, MemcpyToInvalidRemoteFailsAsync) {
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  auto src = a->AllocateMemRegion(128);
  ASSERT_TRUE(src.ok());
  auto chan = a->GetChannel(Endpoint{1, 7000}, 0);
  ASSERT_TRUE(chan.ok());
  RemoteRegion bogus{0xDEAD0000, 42, 128};
  Status result;
  (*chan)->Memcpy(reinterpret_cast<uint64_t>(src->data()), *src, bogus.addr, bogus, 128,
                  Direction::kLocalToRemote, [&](const Status& s) { result = s; });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_FALSE(result.ok());
}

TEST_F(DeviceTest, ChannelsOnDifferentQpsTransferConcurrently) {
  auto a = MakeDevice(0, 7000, 4, 4);
  auto b = MakeDevice(1, 7000, 4, 4);
  const uint64_t size = 1 << 20;
  auto src = a->AllocateMemRegion(2 * size);
  auto dst = b->AllocateMemRegion(2 * size);
  ASSERT_TRUE(src.ok() && dst.ok());

  // Two transfers on one QP run back-to-back; on two QPs they pipeline the
  // NIC processing, so completion of the pair should not be slower.
  int completions = 0;
  for (int i = 0; i < 2; ++i) {
    auto chan = a->GetChannel(Endpoint{1, 7000}, i);
    ASSERT_TRUE(chan.ok());
    auto dst_slice = dst->RemoteSlice(i * size, size);
    ASSERT_TRUE(dst_slice.ok());
    (*chan)->Memcpy(reinterpret_cast<uint64_t>(src->data() + i * size), *src,
                    dst_slice->addr, *dst_slice, size, Direction::kLocalToRemote,
                    [&](const Status& s) {
                      EXPECT_TRUE(s.ok());
                      ++completions;
                    });
  }
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(completions, 2);
}

TEST_F(DeviceTest, RpcCallInvokesRemoteHandler) {
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  b->RegisterRpcHandler("echo", [](const std::vector<uint8_t>& req) {
    std::vector<uint8_t> resp = req;
    for (auto& byte : resp) byte ^= 0xFF;
    return resp;
  });
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  std::vector<uint8_t> response;
  Status status = Internal("not called");
  a->Call(Endpoint{1, 7000}, "echo", payload, [&](const Status& s, const std::vector<uint8_t>& r) {
    status = s;
    response = r;
  });
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(response.size(), 4u);
  EXPECT_EQ(response[0], 0xFE);
  EXPECT_EQ(response[3], 0xFB);
}

TEST_F(DeviceTest, RpcUnknownMethodReturnsError) {
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  Status status;
  a->Call(Endpoint{1, 7000}, "missing", {}, [&](const Status& s, const std::vector<uint8_t>&) {
    status = s;
  });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(DeviceTest, RpcToUnknownEndpointFails) {
  auto a = MakeDevice(0, 7000);
  Status status;
  a->Call(Endpoint{3, 9999}, "x", {}, [&](const Status& s, const std::vector<uint8_t>&) {
    status = s;
  });
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(DeviceTest, ManyConcurrentRpcCallsAllComplete) {
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  b->RegisterRpcHandler("inc", [](const std::vector<uint8_t>& req) {
    std::vector<uint8_t> resp = req;
    if (!resp.empty()) ++resp[0];
    return resp;
  });
  int completed = 0;
  const int kCalls = 64;
  for (int i = 0; i < kCalls; ++i) {
    a->Call(Endpoint{1, 7000}, "inc", {static_cast<uint8_t>(i)},
            [&completed, i](const Status& s, const std::vector<uint8_t>& r) {
              ASSERT_TRUE(s.ok());
              ASSERT_EQ(r.size(), 1u);
              EXPECT_EQ(r[0], static_cast<uint8_t>(i + 1));
              ++completed;
            });
  }
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(completed, kCalls);
}

TEST_F(DeviceTest, AddressDistributionPattern) {
  // End-to-end rehearsal of §3.2's setup phase: B allocates a receive tensor
  // region, distributes its address to A over the MiniRPC, then A writes a
  // payload straight into it with one-sided Memcpy.
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  auto recv_region = b->AllocateMemRegion(64 * 1024);
  ASSERT_TRUE(recv_region.ok());
  std::memset(recv_region->data(), 0, recv_region->size());

  b->RegisterRpcHandler("get_tensor_addr", [&](const std::vector<uint8_t>&) {
    std::vector<uint8_t> out;
    recv_region->Remote().EncodeTo(&out);
    return out;
  });

  auto src = a->AllocateMemRegion(64 * 1024);
  ASSERT_TRUE(src.ok());
  std::memset(src->data(), 0x42, src->size());

  bool transfer_done = false;
  a->Call(Endpoint{1, 7000}, "get_tensor_addr", {},
          [&](const Status& s, const std::vector<uint8_t>& resp) {
            ASSERT_TRUE(s.ok());
            auto remote = RemoteRegion::Decode(resp.data(), resp.size());
            ASSERT_TRUE(remote.ok());
            auto chan = a->GetChannel(Endpoint{1, 7000}, 0);
            ASSERT_TRUE(chan.ok());
            (*chan)->Memcpy(reinterpret_cast<uint64_t>(src->data()), *src, remote->addr,
                            *remote, src->size(), Direction::kLocalToRemote,
                            [&](const Status& st) {
                              ASSERT_TRUE(st.ok());
                              transfer_done = true;
                            });
          });
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(transfer_done);
  EXPECT_EQ(recv_region->data()[0], 0x42);
  EXPECT_EQ(recv_region->data()[recv_region->size() - 1], 0x42);
}

TEST_F(DeviceTest, RecoverChannelsIsIdempotentWithFlushedRecvsInFlight) {
  // Regression for the elastic recovery path: RecoverChannels must be safe
  // to call repeatedly — including a second call issued while the first
  // call's flushed recv completions are still queued in the CQ — without
  // ever over- or under-filling the RPC recv ring.
  auto a = MakeDevice(0, 7000);
  auto b = MakeDevice(1, 7000);
  b->RegisterRpcHandler("echo", [](const std::vector<uint8_t>& req) { return req; });

  // Healthy round trip establishes the RPC QPs and fills both recv rings.
  bool ok_before = false;
  a->Call(Endpoint{1, 7000}, "echo", {1, 2, 3},
          [&](const Status& s, const std::vector<uint8_t>& r) {
            ASSERT_TRUE(s.ok());
            EXPECT_EQ(r.size(), 3u);
            ok_before = true;
          });
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(ok_before);
  EXPECT_EQ(a->rpc_recvs_posted(Endpoint{1, 7000}), RdmaDevice::rpc_recv_depth());
  EXPECT_EQ(b->rpc_recvs_posted(Endpoint{0, 7000}), RdmaDevice::rpc_recv_depth());

  // Exhaust the transport retry budget on 0 -> 1: the RPC send WR errors the
  // QP, and every posted recv on that QP flushes.
  sim::FaultInjector injector(1);
  sim::LinkFaultSpec spec;
  spec.drop_first_n = 100;
  injector.SetLinkFault(0, 1, spec);
  fabric_.SetFaultInjector(&injector);

  // A lost request never invokes the caller's callback (MiniRPC contract);
  // the observable effect is the errored QP flushing its recv ring. Stop the
  // simulator at the *first* flushed recv completion — the remaining flushes
  // are still queued in the CQ — and recover right there, twice.
  a->Call(Endpoint{1, 7000}, "echo", {9},
          [&](const Status&, const std::vector<uint8_t>&) {
            FAIL() << "callback must not fire for a lost request";
          });
  Status until = simulator_.RunUntilPredicate([&] {
    return a->rpc_recvs_posted(Endpoint{1, 7000}) < RdmaDevice::rpc_recv_depth();
  });
  ASSERT_TRUE(until.ok()) << until;
  ASSERT_TRUE(a->RecoverChannels().ok());
  ASSERT_TRUE(a->RecoverChannels().ok());
  // Draining the leftover flushed completions must not over-post: they find
  // the ring already at depth and release their slots instead.
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(a->rpc_recvs_posted(Endpoint{1, 7000}), RdmaDevice::rpc_recv_depth());

  // Another call after the drain: still idempotent, ring exactly full.
  ASSERT_TRUE(a->RecoverChannels().ok());
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(a->rpc_recvs_posted(Endpoint{1, 7000}), RdmaDevice::rpc_recv_depth());

  // With the link healthy again, RPC service resumes.
  injector.SetLinkFault(0, 1, sim::LinkFaultSpec{});
  bool ok_after = false;
  a->Call(Endpoint{1, 7000}, "echo", {4, 5},
          [&](const Status& s, const std::vector<uint8_t>& r) {
            ASSERT_TRUE(s.ok()) << s;
            EXPECT_EQ(r.size(), 2u);
            ok_after = true;
          });
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(ok_after);
  EXPECT_EQ(a->rpc_recvs_posted(Endpoint{1, 7000}), RdmaDevice::rpc_recv_depth());
  EXPECT_EQ(b->rpc_recvs_posted(Endpoint{0, 7000}), RdmaDevice::rpc_recv_depth());
}

TEST_F(DeviceTest, QpCapFailsNewPeerAndKeepsCachedChannels) {
  // Cap each NIC at 3 QP contexts: the RPC QP toward b plus both b lanes
  // fill host 0, so connecting to a second peer must fail with a typed error
  // rather than take contexts from b. The zero-copy mechanism's per-edge
  // channel cache relies on the cached b channels staying usable.
  net::CostModel tight = cost_;
  tight.max_queue_pairs = 3;
  net::Fabric fabric(&simulator_, tight, 4);
  rdma::RdmaFabric rdma(&fabric);
  DeviceDirectory directory(&rdma);
  auto make = [&](int host) {
    auto dev = RdmaDevice::Create(&directory, /*num_cqs=*/1, /*num_qps_per_peer=*/2,
                                  Endpoint{host, 7000});
    CHECK(dev.ok()) << dev.status();
    return std::move(dev).value();
  };
  auto a = make(0);
  auto b = make(1);
  auto c = make(2);

  auto src = a->AllocateMemRegion(8192);
  auto dst_b = b->AllocateMemRegion(8192);
  ASSERT_TRUE(src.ok() && dst_b.ok());
  std::iota(src->data(), src->data() + 8192, 0);

  auto copy = [&](RdmaChannel* chan, const MemRegion& dst) {
    bool done = false;
    Status result = Internal("never fired");
    chan->Memcpy(reinterpret_cast<uint64_t>(src->data()), *src, dst.Remote().addr,
                 dst.Remote(), 8192, Direction::kLocalToRemote, [&](const Status& s) {
                   done = true;
                   result = s;
                 });
    CHECK_OK(simulator_.Run());
    CHECK(done);
    return result;
  };

  // Both lanes toward b, then cache the channel pointers.
  auto ab0 = a->GetChannel(b->endpoint(), 0);
  auto ab1 = a->GetChannel(b->endpoint(), 1);
  ASSERT_TRUE(ab0.ok() && ab1.ok());
  EXPECT_EQ(rdma.nic(0)->num_queue_pairs(), 3);

  // Host 0 is full: the second peer is refused, and a retry is refused the
  // same way (the failed connect left no half-built peer entry behind).
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto ac0 = a->GetChannel(c->endpoint(), 0);
    EXPECT_EQ(ac0.status().code(), StatusCode::kResourceExhausted) << ac0.status();
  }
  EXPECT_EQ(directory.qp_pool()->num_lanes(), 2);
  EXPECT_EQ(directory.qp_pool()->stats().evictions, 0u);

  // The cached b channels still carry exact bytes.
  for (RdmaChannel* chan : {*ab0, *ab1}) {
    std::memset(dst_b->data(), 0, 8192);
    ASSERT_TRUE(copy(chan, *dst_b).ok());
    EXPECT_EQ(std::memcmp(dst_b->data(), src->data(), 8192), 0);
  }

  // No NIC went over the cap.
  for (int host = 0; host < 3; ++host) {
    EXPECT_LE(rdma.nic(host)->num_queue_pairs(), 3);
  }
}

TEST_F(DeviceTest, DeviceDestructionReturnsPooledLanes) {
  net::CostModel tight = cost_;
  tight.max_queue_pairs = 4;
  net::Fabric fabric(&simulator_, tight, 2);
  rdma::RdmaFabric rdma(&fabric);
  DeviceDirectory directory(&rdma);
  auto a = RdmaDevice::Create(&directory, 1, 2, Endpoint{0, 7000});
  ASSERT_TRUE(a.ok());
  {
    auto b = RdmaDevice::Create(&directory, 1, 2, Endpoint{1, 7000});
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE((*a)->GetChannel((*b)->endpoint(), 0).ok());
    ASSERT_TRUE((*a)->GetChannel((*b)->endpoint(), 1).ok());
    EXPECT_EQ(directory.qp_pool()->num_lanes(), 2);
  }
  // b is gone: its lanes were torn down and a's bindings dropped.
  EXPECT_EQ(directory.qp_pool()->num_lanes(), 0);
  // A fresh peer at the same endpoint connects from scratch.
  auto b2 = RdmaDevice::Create(&directory, 1, 2, Endpoint{1, 7000});
  ASSERT_TRUE(b2.ok());
  EXPECT_TRUE((*a)->GetChannel((*b2)->endpoint(), 0).ok());
}

}  // namespace
}  // namespace device
}  // namespace rdmadl
