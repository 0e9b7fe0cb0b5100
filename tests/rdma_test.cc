#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "src/rdma/qp_pool.h"
#include "src/rdma/verbs.h"
#include "src/sim/fault.h"
#include "src/util/endpoint.h"

namespace rdmadl {
namespace rdma {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  VerbsTest() : fabric_(&simulator_, cost_, 3), rdma_(&fabric_) {}

  // Creates a connected QP pair between hosts a and b; returns {qp_a, qp_b}.
  std::pair<QueuePair*, QueuePair*> ConnectedPair(int a, int b) {
    NicDevice* na = rdma_.nic(a);
    NicDevice* nb = rdma_.nic(b);
    CompletionQueue* cqa = na->CreateCompletionQueue();
    CompletionQueue* cqb = nb->CreateCompletionQueue();
    QueuePair* qa = na->CreateQueuePair(cqa, cqa);
    QueuePair* qb = nb->CreateQueuePair(cqb, cqb);
    CHECK_OK(qa->Connect(qb));
    return {qa, qb};
  }

  sim::Simulator simulator_;
  net::CostModel cost_;
  net::Fabric fabric_;
  RdmaFabric rdma_;
};

TEST_F(VerbsTest, RegisterMemoryAssignsDistinctKeys) {
  std::vector<uint8_t> buf(4096);
  auto mr1 = rdma_.nic(0)->RegisterMemory(buf.data(), buf.size());
  auto mr2 = rdma_.nic(0)->RegisterMemory(buf.data(), buf.size());
  ASSERT_TRUE(mr1.ok());
  ASSERT_TRUE(mr2.ok());
  EXPECT_NE(mr1->lkey, mr2->lkey);
  EXPECT_NE(mr1->rkey, mr2->rkey);
  EXPECT_NE(mr1->lkey, mr1->rkey);
}

TEST_F(VerbsTest, RegisterMemoryRejectsEmpty) {
  EXPECT_FALSE(rdma_.nic(0)->RegisterMemory(nullptr, 100).ok());
  std::vector<uint8_t> buf(16);
  EXPECT_FALSE(rdma_.nic(0)->RegisterMemory(buf.data(), 0).ok());
}

TEST_F(VerbsTest, MemoryRegionLimitEnforced) {
  net::CostModel tight = cost_;
  tight.max_memory_regions = 3;
  net::Fabric fabric(&simulator_, tight, 1);
  RdmaFabric rdma(&fabric);
  std::vector<uint8_t> buf(64);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rdma.nic(0)->RegisterMemory(buf.data(), buf.size()).ok());
  }
  auto overflow = rdma.nic(0)->RegisterMemory(buf.data(), buf.size());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(VerbsTest, DeregisterFreesSlot) {
  std::vector<uint8_t> buf(64);
  auto mr = rdma_.nic(0)->RegisterMemory(buf.data(), buf.size());
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(rdma_.nic(0)->num_registered_regions(), 1);
  ASSERT_TRUE(rdma_.nic(0)->DeregisterMemory(*mr).ok());
  EXPECT_EQ(rdma_.nic(0)->num_registered_regions(), 0);
  EXPECT_EQ(rdma_.nic(0)->DeregisterMemory(*mr).code(), StatusCode::kNotFound);
}

TEST_F(VerbsTest, RegistrationCostScalesWithPages) {
  NicDevice* nic = rdma_.nic(0);
  const int64_t one_page = nic->RegistrationCost(100);
  const int64_t many_pages = nic->RegistrationCost(100 * cost_.mr_page_bytes);
  EXPECT_GT(many_pages, one_page);
  EXPECT_EQ(one_page, cost_.mr_register_base_ns + cost_.mr_register_per_page_ns);
}

TEST_F(VerbsTest, OneSidedWriteCopiesBytes) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(64 * 1024);
  std::vector<uint8_t> dst(64 * 1024, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  SendWorkRequest wr;
  wr.wr_id = 7;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = src.size();
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_EQ(src, dst);
  WorkCompletion wc;
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 7u);
  EXPECT_TRUE(wc.status.ok());
  EXPECT_EQ(wc.byte_len, src.size());
}

TEST_F(VerbsTest, WriteSegmentsLandInAscendingAddressOrder) {
  // The flag-byte protocol (§3.2) depends on this: poll mid-transfer and
  // verify that if byte N is written, all bytes below N are written too.
  auto [qa, qb] = ConnectedPair(0, 1);
  const size_t size = 16 * cost_.rdma_mtu_bytes;
  std::vector<uint8_t> src(size, 0xAB);
  std::vector<uint8_t> dst(size, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());

  SendWorkRequest wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = size;
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());

  // Step the simulation in small time slices and check the prefix property.
  bool saw_partial = false;
  for (int step = 0; step < 1000; ++step) {
    ASSERT_TRUE(simulator_.RunUntil(simulator_.Now() + 500).ok());
    size_t written = 0;
    while (written < size && dst[written] == 0xAB) ++written;
    for (size_t i = written; i < size; ++i) {
      ASSERT_EQ(dst[i], 0) << "byte " << i << " written before prefix complete";
    }
    if (written > 0 && written < size) saw_partial = true;
    if (written == size) break;
  }
  EXPECT_TRUE(saw_partial) << "expected to observe a partially delivered tensor";
  EXPECT_EQ(dst, src);
}

TEST_F(VerbsTest, OneSidedReadCopiesBytes) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> remote(32 * 1024);
  std::vector<uint8_t> local(32 * 1024, 0);
  std::iota(remote.begin(), remote.end(), 1);
  auto remote_mr = rdma_.nic(1)->RegisterMemory(remote.data(), remote.size());
  auto local_mr = rdma_.nic(0)->RegisterMemory(local.data(), local.size());

  SendWorkRequest wr;
  wr.wr_id = 9;
  wr.opcode = Opcode::kRead;
  wr.local_addr = reinterpret_cast<uint64_t>(local.data());
  wr.lkey = local_mr->lkey;
  wr.length = local.size();
  wr.remote_addr = reinterpret_cast<uint64_t>(remote.data());
  wr.rkey = remote_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(local, remote);
}

TEST_F(VerbsTest, ReadIsSlowerThanWriteBySmallRequestTrip) {
  // An RDMA read pays an extra request trip to the target before data flows.
  const size_t size = 4096;
  int64_t write_done = 0, read_done = 0;
  {
    sim::Simulator s;
    net::Fabric f(&s, cost_, 2);
    RdmaFabric r(&f);
    auto* cqa = r.nic(0)->CreateCompletionQueue();
    auto* cqb = r.nic(1)->CreateCompletionQueue();
    QueuePair* qa = r.nic(0)->CreateQueuePair(cqa, cqa);
    QueuePair* qb = r.nic(1)->CreateQueuePair(cqb, cqb);
    CHECK_OK(qa->Connect(qb));
    std::vector<uint8_t> src(size), dst(size);
    auto src_mr = r.nic(0)->RegisterMemory(src.data(), size);
    auto dst_mr = r.nic(1)->RegisterMemory(dst.data(), size);
    cqa->SetCompletionHandler([&] { write_done = s.Now(); });
    SendWorkRequest wr{1, Opcode::kWrite, reinterpret_cast<uint64_t>(src.data()), src_mr->lkey,
                       size, reinterpret_cast<uint64_t>(dst.data()), dst_mr->rkey};
    ASSERT_TRUE(qa->PostSend(wr).ok());
    ASSERT_TRUE(s.Run().ok());
  }
  {
    sim::Simulator s;
    net::Fabric f(&s, cost_, 2);
    RdmaFabric r(&f);
    auto* cqa = r.nic(0)->CreateCompletionQueue();
    auto* cqb = r.nic(1)->CreateCompletionQueue();
    QueuePair* qa = r.nic(0)->CreateQueuePair(cqa, cqa);
    QueuePair* qb = r.nic(1)->CreateQueuePair(cqb, cqb);
    CHECK_OK(qa->Connect(qb));
    std::vector<uint8_t> local(size), remote(size);
    auto local_mr = r.nic(0)->RegisterMemory(local.data(), size);
    auto remote_mr = r.nic(1)->RegisterMemory(remote.data(), size);
    cqa->SetCompletionHandler([&] { read_done = s.Now(); });
    SendWorkRequest wr{1, Opcode::kRead, reinterpret_cast<uint64_t>(local.data()),
                       local_mr->lkey, size, reinterpret_cast<uint64_t>(remote.data()),
                       remote_mr->rkey};
    ASSERT_TRUE(qa->PostSend(wr).ok());
    ASSERT_TRUE(s.Run().ok());
  }
  EXPECT_GT(read_done, write_done);
  EXPECT_LT(read_done, write_done + 2 * cost_.rdma_one_way_latency_ns +
                           4 * cost_.rdma_nic_processing_ns);
}

TEST_F(VerbsTest, WriteWithBadRkeyFailsWithErrorCompletion) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(128), dst(128);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  SendWorkRequest wr;
  wr.wr_id = 3;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = src.size();
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey + 999;  // Bogus key.
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  WorkCompletion wc;
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_FALSE(wc.status.ok());
  EXPECT_EQ(rdma_.nic(1)->stats().rkey_violations, 1u);
}

TEST_F(VerbsTest, WriteBeyondRegionBoundsFails) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(256), dst(128);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  SendWorkRequest wr;
  wr.wr_id = 4;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = 256;  // Larger than the 128-byte target region.
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  WorkCompletion wc;
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(VerbsTest, PostSendOnUnconnectedQpFails) {
  NicDevice* nic = rdma_.nic(0);
  CompletionQueue* cq = nic->CreateCompletionQueue();
  QueuePair* qp = nic->CreateQueuePair(cq, cq);
  std::vector<uint8_t> buf(64);
  auto mr = nic->RegisterMemory(buf.data(), buf.size());
  SendWorkRequest wr;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(buf.data());
  wr.lkey = mr->lkey;
  wr.length = 64;
  EXPECT_EQ(qp->PostSend(wr).code(), StatusCode::kFailedPrecondition);
}

TEST_F(VerbsTest, PostSendWithUnregisteredLocalBufferFails) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> buf(64);
  SendWorkRequest wr;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(buf.data());
  wr.lkey = 12345;
  wr.length = 64;
  EXPECT_EQ(qa->PostSend(wr).code(), StatusCode::kInvalidArgument);
}

TEST_F(VerbsTest, SendRecvDeliversMessage) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> msg(1000);
  std::iota(msg.begin(), msg.end(), 3);
  std::vector<uint8_t> recv_buf(4096, 0);
  auto msg_mr = rdma_.nic(0)->RegisterMemory(msg.data(), msg.size());
  auto recv_mr = rdma_.nic(1)->RegisterMemory(recv_buf.data(), recv_buf.size());

  RecvWorkRequest rwr;
  rwr.wr_id = 100;
  rwr.addr = reinterpret_cast<uint64_t>(recv_buf.data());
  rwr.lkey = recv_mr->lkey;
  rwr.length = recv_buf.size();
  ASSERT_TRUE(qb->PostRecv(rwr).ok());

  SendWorkRequest swr;
  swr.wr_id = 101;
  swr.opcode = Opcode::kSend;
  swr.local_addr = reinterpret_cast<uint64_t>(msg.data());
  swr.lkey = msg_mr->lkey;
  swr.length = msg.size();
  ASSERT_TRUE(qa->PostSend(swr).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  WorkCompletion wc;
  ASSERT_TRUE(qb->recv_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 100u);
  EXPECT_EQ(wc.byte_len, msg.size());
  EXPECT_TRUE(std::memcmp(recv_buf.data(), msg.data(), msg.size()) == 0);
}

TEST_F(VerbsTest, SendWaitsForPostedRecv) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> msg(100, 0x5A);
  std::vector<uint8_t> recv_buf(4096, 0);
  auto msg_mr = rdma_.nic(0)->RegisterMemory(msg.data(), msg.size());
  auto recv_mr = rdma_.nic(1)->RegisterMemory(recv_buf.data(), recv_buf.size());

  SendWorkRequest swr;
  swr.wr_id = 1;
  swr.opcode = Opcode::kSend;
  swr.local_addr = reinterpret_cast<uint64_t>(msg.data());
  swr.lkey = msg_mr->lkey;
  swr.length = msg.size();
  ASSERT_TRUE(qa->PostSend(swr).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  // No recv posted yet: nothing delivered.
  WorkCompletion wc;
  EXPECT_FALSE(qb->recv_cq()->Poll(&wc));

  RecvWorkRequest rwr;
  rwr.wr_id = 2;
  rwr.addr = reinterpret_cast<uint64_t>(recv_buf.data());
  rwr.lkey = recv_mr->lkey;
  rwr.length = recv_buf.size();
  ASSERT_TRUE(qb->PostRecv(rwr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(qb->recv_cq()->Poll(&wc));
  EXPECT_EQ(wc.byte_len, msg.size());
  EXPECT_EQ(recv_buf[0], 0x5A);
}

TEST_F(VerbsTest, OversizedSendCompletesWithError) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> msg(4096, 1);
  std::vector<uint8_t> recv_buf(100);
  auto msg_mr = rdma_.nic(0)->RegisterMemory(msg.data(), msg.size());
  auto recv_mr = rdma_.nic(1)->RegisterMemory(recv_buf.data(), recv_buf.size());

  RecvWorkRequest rwr;
  rwr.wr_id = 5;
  rwr.addr = reinterpret_cast<uint64_t>(recv_buf.data());
  rwr.lkey = recv_mr->lkey;
  rwr.length = recv_buf.size();
  ASSERT_TRUE(qb->PostRecv(rwr).ok());

  SendWorkRequest swr;
  swr.wr_id = 6;
  swr.opcode = Opcode::kSend;
  swr.local_addr = reinterpret_cast<uint64_t>(msg.data());
  swr.lkey = msg_mr->lkey;
  swr.length = msg.size();
  ASSERT_TRUE(qa->PostSend(swr).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  WorkCompletion wc;
  ASSERT_TRUE(qb->recv_cq()->Poll(&wc));
  EXPECT_FALSE(wc.status.ok());
}

TEST_F(VerbsTest, QpSerializesWorkRequestsInOrder) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(1024, 0x11);
  std::vector<uint8_t> dst(1024, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());

  std::vector<uint64_t> completion_order;
  qa->send_cq()->SetCompletionHandler([&] {
    WorkCompletion wc;
    while (qa->send_cq()->Poll(&wc)) completion_order.push_back(wc.wr_id);
  });
  for (uint64_t i = 0; i < 5; ++i) {
    SendWorkRequest wr;
    wr.wr_id = i;
    wr.opcode = Opcode::kWrite;
    wr.local_addr = reinterpret_cast<uint64_t>(src.data());
    wr.lkey = src_mr->lkey;
    wr.length = src.size();
    wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
    wr.rkey = dst_mr->rkey;
    ASSERT_TRUE(qa->PostSend(wr).ok());
  }
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_EQ(completion_order.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(completion_order[i], i);
}

TEST_F(VerbsTest, NicStatsTrackTraffic) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> a(2048), b(2048);
  auto a_mr = rdma_.nic(0)->RegisterMemory(a.data(), a.size());
  auto b_mr = rdma_.nic(1)->RegisterMemory(b.data(), b.size());
  SendWorkRequest wr;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(a.data());
  wr.lkey = a_mr->lkey;
  wr.length = 2048;
  wr.remote_addr = reinterpret_cast<uint64_t>(b.data());
  wr.rkey = b_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(rdma_.nic(0)->stats().writes, 1u);
  EXPECT_EQ(rdma_.nic(0)->stats().write_bytes, 2048u);
}

TEST_F(VerbsTest, ConnectTwiceFails) {
  auto [qa, qb] = ConnectedPair(0, 1);
  auto [qc, qd] = ConnectedPair(0, 1);
  EXPECT_EQ(qa->Connect(qc).code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Multi-extent writes, in the two WQE shapes the verbs layer offers: one
// scatter/gather WR (one CQE for the whole list) or a doorbell-chained batch
// of plain WRs over the same extents (one CQE per WR, in FIFO order). Both
// ring one doorbell, stream the extents in list order and share fate.
// ---------------------------------------------------------------------------

enum class WqeShape { kSgWr, kChain };

class VerbsShapeTest : public VerbsTest, public ::testing::WithParamInterface<WqeShape> {
 protected:
  bool sg() const { return GetParam() == WqeShape::kSgWr; }

  // Posts |extents| on |qp| in the parameter's shape; chained WRs are
  // numbered from |wr_id|.
  Status PostExtents(QueuePair* qp, uint64_t wr_id, uint32_t lkey, uint32_t rkey,
                     const std::vector<SgExtent>& extents) {
    if (sg()) {
      SendWorkRequest wr;
      wr.wr_id = wr_id;
      wr.opcode = Opcode::kWrite;
      wr.lkey = lkey;
      wr.rkey = rkey;
      wr.sge = extents;
      return qp->PostSend(wr);
    }
    std::vector<SendWorkRequest> chain;
    for (const SgExtent& e : extents) {
      chain.push_back(SendWorkRequest{wr_id++, Opcode::kWrite, e.local_addr, lkey, e.length,
                                      e.remote_addr, rkey});
    }
    return qp->PostSendBatch(std::move(chain));
  }

  // Completions the shape produces for |extents| extents.
  size_t Cqes(size_t extents) const { return sg() ? 1 : extents; }
};

INSTANTIATE_TEST_SUITE_P(WqeShapes, VerbsShapeTest,
                         ::testing::Values(WqeShape::kSgWr, WqeShape::kChain),
                         [](const ::testing::TestParamInfo<WqeShape>& info) {
                           return info.param == WqeShape::kSgWr ? "SgWr" : "Chain";
                         });

TEST_P(VerbsShapeTest, SgWritePostsOneDoorbellAndCompletesOnce) {
  auto [qa, qb] = ConnectedPair(0, 1);
  constexpr uint64_t kExtent = 16 * 1024;
  constexpr int kExtents = 4;
  std::vector<uint8_t> src(kExtents * kExtent);
  std::vector<uint8_t> dst(kExtents * kExtent, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  std::vector<SgExtent> extents;
  for (int i = 0; i < kExtents; ++i) {
    extents.push_back(SgExtent{reinterpret_cast<uint64_t>(src.data()) + i * kExtent,
                               reinterpret_cast<uint64_t>(dst.data()) + i * kExtent, kExtent});
  }
  const uint64_t doorbells_before = rdma_.nic(0)->stats().doorbells;
  ASSERT_TRUE(PostExtents(qa, 40, src_mr->lkey, dst_mr->rkey, extents).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_EQ(src, dst);
  // One doorbell for the whole list; one WQE per SG WR or per chained WR.
  const NicStats& stats = rdma_.nic(0)->stats();
  EXPECT_EQ(stats.doorbells - doorbells_before, 1u);
  EXPECT_EQ(stats.writes, sg() ? 1u : static_cast<uint64_t>(kExtents));
  EXPECT_EQ(stats.sg_writes, sg() ? 1u : 0u);
  EXPECT_EQ(stats.sg_extents, sg() ? static_cast<uint64_t>(kExtents) : 0u);
  EXPECT_EQ(stats.doorbell_batches, sg() ? 0u : 1u);
  // One CQE per WR in FIFO order; the SG WR's byte_len is the summed extent
  // bytes.
  WorkCompletion wc;
  for (size_t i = 0; i < Cqes(kExtents); ++i) {
    ASSERT_TRUE(qa->send_cq()->Poll(&wc));
    EXPECT_EQ(wc.wr_id, 40u + i);
    EXPECT_TRUE(wc.status.ok());
    EXPECT_EQ(wc.byte_len, sg() ? kExtents * kExtent : kExtent);
  }
  EXPECT_FALSE(qa->send_cq()->Poll(&wc));
}

TEST_F(VerbsTest, SgExtentsDeliverInListOrderWithAscendingPrefixPerExtent) {
  // The wire stream carries the extents in *list* order even when their
  // remote addresses descend: extent 0 targets the upper half of dst, extent
  // 1 the lower half. Within each extent, delivery is ascending-prefix — the
  // §3.2 guarantee, per extent.
  auto [qa, qb] = ConnectedPair(0, 1);
  const uint64_t half = 8 * cost_.rdma_mtu_bytes;
  std::vector<uint8_t> src(2 * half, 0xCD);
  std::vector<uint8_t> dst(2 * half, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());

  SendWorkRequest wr;
  wr.wr_id = 41;
  wr.opcode = Opcode::kWrite;
  wr.lkey = src_mr->lkey;
  wr.rkey = dst_mr->rkey;
  wr.sge = {SgExtent{reinterpret_cast<uint64_t>(src.data()),
                     reinterpret_cast<uint64_t>(dst.data()) + half, half},
            SgExtent{reinterpret_cast<uint64_t>(src.data()) + half,
                     reinterpret_cast<uint64_t>(dst.data()), half}};
  ASSERT_TRUE(qa->PostSend(wr).ok());

  bool saw_partial_first = false;
  for (int step = 0; step < 2000; ++step) {
    ASSERT_TRUE(simulator_.RunUntil(simulator_.Now() + 500).ok());
    // Ascending prefix within each extent.
    size_t w0 = 0;
    while (w0 < half && dst[half + w0] == 0xCD) ++w0;
    for (size_t i = w0; i < half; ++i) ASSERT_EQ(dst[half + i], 0);
    size_t w1 = 0;
    while (w1 < half && dst[w1] == 0xCD) ++w1;
    for (size_t i = w1; i < half; ++i) ASSERT_EQ(dst[i], 0);
    // List order: the second extent gets no bytes until the first completes.
    if (w1 > 0) {
      ASSERT_EQ(w0, half) << "extent 1 began before extent 0 finished";
    }
    if (w0 > 0 && w0 < half) saw_partial_first = true;
    if (w1 == half) break;
  }
  EXPECT_TRUE(saw_partial_first);
  EXPECT_EQ(dst, src);
}

TEST_P(VerbsShapeTest, SgWriteRetryRestartsEveryExtent) {
  sim::FaultInjector injector(1);
  sim::LinkFaultSpec spec;
  spec.drop_first_n = 2;  // First two wire attempts lose a segment.
  injector.SetLinkFault(0, 1, spec);
  fabric_.SetFaultInjector(&injector);

  auto [qa, qb] = ConnectedPair(0, 1);
  constexpr uint64_t kExtent = 32 * 1024;
  std::vector<uint8_t> src(3 * kExtent);
  std::vector<uint8_t> dst(3 * kExtent, 0);
  std::iota(src.begin(), src.end(), 5);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());

  std::vector<SgExtent> extents;
  for (int i = 0; i < 3; ++i) {
    extents.push_back(SgExtent{reinterpret_cast<uint64_t>(src.data()) + i * kExtent,
                               reinterpret_cast<uint64_t>(dst.data()) + i * kExtent, kExtent});
  }
  ASSERT_TRUE(PostExtents(qa, 42, src_mr->lkey, dst_mr->rkey, extents).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  // One retry budget for the whole WQE list; the retransmission restarted the
  // extent cursor so every extent's bytes are intact.
  EXPECT_EQ(src, dst);
  WorkCompletion wc;
  for (size_t i = 0; i < Cqes(extents.size()); ++i) {
    ASSERT_TRUE(qa->send_cq()->Poll(&wc));
    EXPECT_EQ(wc.wr_id, 42u + i);
    EXPECT_TRUE(wc.status.ok());
  }
  EXPECT_FALSE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(rdma_.nic(0)->stats().retransmissions, 2u);
  EXPECT_FALSE(qa->in_error());
}

TEST_P(VerbsShapeTest, SgWriteValidatesEveryExtentBeforeAnyByteMoves) {
  // The extents share fate like one WQE: a remote violation in the *last*
  // extent fails the whole request before the first extent's bytes land.
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(8192), dst(4096, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());

  const std::vector<SgExtent> extents = {
      SgExtent{reinterpret_cast<uint64_t>(src.data()), reinterpret_cast<uint64_t>(dst.data()),
               4096},
      SgExtent{reinterpret_cast<uint64_t>(src.data()) + 4096,
               reinterpret_cast<uint64_t>(dst.data()) + 4096, 4096}};  // Out of bounds.
  ASSERT_TRUE(PostExtents(qa, 43, src_mr->lkey, dst_mr->rkey, extents).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  // Every WR of the list completes with the violation.
  WorkCompletion wc;
  for (size_t i = 0; i < Cqes(extents.size()); ++i) {
    ASSERT_TRUE(qa->send_cq()->Poll(&wc));
    EXPECT_EQ(wc.wr_id, 43u + i);
    EXPECT_EQ(wc.status.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(rdma_.nic(1)->stats().rkey_violations, 1u);
  for (uint8_t b : dst) ASSERT_EQ(b, 0);  // No partial delivery.
}

TEST_F(VerbsTest, SgPostValidationRejectsBadLists) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(4096), dst(4096);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());

  SendWorkRequest wr;
  wr.opcode = Opcode::kRead;  // SG is kWrite-only.
  wr.lkey = src_mr->lkey;
  wr.rkey = dst_mr->rkey;
  wr.sge = {SgExtent{reinterpret_cast<uint64_t>(src.data()),
                     reinterpret_cast<uint64_t>(dst.data()), 4096}};
  EXPECT_EQ(qa->PostSend(wr).code(), StatusCode::kInvalidArgument);

  wr.opcode = Opcode::kWrite;
  wr.sge[0].length = 0;  // Zero-length extent.
  EXPECT_EQ(qa->PostSend(wr).code(), StatusCode::kInvalidArgument);

  wr.sge[0].length = 4096;
  wr.lkey = src_mr->lkey + 99;  // Unregistered local extent.
  EXPECT_EQ(qa->PostSend(wr).code(), StatusCode::kInvalidArgument);

  // SG WRs cannot ride in a doorbell-chained batch.
  wr.lkey = src_mr->lkey;
  EXPECT_EQ(qa->PostSendBatch({wr}).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Transport error paths under fault injection: retry, error-state flush
// semantics, and recovery.
// ---------------------------------------------------------------------------

TEST_F(VerbsTest, TransportRetryRecoversFromDroppedSegments) {
  sim::FaultInjector injector(1);
  sim::LinkFaultSpec spec;
  spec.drop_first_n = 2;  // First two wire attempts lose a segment.
  injector.SetLinkFault(0, 1, spec);
  fabric_.SetFaultInjector(&injector);

  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(64 * 1024), dst(64 * 1024, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());

  SendWorkRequest wr;
  wr.wr_id = 11;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = src.size();
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  // The retransmissions were transparent: one OK completion, correct bytes.
  EXPECT_EQ(src, dst);
  WorkCompletion wc;
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 11u);
  EXPECT_TRUE(wc.status.ok());
  EXPECT_FALSE(qa->send_cq()->Poll(&wc));  // Exactly one completion.
  EXPECT_EQ(rdma_.nic(0)->stats().retransmissions, 2u);
  EXPECT_FALSE(qa->in_error());
  EXPECT_EQ(injector.stats().forced_drops, 2u);
}

TEST_F(VerbsTest, RetryExhaustionErrorsQpAndFlushesQueuedWrsInOrder) {
  sim::FaultInjector injector(1);
  sim::LinkFaultSpec spec;
  spec.drop_first_n = 1'000'000;  // The link never heals.
  injector.SetLinkFault(0, 1, spec);
  fabric_.SetFaultInjector(&injector);

  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(4096), dst(4096);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  for (uint64_t id = 1; id <= 3; ++id) {
    SendWorkRequest wr;
    wr.wr_id = id;
    wr.opcode = Opcode::kWrite;
    wr.local_addr = reinterpret_cast<uint64_t>(src.data());
    wr.lkey = src_mr->lkey;
    wr.length = src.size();
    wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
    wr.rkey = dst_mr->rkey;
    ASSERT_TRUE(qa->PostSend(wr).ok());
  }
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_TRUE(qa->in_error());
  EXPECT_EQ(qa->error_cause().code(), StatusCode::kUnavailable);
  // CQ drains in FIFO order: the failing WR first with the transport error,
  // then the flushed WRs with kAborted.
  WorkCompletion wc;
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 1u);
  EXPECT_EQ(wc.status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 2u);
  EXPECT_EQ(wc.status.code(), StatusCode::kAborted);
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 3u);
  EXPECT_EQ(wc.status.code(), StatusCode::kAborted);
  EXPECT_FALSE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(rdma_.nic(0)->stats().flushed_wrs, 2u);
  // The retry budget was fully spent on the first WR.
  EXPECT_EQ(rdma_.nic(0)->stats().retransmissions,
            static_cast<uint64_t>(cost_.rdma_transport_retry_count));
}

TEST_F(VerbsTest, PostOnErroredQpCompletesWithFlushStatus) {
  sim::FaultInjector injector(1);
  sim::LinkFaultSpec spec;
  spec.drop_first_n = 1'000'000;
  injector.SetLinkFault(0, 1, spec);
  fabric_.SetFaultInjector(&injector);

  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(1024), dst(1024);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  SendWorkRequest wr;
  wr.wr_id = 21;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = src.size();
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(qa->in_error());
  WorkCompletion wc;
  while (qa->send_cq()->Poll(&wc)) {
  }

  // Posts against the errored QP are accepted (so device-layer CHECKs hold)
  // but complete with the flush status — never silently swallowed.
  wr.wr_id = 22;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  RecvWorkRequest rwr;
  rwr.wr_id = 23;
  rwr.addr = reinterpret_cast<uint64_t>(src.data());
  rwr.lkey = src_mr->lkey;
  rwr.length = src.size();
  ASSERT_TRUE(qa->PostRecv(rwr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 22u);
  EXPECT_EQ(wc.status.code(), StatusCode::kAborted);
  ASSERT_TRUE(qa->recv_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 23u);
  EXPECT_EQ(wc.status.code(), StatusCode::kAborted);
}

TEST_F(VerbsTest, RecoverReturnsErroredQpToService) {
  sim::FaultInjector injector(1);
  sim::LinkFaultSpec spec;
  // Exactly the initial attempt plus every retry: the budget runs dry, then
  // the link heals.
  spec.drop_first_n = 1 + cost_.rdma_transport_retry_count;
  injector.SetLinkFault(0, 1, spec);
  fabric_.SetFaultInjector(&injector);

  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(8192), dst(8192, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  SendWorkRequest wr;
  wr.wr_id = 31;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = src.size();
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(qa->in_error());
  WorkCompletion wc;
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.status.code(), StatusCode::kUnavailable);

  ASSERT_TRUE(qa->Recover().ok());
  EXPECT_FALSE(qa->in_error());
  wr.wr_id = 32;
  ASSERT_TRUE(qa->PostSend(wr).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 32u);
  EXPECT_TRUE(wc.status.ok());
  EXPECT_EQ(src, dst);
}

// ---------------------------------------------------------------------------
// QpPool: on-demand shared lanes, a typed error at the NIC QP cap, teardown
// on unregister, and determinism.
// ---------------------------------------------------------------------------

class QpPoolTest : public ::testing::Test {
 protected:
  struct TeardownRecord {
    Endpoint local;
    Endpoint remote;
    int lane;
  };

  // One self-contained stack per test so caps can vary.
  struct Stack {
    explicit Stack(net::CostModel cost, int hosts = 3)
        : fabric(&simulator, cost, hosts), rdma(&fabric), pool(&rdma) {}

    void Register(const Endpoint& ep, std::vector<TeardownRecord>* log = nullptr) {
      NicDevice* nic = rdma.nic(ep.host_id);
      CompletionQueue* cq = nic->CreateCompletionQueue();
      CHECK_OK(pool.RegisterEndpoint(
          ep, ep.host_id, [cq]() { return cq; },
          [log](const Endpoint& local, const Endpoint& remote, int lane) {
            if (log != nullptr) log->push_back({local, remote, lane});
          }));
    }

    sim::Simulator simulator;
    net::Fabric fabric;
    RdmaFabric rdma;
    QpPool pool;
  };

  static net::CostModel Capped(int max_qps) {
    net::CostModel cost;
    cost.max_queue_pairs = max_qps;
    return cost;
  }
};

TEST_F(QpPoolTest, AcquireCreatesOnceThenHitsFromBothEnds) {
  Stack s(net::CostModel{});
  const Endpoint a{0, 1}, b{1, 1};
  s.Register(a);
  s.Register(b);

  auto qa = s.pool.Acquire(a, b, /*lane=*/0);
  ASSERT_TRUE(qa.ok());
  auto qb = s.pool.Acquire(b, a, /*lane=*/0);
  ASSERT_TRUE(qb.ok());
  // Both directions share one connected lane.
  EXPECT_EQ((*qa)->peer(), *qb);
  EXPECT_EQ((*qb)->peer(), *qa);
  EXPECT_EQ(s.pool.num_lanes(), 1);
  EXPECT_EQ(s.pool.stats().creates, 1u);
  EXPECT_EQ(s.pool.stats().hits, 1u);
  EXPECT_EQ(*qa, *s.pool.Acquire(a, b, 0));
  EXPECT_EQ(s.pool.stats().hits, 2u);

  // Distinct stripe index = distinct lane.
  auto lane1 = s.pool.Acquire(a, b, /*lane=*/1);
  ASSERT_TRUE(lane1.ok());
  EXPECT_NE(*lane1, *qa);
  EXPECT_EQ(s.pool.num_lanes(), 2);

  // A pooled lane carries real traffic.
  std::vector<uint8_t> src(4096), dst(4096, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = s.rdma.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = s.rdma.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());
  SendWorkRequest wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = reinterpret_cast<uint64_t>(src.data());
  wr.lkey = src_mr->lkey;
  wr.length = src.size();
  wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey;
  ASSERT_TRUE((*qa)->PostSend(wr).ok());
  ASSERT_TRUE(s.simulator.Run().ok());
  EXPECT_EQ(src, dst);
}

TEST_F(QpPoolTest, AcquireRequiresRegisteredEndpoints) {
  Stack s(net::CostModel{});
  const Endpoint a{0, 1}, b{1, 1};
  s.Register(a);
  auto denied = s.pool.Acquire(a, b, 0);
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(s.pool.Acquire(a, a, 0).ok());
  EXPECT_FALSE(s.pool.Acquire(a, b, -1).ok());
}

TEST_F(QpPoolTest, CapReturnsResourceExhaustedAndCreatesNothing) {
  // One QP context per NIC: once the b-c lane holds hosts 1 and 2, no other
  // lane touching either host fits.
  Stack s(Capped(1));
  std::vector<TeardownRecord> log;
  const Endpoint a{0, 1}, b{1, 1}, c{2, 1};
  s.Register(a, &log);
  s.Register(b, &log);
  s.Register(c, &log);
  auto bc = s.pool.Acquire(b, c, 0);
  ASSERT_TRUE(bc.ok());

  // The cap binds on the far end: a's QP is created, then destroyed again.
  auto denied = s.pool.Acquire(a, b, 0);
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  // The cap binds on the near end before anything is created.
  denied = s.pool.Acquire(b, c, 1);
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);

  // Nothing was created, evicted or torn down.
  EXPECT_EQ(s.pool.num_lanes(), 1);
  EXPECT_EQ(s.pool.stats().creates, 1u);
  EXPECT_EQ(s.pool.stats().evictions, 0u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(s.rdma.nic(0)->num_queue_pairs(), 0);
  EXPECT_EQ(s.rdma.nic(1)->num_queue_pairs(), 1);
  EXPECT_EQ(s.rdma.nic(2)->num_queue_pairs(), 1);
  // The live lane still serves both ends.
  auto cb = s.pool.Acquire(c, b, 0);
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ((*cb)->peer(), *bc);
}

TEST_F(QpPoolTest, UnregisterTearsDownLanesAndNotifiesPeers) {
  Stack s(net::CostModel{});
  std::vector<TeardownRecord> log;
  const Endpoint a{0, 1}, b{1, 1}, c{2, 1};
  s.Register(a, &log);
  s.Register(b, &log);
  s.Register(c, &log);
  ASSERT_TRUE(s.pool.Acquire(a, b, 0).ok());
  ASSERT_TRUE(s.pool.Acquire(a, b, 1).ok());
  ASSERT_TRUE(s.pool.Acquire(b, c, 0).ok());

  s.pool.UnregisterEndpoint(b);
  // Every lane touching b is gone; the a-? and c-? owners heard about it.
  EXPECT_EQ(s.pool.num_lanes(), 0);
  EXPECT_FALSE(s.pool.registered(b));
  EXPECT_EQ(log.size(), 6u);  // 3 lanes x both sides.
  EXPECT_EQ(s.rdma.nic(1)->num_queue_pairs(), 0);

  // Idempotent for unknown endpoints.
  s.pool.UnregisterEndpoint(b);
}

TEST_F(QpPoolTest, SameSeedRunsProduceIdenticalTraces) {
  // The pooled path (creation order, hits on live lanes) must be fully
  // deterministic: two identical runs — acquisitions interleaved with
  // writes — yield byte-identical completion traces.
  auto run = [](std::vector<std::pair<uint64_t, int64_t>>* trace) {
    Stack s(net::CostModel{});
    const Endpoint a{0, 1}, b{1, 1}, c{2, 1};
    s.Register(a);
    s.Register(b);
    s.Register(c);
    std::vector<uint8_t> src(64 * 1024), dst(64 * 1024, 0);
    std::iota(src.begin(), src.end(), 0);
    auto src_mr = s.rdma.nic(0)->RegisterMemory(src.data(), src.size());
    auto dst_b = s.rdma.nic(1)->RegisterMemory(dst.data(), dst.size());
    auto dst_c = s.rdma.nic(2)->RegisterMemory(dst.data(), dst.size());
    CHECK(src_mr.ok() && dst_b.ok() && dst_c.ok());
    for (int round = 0; round < 6; ++round) {
      const Endpoint& remote = (round % 2 == 0) ? b : c;
      auto qp = s.pool.Acquire(a, remote, round % 3);
      CHECK(qp.ok()) << qp.status();
      SendWorkRequest wr;
      wr.wr_id = 100 + round;
      wr.opcode = Opcode::kWrite;
      wr.local_addr = reinterpret_cast<uint64_t>(src.data());
      wr.lkey = src_mr->lkey;
      wr.length = 4096 * (round + 1);
      wr.remote_addr = reinterpret_cast<uint64_t>(dst.data());
      wr.rkey = (round % 2 == 0) ? dst_b->rkey : dst_c->rkey;
      CHECK_OK((*qp)->PostSend(wr));
      CHECK_OK(s.simulator.Run());
      WorkCompletion wc;
      while ((*qp)->send_cq()->Poll(&wc)) {
        trace->push_back({wc.wr_id, s.simulator.Now()});
      }
    }
    trace->push_back({s.pool.stats().creates, static_cast<int64_t>(s.pool.num_lanes())});
  };
  std::vector<std::pair<uint64_t, int64_t>> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

}  // namespace
}  // namespace rdma
}  // namespace rdmadl
