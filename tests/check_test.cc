// Negative-test matrix for RdmaCheck (ISSUE 4): each protocol violation
// class is committed deliberately and must surface as exactly the right
// diagnostic kind — plus clean-run tests asserting the checker is silent on
// correct protocol use and on full session teardown (the teardown tests are
// the regressions for the MR/arena leaks RdmaCheck originally surfaced in
// ZeroCopyRdmaMechanism, RdmaDevice and HostRuntime).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "src/check/mutation.h"
#include "src/check/rdma_check.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/ops/kernel.h"
#include "src/rdma/verbs.h"
#include "src/runtime/session.h"
#include "src/sim/fault.h"
#include "src/tensor/arena_allocator.h"

namespace rdmadl {
namespace {

using check::DiagKind;
using check::RdmaCheck;
using check::SgExtentInfo;
using graph::Graph;
using graph::Node;
using rdma::CompletionQueue;
using rdma::MemoryRegion;
using rdma::NicDevice;
using rdma::Opcode;
using rdma::QueuePair;
using rdma::RdmaFabric;
using rdma::SendWorkRequest;
using rdma::WorkCompletion;
using runtime::Cluster;
using runtime::ClusterOptions;
using runtime::DistributedSession;
using runtime::SessionOptions;
using tensor::Tensor;
using tensor::TensorShape;

// ---------------------------------------------------------------------------
// Verbs-level fixture: the checker is installed before any MR or QP exists
// and outlives the whole fabric.
// ---------------------------------------------------------------------------

class RdmaCheckVerbsTest : public ::testing::Test {
 protected:
  RdmaCheckVerbsTest() : fabric_(&simulator_, cost_, 3), rdma_(&fabric_) {}

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

  SendWorkRequest WriteWr(uint64_t wr_id, const std::vector<uint8_t>& src, uint32_t lkey,
                          const std::vector<uint8_t>& dst, uint32_t rkey,
                          uint64_t length) {
    SendWorkRequest wr;
    wr.wr_id = wr_id;
    wr.opcode = Opcode::kWrite;
    wr.local_addr = reinterpret_cast<uint64_t>(src.data());
    wr.lkey = lkey;
    wr.length = length;
    wr.remote_addr = reinterpret_cast<uint64_t>(const_cast<uint8_t*>(dst.data()));
    wr.rkey = rkey;
    return wr;
  }

  RdmaCheck checker_;
  sim::Simulator simulator_;
  net::CostModel cost_;
  net::Fabric fabric_;
  RdmaFabric rdma_;
};

TEST_F(RdmaCheckVerbsTest, CleanOneSidedWriteProducesNoDiagnostics) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(256 * 1024);
  std::vector<uint8_t> dst(256 * 1024, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  ASSERT_TRUE(qa->PostSend(WriteWr(1, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(src, dst);

  ASSERT_TRUE(rdma_.nic(0)->DeregisterMemory(*src_mr).ok());
  ASSERT_TRUE(rdma_.nic(1)->DeregisterMemory(*dst_mr).ok());
  EXPECT_TRUE(checker_.Finalize().empty()) << checker_.Report();
}

TEST_F(RdmaCheckVerbsTest, UseAfterDeregisterMidFlightIsDetected) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(1 << 20, 0xab);
  std::vector<uint8_t> dst(1 << 20, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  ASSERT_TRUE(qa->PostSend(WriteWr(2, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  // Run until the first segment has landed, then yank the target MR while the
  // rest of the write is still on the wire.
  ASSERT_TRUE(simulator_.RunUntilPredicate([&]() { return dst[0] == 0xab; }).ok());
  ASSERT_NE(dst[dst.size() - 1], 0xab) << "transfer finished before deregistration";
  ASSERT_TRUE(rdma_.nic(1)->DeregisterMemory(*dst_mr).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  ASSERT_GE(checker_.count(DiagKind::kUseAfterDeregister), 1) << checker_.Report();
  const check::Diagnostic& d = checker_.diagnostics().front();
  EXPECT_EQ(d.kind, DiagKind::kUseAfterDeregister);
  EXPECT_EQ(d.src_host, 0);
  EXPECT_EQ(d.dst_host, 1);
  EXPECT_EQ(d.wr_id, 2u);
  EXPECT_GT(d.vtime_ns, 0);
}

TEST_F(RdmaCheckVerbsTest, StaleRkeyAfterRebuildIsDetected) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(4096, 1);
  std::vector<uint8_t> dst(4096, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto old_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && old_mr.ok());
  // Rebuild: the receiver re-registers its buffer; the old rkey dies.
  ASSERT_TRUE(rdma_.nic(1)->DeregisterMemory(*old_mr).ok());
  auto new_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(new_mr.ok());

  // A sender that cached the pre-rebuild rkey commits the §3.2 rebuild bug.
  ASSERT_TRUE(qa->PostSend(WriteWr(3, src, src_mr->lkey, dst, old_mr->rkey, src.size())).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_EQ(checker_.count(DiagKind::kStaleRkey), 1) << checker_.Report();
  // The NIC also refuses the write, as on real hardware.
  WorkCompletion wc;
  ASSERT_TRUE(qa->send_cq()->Poll(&wc));
  EXPECT_FALSE(wc.status.ok());
}

TEST_F(RdmaCheckVerbsTest, OutOfBoundsWriteIsDetected) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(8192, 1);
  std::vector<uint8_t> dst(8192, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  // Only the first half of dst is registered: a whole-buffer RemoteSlice
  // escapes the MR.
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size() / 2);
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  ASSERT_TRUE(qa->PostSend(WriteWr(4, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_EQ(checker_.count(DiagKind::kOutOfBounds), 1) << checker_.Report();
  EXPECT_EQ(checker_.count(DiagKind::kStaleRkey), 0);
}

TEST_F(RdmaCheckVerbsTest, OverlappingUnorderedWritesAreDetectedAsRace) {
  // Two QPs from host 0 into the same MR of host 1: the writes are posted
  // back-to-back, so they are in flight simultaneously with no completion
  // edge between them — a remote race on the overlapping range.
  auto [qa1, qb1] = ConnectedPair(0, 1);
  auto [qa2, qb2] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(512 * 1024, 7);
  std::vector<uint8_t> dst(512 * 1024, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  ASSERT_TRUE(
      qa1->PostSend(WriteWr(10, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(
      qa2->PostSend(WriteWr(11, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  ASSERT_EQ(checker_.count(DiagKind::kRemoteRace), 1) << checker_.Report();
  const check::Diagnostic& d = checker_.diagnostics().front();
  EXPECT_EQ(d.dst_host, 1);
  EXPECT_EQ(d.wr_id, 11u);  // The later post is the racing access.
}

TEST_F(RdmaCheckVerbsTest, SameQpOverlappingWritesAreFifoOrderedNotARace) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(512 * 1024, 7);
  std::vector<uint8_t> dst(512 * 1024, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  // Same QP, same target range: the engine serializes them (FIFO HB edge).
  ASSERT_TRUE(qa->PostSend(WriteWr(20, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(qa->PostSend(WriteWr(21, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_EQ(checker_.count(DiagKind::kRemoteRace), 0) << checker_.Report();
}

TEST_F(RdmaCheckVerbsTest, DisjointConcurrentWritesAreNotARace) {
  auto [qa1, qb1] = ConnectedPair(0, 1);
  auto [qa2, qb2] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(512 * 1024, 7);
  std::vector<uint8_t> dst(512 * 1024, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  // Two QPs, disjoint halves of the MR — the ring-allreduce access pattern.
  SendWorkRequest lo = WriteWr(30, src, src_mr->lkey, dst, dst_mr->rkey, src.size() / 2);
  SendWorkRequest hi = lo;
  hi.wr_id = 31;
  hi.remote_addr += src.size() / 2;
  ASSERT_TRUE(qa1->PostSend(lo).ok());
  ASSERT_TRUE(qa2->PostSend(hi).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_EQ(checker_.count(DiagKind::kRemoteRace), 0) << checker_.Report();
}

TEST_F(RdmaCheckVerbsTest, TransportRetryDoesNotFalseAlarm) {
  // A dropped segment truncates the transfer and the RC retry rewrites from
  // offset 0: the checker must treat the retry as the same WR (ascending
  // prefix resets, no fresh race window), not as a violation.
  sim::FaultInjector injector(/*seed=*/5);
  sim::LinkFaultSpec spec;
  spec.drop_first_n = 2;
  injector.SetLinkFault(0, 1, spec);
  fabric_.SetFaultInjector(&injector);

  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(256 * 1024);
  std::vector<uint8_t> dst(256 * 1024, 0);
  std::iota(src.begin(), src.end(), 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());

  ASSERT_TRUE(qa->PostSend(WriteWr(40, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(simulator_.Run().ok());

  EXPECT_EQ(src, dst);
  EXPECT_EQ(injector.stats().forced_drops, 2u);
  EXPECT_EQ(checker_.diagnostics().size(), 0u) << checker_.Report();
}

TEST_F(RdmaCheckVerbsTest, LeakedMrIsReportedAtFinalize) {
  std::vector<uint8_t> buf(4096);
  auto mr = rdma_.nic(2)->RegisterMemory(buf.data(), buf.size());
  ASSERT_TRUE(mr.ok());
  // No deregistration before Finalize: a leak.
  const auto& diags = checker_.Finalize();
  ASSERT_EQ(diags.size(), 1u) << checker_.Report();
  EXPECT_EQ(diags[0].kind, DiagKind::kLeakedMemoryRegion);
  EXPECT_EQ(diags[0].dst_host, 2);
}

TEST_F(RdmaCheckVerbsTest, DestroyingQpWithInFlightWriteIsDetected) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(1 << 20, 0x5a);
  std::vector<uint8_t> dst(1 << 20, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());
  ASSERT_TRUE(qa->PostSend(WriteWr(1, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  // Let the transfer start, then rip the QP out mid-flight — the QP-pool
  // bug class this diagnostic exists for (evicting a non-idle lane).
  ASSERT_TRUE(simulator_.RunUntil(simulator_.Now() + 1000).ok());
  ASSERT_TRUE(rdma_.nic(0)->DestroyQueuePair(qa).ok());
  EXPECT_GE(checker_.count(DiagKind::kQpDestroyedInFlight), 1) << checker_.Report();
  // The simulator is NOT run further: queued events may name the dead QP.
}

TEST_F(RdmaCheckVerbsTest, DestroyingIdleQpIsClean) {
  auto [qa, qb] = ConnectedPair(0, 1);
  std::vector<uint8_t> src(64 * 1024, 0x21);
  std::vector<uint8_t> dst(64 * 1024, 0);
  auto src_mr = rdma_.nic(0)->RegisterMemory(src.data(), src.size());
  auto dst_mr = rdma_.nic(1)->RegisterMemory(dst.data(), dst.size());
  ASSERT_TRUE(src_mr.ok() && dst_mr.ok());
  ASSERT_TRUE(qa->PostSend(WriteWr(1, src, src_mr->lkey, dst, dst_mr->rkey, src.size())).ok());
  ASSERT_TRUE(simulator_.Run().ok());
  EXPECT_EQ(src, dst);
  ASSERT_TRUE(rdma_.nic(0)->DestroyQueuePair(qa).ok());
  ASSERT_TRUE(rdma_.nic(1)->DestroyQueuePair(qb).ok());
  EXPECT_EQ(checker_.count(DiagKind::kQpDestroyedInFlight), 0) << checker_.Report();
  ASSERT_TRUE(rdma_.nic(0)->DeregisterMemory(*src_mr).ok());
  ASSERT_TRUE(rdma_.nic(1)->DeregisterMemory(*dst_mr).ok());
  EXPECT_TRUE(checker_.Finalize().empty()) << checker_.Report();
}

// ---------------------------------------------------------------------------
// Hook-level checks for the invariants the healthy stack cannot be made to
// violate from the outside (ascending delivery, flag-read ordering): feed the
// checker the violating event sequence directly.
// ---------------------------------------------------------------------------

TEST(RdmaCheckHookTest, NonAscendingSegmentIsDetected) {
  RdmaCheck checker;
  const uint64_t id = checker.TransferStarted(0, 1, 4096, /*now_ns=*/10);
  checker.TransferSegment(id, 0, 1024, 20);
  checker.TransferSegment(id, 2048, 1024, 30);  // Skips [1024, 2048): a gap.
  ASSERT_EQ(checker.count(DiagKind::kNonAscendingSegment), 1) << checker.Report();
  checker.TransferFinished(id);
}

TEST(RdmaCheckHookTest, NonAscendingWriteSegmentIsDetected) {
  RdmaCheck checker;
  checker.WritePosted(0, 1, /*qp_num=*/5, /*wr_id=*/9, /*remote_addr=*/0x1000,
                      /*length=*/4096, /*rkey=*/77, /*now_ns=*/10);
  checker.WriteSegment(0, 5, 9, /*offset=*/1024, 1024, 20);  // First segment not at 0.
  EXPECT_EQ(checker.count(DiagKind::kNonAscendingSegment), 1) << checker.Report();
  checker.WriteFinished(0, 5, 9, 30);
}

TEST(RdmaCheckHookTest, PrematureFlagReadIsDetected) {
  RdmaCheck checker;
  uint8_t flag = 0;
  checker.FlagLocation(1, &flag, "w:grad->ps:0");
  // The receiver trusts the flag before any write covering it landed — the
  // §3.2 bug the tail-flag protocol exists to prevent.
  checker.FlagTrusted(1, &flag, /*now_ns=*/50);
  const auto& diags = checker.diagnostics();
  ASSERT_EQ(diags.size(), 1u) << checker.Report();
  EXPECT_EQ(diags[0].kind, DiagKind::kPrematureFlagRead);
  EXPECT_EQ(diags[0].dst_host, 1);
  EXPECT_NE(diags[0].message.find("w:grad->ps:0"), std::string::npos);
}

TEST(RdmaCheckHookTest, FlagReadAfterCoveringSegmentIsClean) {
  RdmaCheck checker;
  uint8_t payload[64] = {0};
  uint8_t* flag = &payload[63];  // Paper layout: flag at the buffer tail.
  checker.FlagLocation(1, flag, "w:grad->ps:0");
  checker.WritePosted(0, 1, 5, 9, reinterpret_cast<uint64_t>(payload), 64, 77, 10);
  checker.WriteSegment(0, 5, 9, 0, 64, 20);  // Covers the flag byte.
  checker.WriteFinished(0, 5, 9, 30);
  checker.FlagTrusted(1, flag, 40);
  checker.FlagCleared(1, flag);
  // After the clear the flag must land again before the next trust.
  checker.FlagTrusted(1, flag, 50);
  EXPECT_EQ(checker.count(DiagKind::kPrematureFlagRead), 1) << checker.Report();
}

TEST(RdmaCheckHookTest, SgExtentFilledOutOfListOrderIsDetected) {
  RdmaCheck checker;
  uint8_t a[1024] = {0};
  uint8_t b[1024] = {0};
  checker.SgWritePosted(0, 1, /*qp_num=*/5, /*wr_id=*/9,
                        {SgExtentInfo{reinterpret_cast<uint64_t>(a), 1024},
                         SgExtentInfo{reinterpret_cast<uint64_t>(b), 1024}},
                        /*rkey=*/77, /*now_ns=*/10);
  // A segment lands in extent 1 while the list cursor still expects extent 0:
  // the one-wire-stream/list-order contract is broken.
  checker.SgWriteSegment(0, 5, 9, /*extent_idx=*/1, /*offset=*/0, 512, 20);
  EXPECT_EQ(checker.count(DiagKind::kSgExtentOutOfOrder), 1) << checker.Report();
  checker.WriteFinished(0, 5, 9, 30);
}

TEST(RdmaCheckHookTest, SgExtentsFilledInListOrderAreClean) {
  RdmaCheck checker;
  uint8_t a[1024] = {0};
  uint8_t b[1024] = {0};
  checker.SgWritePosted(0, 1, 5, 9,
                        {SgExtentInfo{reinterpret_cast<uint64_t>(a), 1024},
                         SgExtentInfo{reinterpret_cast<uint64_t>(b), 1024}},
                        77, 10);
  checker.SgWriteSegment(0, 5, 9, 0, 0, 512, 20);
  checker.SgWriteSegment(0, 5, 9, 0, 512, 512, 25);
  checker.SgWriteSegment(0, 5, 9, 1, 0, 1024, 30);
  checker.WriteFinished(0, 5, 9, 40);
  EXPECT_EQ(checker.diagnostics().size(), 0u) << checker.Report();
}

TEST(RdmaCheckHookTest, FlagRidingInsideSgListIsDetected) {
  RdmaCheck checker;
  uint8_t a[64] = {0};
  uint8_t b[64] = {0};
  // The flag byte sits at the tail of the FIRST extent: sibling extent b
  // lands after it, so a receiver polling the flag can trust a payload whose
  // second extent does not exist yet.
  checker.FlagLocation(1, &a[63], "w:grad->ps:0");
  checker.SgWritePosted(0, 1, /*qp_num=*/5, /*wr_id=*/9,
                        {SgExtentInfo{reinterpret_cast<uint64_t>(a), 64},
                         SgExtentInfo{reinterpret_cast<uint64_t>(b), 64}},
                        /*rkey=*/77, /*now_ns=*/10);
  const auto& diags = checker.diagnostics();
  ASSERT_EQ(checker.count(DiagKind::kFlagInSgList), 1) << checker.Report();
  EXPECT_NE(diags[0].message.find("w:grad->ps:0"), std::string::npos);
  checker.WriteFinished(0, 5, 9, 30);
}

TEST(RdmaCheckHookTest, FlagAsFinalByteOfFinalSgExtentIsClean) {
  RdmaCheck checker;
  uint8_t a[64] = {0};
  uint8_t b[64] = {0};
  // Paper layout lifted to SG: the flag is the last byte the wire delivers —
  // the final byte of the final extent — so §3.2 holds for every extent.
  checker.FlagLocation(1, &b[63], "w:grad->ps:0");
  checker.SgWritePosted(0, 1, 5, 9,
                        {SgExtentInfo{reinterpret_cast<uint64_t>(a), 64},
                         SgExtentInfo{reinterpret_cast<uint64_t>(b), 64}},
                        77, 10);
  checker.SgWriteSegment(0, 5, 9, 0, 0, 64, 20);
  checker.SgWriteSegment(0, 5, 9, 1, 0, 64, 25);
  checker.WriteFinished(0, 5, 9, 30);
  checker.FlagTrusted(1, &b[63], 40);
  EXPECT_EQ(checker.diagnostics().size(), 0u) << checker.Report();
}

// ---------------------------------------------------------------------------
// ISSUE 7 paths: the multi-level collective schedules add fabric-sourced
// fanout transfers (in-network delivery, src = -1), per-op declared flag
// sets, and deep slot layouts. The checker must keep catching violations on
// each of them — these feed the violating sequences directly, mirroring how
// the hierarchical/in-network code drives the hooks.
// ---------------------------------------------------------------------------

TEST(RdmaCheckHookTest, InNetworkFanoutDeliveryGapIsDetected) {
  RdmaCheck checker;
  // Switch-engine delivery: the reduced window leaves a ToR engine, not a
  // peer host (src_host = -1, as SwitchReduceStage posts it).
  const uint64_t id = checker.TransferStarted(-1, 3, 2048, /*now_ns=*/10);
  checker.TransferSegment(id, 1024, 1024, 20);  // First segment not at 0.
  ASSERT_EQ(checker.count(DiagKind::kNonAscendingSegment), 1) << checker.Report();
  checker.TransferFinished(id);
}

TEST(RdmaCheckHookTest, PrematureTrustOfDeclaredHierarchicalFlagIsDetected) {
  RdmaCheck checker;
  uint8_t flag = 0;
  // The hierarchical schedule declares every tree/ring/broadcast flag it
  // will poll up front; trusting one before its write landed is the same
  // §3.2 bug on the new layout.
  checker.FlagLocation(2, &flag, "allreduce h-tree r5 f2");
  checker.FlagTrusted(2, &flag, /*now_ns=*/40);
  const auto& diags = checker.diagnostics();
  ASSERT_EQ(diags.size(), 1u) << checker.Report();
  EXPECT_EQ(diags[0].kind, DiagKind::kPrematureFlagRead);
  EXPECT_NE(diags[0].message.find("h-tree r5 f2"), std::string::npos);
}

TEST(RdmaCheckHookTest, ForgottenFlagIsNoLongerTracked) {
  RdmaCheck checker;
  uint8_t payload[32] = {0};
  uint8_t* flag = &payload[31];
  checker.FlagLocation(4, flag, "allreduce h-ring r0 f7");
  checker.WritePosted(1, 4, 6, 11, reinterpret_cast<uint64_t>(payload), 32, 88, 10);
  checker.WriteSegment(1, 6, 11, 0, 32, 20);
  checker.WriteFinished(1, 6, 11, 30);
  checker.FlagTrusted(4, flag, 40);
  EXPECT_EQ(checker.diagnostics().size(), 0u) << checker.Report();
  // Op teardown forgets the declaration; the address can be reused by the
  // next op's layout without the stale landed/cleared state misfiring.
  checker.FlagForgotten(4, flag);
  checker.FlagTrusted(4, flag, 50);
  EXPECT_EQ(checker.diagnostics().size(), 0u) << checker.Report();
}

TEST(RdmaCheckHookTest, OverlappingTreeSlotWritesAreARemoteRace) {
  RdmaCheck checker;
  // Two children of one binomial-tree parent writing into the same staging
  // slot concurrently — the bug class a double-booked hierarchical slot
  // layout would produce. Different source QPs, overlapping target range,
  // both in flight: no happens-before edge.
  checker.WritePosted(5, 4, /*qp_num=*/2, /*wr_id=*/1, /*remote_addr=*/0x8000,
                      /*length=*/1024, /*rkey=*/7, /*now_ns=*/10);
  checker.WritePosted(6, 4, /*qp_num=*/3, /*wr_id=*/1, /*remote_addr=*/0x8200,
                      /*length=*/1024, /*rkey=*/7, /*now_ns=*/15);
  ASSERT_EQ(checker.count(DiagKind::kRemoteRace), 1) << checker.Report();
  checker.WriteFinished(5, 2, 1, 20);
  checker.WriteFinished(6, 3, 1, 25);

  // Disjoint slots — the layout the schedule actually computes — are clean,
  // as is reuse of the first range after its write completed (the wire
  // completion is the happens-before edge).
  checker.WritePosted(5, 4, 2, 2, 0x9000, 1024, 7, 30);
  checker.WritePosted(6, 4, 3, 2, 0x9400, 1024, 7, 35);
  checker.WriteFinished(5, 2, 2, 40);
  checker.WritePosted(7, 4, 9, 1, 0x9000, 1024, 7, 45);
  checker.WriteFinished(6, 3, 2, 50);
  checker.WriteFinished(7, 9, 1, 55);
  EXPECT_EQ(checker.count(DiagKind::kRemoteRace), 1) << checker.Report();
}

TEST(RdmaCheckHookTest, LeakedArenaCarveOutIsReportedAtArenaDestruction) {
  RdmaCheck checker;
  std::vector<uint8_t> storage(4096);
  {
    tensor::ArenaAllocator arena(storage.data(), storage.size(), "leak-test");
    ASSERT_NE(arena.Allocate(128), nullptr);
    void* returned = arena.Allocate(256);
    ASSERT_NE(returned, nullptr);
    arena.Deallocate(returned);
    // The 128-byte carve-out is never returned; the arena dies with it live.
  }
  const auto& diags = checker.diagnostics();
  ASSERT_EQ(diags.size(), 1u) << checker.Report();
  EXPECT_EQ(diags[0].kind, DiagKind::kLeakedArenaBlock);
  EXPECT_NE(diags[0].message.find("leak-test"), std::string::npos);
  EXPECT_NE(diags[0].message.find("128"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Whole-session clean runs: the zero-copy protocol, session teardown and
// cluster teardown must be diagnostic-free. These are the regression tests
// for the leaks RdmaCheck surfaced when first turned on: the mechanism's
// per-host flag-source carve-outs, RdmaDevice's RPC slab MRs, and
// HostRuntime's raw meta/virtual-arena registrations.
// ---------------------------------------------------------------------------

class RdmaCheckSessionTest : public ::testing::Test {
 protected:
  static void BuildWorld(Graph* graph, std::unique_ptr<Cluster>* cluster,
                         ops::ComputeMode mode) {
    ClusterOptions options;
    options.num_machines = 2;
    options.mode = mode;
    options.process_defaults.rdma_arena_bytes = 32ull << 20;
    *cluster = std::make_unique<Cluster>(options);
    CHECK_OK((*cluster)->AddProcess("ps:0", 0).status());
    CHECK_OK((*cluster)->AddProcess("worker:0", 1).status());
    ops::RegisterStandardOps();
    Node* w = *graph->AddNode("w", "Variable", std::vector<Node*>{});
    w->SetAttr("shape", TensorShape{int64_t{50'000}});
    w->SetAttr("init", std::string("uniform"));
    w->set_device("ps:0");
    Node* consume = *graph->AddNode("consume", "ReduceSum", {w});
    consume->set_device("worker:0");
  }

  void RunCleanSession(ops::ComputeMode mode, comm::ZeroCopyOptions zc_options) {
    RdmaCheck checker;
    {
      Graph graph;
      std::unique_ptr<Cluster> cluster;
      BuildWorld(&graph, &cluster, mode);
      auto mechanism =
          std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster.get(), zc_options);
      {
        DistributedSession session(cluster.get(), mechanism.get(), &graph, SessionOptions{});
        ASSERT_TRUE(session.Setup().ok());
        for (int step = 0; step < 3; ++step) {
          ASSERT_TRUE(session.RunStep().ok());
        }
      }
      mechanism.reset();  // Rebuild-path teardown: carve-outs must come back.
      cluster.reset();    // Full teardown: every MR must be deregistered.
    }
    EXPECT_TRUE(checker.Finalize().empty())
        << "protocol violations or leaks in clean run:\n" << checker.Report();
  }
};

TEST_F(RdmaCheckSessionTest, StaticProtocolSessionAndTeardownAreDiagnosticFree) {
  RunCleanSession(ops::ComputeMode::kReal, comm::ZeroCopyOptions{});
}

TEST_F(RdmaCheckSessionTest, DynamicProtocolSessionAndTeardownAreDiagnosticFree) {
  comm::ZeroCopyOptions options;
  options.force_dynamic = true;
  RunCleanSession(ops::ComputeMode::kReal, options);
}

TEST_F(RdmaCheckSessionTest, VirtualMemorySessionAndTeardownAreDiagnosticFree) {
  // Virtual-memory mode registers raw (never-dereferenced) address ranges
  // with the NIC; those registrations must still be undone at teardown.
  RunCleanSession(ops::ComputeMode::kSimulated, comm::ZeroCopyOptions{});
}

TEST_F(RdmaCheckSessionTest, PrematureFlagTrustOnZeroCopyReceiveIsDetected) {
  // The seeded bug at the zero-copy receive's poll (check::PollFlag): the
  // receiver acts on the tensor after a poll miss, before the sender's write
  // covering the flag byte has landed.
  RdmaCheck checker;
  Graph graph;
  std::unique_ptr<Cluster> cluster;
  BuildWorld(&graph, &cluster, ops::ComputeMode::kReal);
  auto mechanism =
      std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster.get(), comm::ZeroCopyOptions{});
  {
    DistributedSession session(cluster.get(), mechanism.get(), &graph, SessionOptions{});
    ASSERT_TRUE(session.Setup().ok());
    ASSERT_EQ(checker.count(DiagKind::kPrematureFlagRead), 0) << checker.Report();
    check::ScopedMutation mutation(check::kPrematureFlagTrust);
    (void)session.RunStep();  // The step itself may or may not notice.
  }
  EXPECT_GE(checker.count(DiagKind::kPrematureFlagRead), 1) << checker.Report();
}

TEST_F(RdmaCheckSessionTest, ExecutorPollsOfAFlagThatNeverLandsReachTheChecker) {
  // The seeded bug drops the sender's flag write, so the worker's receive
  // misses every poll until the step deadline. Each idle pass of the
  // executor polls it, and every poll must reach the checker: the stall
  // report names the receive flag with its poll count.
  RdmaCheck checker;
  Graph graph;
  std::unique_ptr<Cluster> cluster;
  BuildWorld(&graph, &cluster, ops::ComputeMode::kReal);
  auto mechanism =
      std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster.get(), comm::ZeroCopyOptions{});
  SessionOptions options;
  options.step_timeout_ns = sim::Milliseconds(5);
  DistributedSession session(cluster.get(), mechanism.get(), &graph, options);
  ASSERT_TRUE(session.Setup().ok());
  check::ScopedMutation mutation(check::kSkipFlagWrite);
  const Status status = session.RunStep();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  ASSERT_EQ(session.transfer_edges().size(), 1u);
  const std::string& edge_key = session.transfer_edges()[0].key;
  bool named = false;
  for (const RdmaCheck::PendingFlag& flag : checker.PendingFlags()) {
    if (flag.edge_key != edge_key) continue;
    named = true;
    EXPECT_GE(flag.polls, 2u);
  }
  EXPECT_TRUE(named) << "no pending flag for edge " << edge_key << "\n" << checker.Report();
}

TEST_F(RdmaCheckSessionTest, MechanismTeardownReturnsFlagSourceCarveOuts) {
  // Targeted regression for the flag-source leak: after the mechanism dies,
  // the sender's meta arena must be completely empty again.
  Graph graph;
  std::unique_ptr<Cluster> cluster;
  BuildWorld(&graph, &cluster, ops::ComputeMode::kReal);
  {
    auto mechanism = std::make_unique<comm::ZeroCopyRdmaMechanism>(
        cluster.get(), comm::ZeroCopyOptions{});
    DistributedSession session(cluster.get(), mechanism.get(), &graph, SessionOptions{});
    ASSERT_TRUE(session.Setup().ok());
    ASSERT_TRUE(session.RunStep().ok());
    ASSERT_TRUE(session.RunStep().ok());
    // The sender (ps:0) allocated its 1-byte "flag = 1" source by now.
    auto meta = cluster->host("ps:0")->meta_arena();
    ASSERT_TRUE(meta.ok());
    EXPECT_GT((*meta)->allocator->stats().bytes_in_use, 0);
  }
  for (const char* device : {"ps:0", "worker:0"}) {
    auto meta = cluster->host(device)->meta_arena();
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ((*meta)->allocator->stats().bytes_in_use, 0)
        << device << " meta arena still holds mechanism carve-outs";
  }
}

}  // namespace
}  // namespace rdmadl
