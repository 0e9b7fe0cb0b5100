#include "src/rdma/verbs.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "src/check/mutation.h"
#include "src/check/rdma_check.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace rdma {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kWrite:
      return "RDMA_WRITE";
    case Opcode::kRead:
      return "RDMA_READ";
    case Opcode::kSend:
      return "SEND";
    case Opcode::kRecv:
      return "RECV";
  }
  return "?";
}

// ----------------------------------------------------------- CompletionQueue

bool CompletionQueue::Poll(WorkCompletion* wc) {
  if (entries_.empty()) return false;
  *wc = std::move(entries_.front());
  entries_.pop_front();
  return true;
}

void CompletionQueue::Push(WorkCompletion wc) {
  entries_.push_back(std::move(wc));
  if (handler_) {
    // The handler models the device library's CQ poller context picking the
    // entry up; the cq_poll_overhead is charged by the QP before pushing.
    handler_();
  }
}

// ----------------------------------------------------------------- QueuePair

Status QueuePair::Connect(QueuePair* peer) {
  if (peer_ != nullptr) {
    return FailedPrecondition("QP already connected");
  }
  if (peer == nullptr || peer == this) {
    return InvalidArgument("invalid peer QP");
  }
  peer_ = peer;
  if (peer->peer_ == nullptr) {
    peer->peer_ = this;
  } else if (peer->peer_ != this) {
    return FailedPrecondition("peer QP connected elsewhere");
  }
  return OkStatus();
}

Status QueuePair::PostSend(const SendWorkRequest& wr) {
  if (peer_ == nullptr) {
    return FailedPrecondition("QP not connected");
  }
  if (wr.opcode == Opcode::kRecv) {
    return InvalidArgument("RECV must be posted via PostRecv");
  }
  if (!wr.sge.empty()) {
    if (wr.opcode != Opcode::kWrite) {
      return InvalidArgument("scatter/gather WRs support RDMA_WRITE only");
    }
    for (const SgExtent& e : wr.sge) {
      if (e.length == 0) return InvalidArgument("zero-length extent in SG list");
      if (nic_->FindLocalRegion(wr.lkey, e.local_addr, e.length) == nullptr) {
        return InvalidArgument(StrCat("SG extent not registered: lkey=", wr.lkey, " addr=",
                                      e.local_addr, " len=", e.length));
      }
    }
  } else if (nic_->FindLocalRegion(wr.lkey, wr.local_addr, wr.length) == nullptr) {
    return InvalidArgument(StrCat("local buffer not registered: lkey=", wr.lkey, " addr=",
                                  wr.local_addr, " len=", wr.length));
  }
  return Enqueue(Batch{wr});
}

Status QueuePair::PostSendBatch(std::vector<SendWorkRequest> wrs) {
  if (peer_ == nullptr) {
    return FailedPrecondition("QP not connected");
  }
  if (wrs.empty()) {
    return InvalidArgument("empty WR batch");
  }
  for (const SendWorkRequest& wr : wrs) {
    if (wr.opcode != Opcode::kWrite) {
      return InvalidArgument("WR batches support RDMA_WRITE only");
    }
    if (!wr.sge.empty()) {
      return InvalidArgument("SG WRs cannot ride in a doorbell batch; post them singly");
    }
    if (wr.length == 0) {
      return InvalidArgument("zero-length WR in batch");
    }
    if (nic_->FindLocalRegion(wr.lkey, wr.local_addr, wr.length) == nullptr) {
      return InvalidArgument(StrCat("local buffer not registered: lkey=", wr.lkey, " addr=",
                                    wr.local_addr, " len=", wr.length));
    }
  }
  return Enqueue(std::move(wrs));
}

Status QueuePair::Enqueue(Batch chain) {
  if (state_ == QpState::kError) {
    // Real RC QPs accept posts in the error state and complete them with a
    // flush error; callers learn of the failure from the CQ, never silently.
    for (const SendWorkRequest& wr : chain) FlushPostedSend(wr);
    return OkStatus();
  }
  send_queue_.push_back(std::move(chain));
  MaybeStartNext();
  return OkStatus();
}

Status QueuePair::PostRecv(const RecvWorkRequest& wr) {
  if (nic_->FindLocalRegion(wr.lkey, wr.addr, wr.length) == nullptr) {
    return InvalidArgument("recv buffer not registered");
  }
  if (state_ == QpState::kError) {
    FlushPostedRecv(wr);
    return OkStatus();
  }
  recv_queue_.push_back(wr);
  MatchInbound();
  return OkStatus();
}

Status QueuePair::Recover() {
  if (peer_ == nullptr) return FailedPrecondition("QP not connected");
  if (state_ != QpState::kError) return OkStatus();
  if (engine_busy_) {
    return FailedPrecondition("cannot recover a QP with a work request in flight");
  }
  state_ = QpState::kReady;
  error_cause_ = OkStatus();
  retry_attempts_ = 0;
  return OkStatus();
}

void QueuePair::MaybeStartNext() {
  if (engine_busy_ || state_ == QpState::kError || send_queue_.empty()) return;
  engine_busy_ = true;
  current_ = std::move(send_queue_.front());
  send_queue_.pop_front();
  ++nic_->stats_.doorbells;
  // Posting overhead (doorbell + WQE fetch) before the engine acts — charged
  // once per doorbell, whether it rings one WQE or a chained list. current_
  // stays put until the completion releases the engine, so the closure needs
  // only `this`. Jittered: the overhead is a point estimate of a noisy
  // quantity, so the schedule explorer may perturb it.
  nic_->simulator()->ScheduleAfterJittered(nic_->cost().rdma_post_overhead_ns,
                                           [this]() { ExecuteCurrent(); });
}

void QueuePair::ExecuteCurrent() {
  switch (current_.front().opcode) {
    case Opcode::kWrite:
      ExecuteWrite();
      return;
    case Opcode::kRead:
      ExecuteRead();
      return;
    case Opcode::kSend:
      ExecuteSend();
      return;
    case Opcode::kRecv:
      break;
  }
  Finish(Internal("bad opcode"));
}

int64_t QueuePair::EngineDelayNs(uint64_t bytes) const {
  const double rate = nic_->cost().rdma_qp_engine_bytes_per_sec;
  if (rate <= 0.0) return 0;
  return static_cast<int64_t>(static_cast<double>(bytes) / rate * 1e9);
}

int64_t QueuePair::DcqcnDelayNs(uint64_t bytes) {
  const net::CongestionConfig& cc = nic_->fabric()->congestion();
  if (!cc.dcqcn) return 0;
  Dcqcn& d = dcqcn_;
  const double line = nic_->cost().rdma_bandwidth_bytes_per_sec;
  if (!d.initialized) {
    d.initialized = true;
    d.current_rate = line;
    d.target_rate = line;
  }
  if (d.last_decrease_ns < 0) return 0;  // Never throttled: line rate.
  const int64_t now = nic_->simulator()->Now();
  // Timer + byte-counter recovery, applied lazily: whichever accumulated more
  // stages since the last marker drives the advance (both reset on a
  // decrease). The cap bounds the catch-up loop after a long idle gap.
  int stages = 0;
  if (cc.dcqcn_recovery_period_ns > 0) {
    stages = static_cast<int>(
        std::min<int64_t>((now - d.last_stage_ns) / cc.dcqcn_recovery_period_ns, 64));
  }
  if (cc.dcqcn_recovery_bytes > 0) {
    stages = std::max(stages, static_cast<int>(std::min<uint64_t>(
                                  d.bytes_since_stage / cc.dcqcn_recovery_bytes, 64)));
  }
  if (stages > 0) {
    for (int i = 0; i < stages; ++i) {
      ++d.stage;
      // Quiet-period alpha decay rides the same stage clock.
      d.alpha *= (1.0 - cc.dcqcn_alpha_g);
      if (d.stage > cc.dcqcn_fast_recovery_stages) {
        d.target_rate = std::min(line, d.target_rate + cc.dcqcn_rate_ai_bytes_per_sec);
      }
      d.current_rate = 0.5 * (d.current_rate + d.target_rate);
    }
    nic_->stats_.dcqcn_rate_increases += static_cast<uint64_t>(stages);
    d.last_stage_ns = now;
    d.bytes_since_stage = 0;
    d.cnp_backoff = 0;
    if (line - d.current_rate < 1.0e6) {
      // Fully recovered: back to untracked line rate.
      d.current_rate = line;
      d.target_rate = line;
      d.last_decrease_ns = -1;
      return 0;
    }
  }
  d.bytes_since_stage += bytes;
  const double delay =
      static_cast<double>(bytes) * 1e9 * (1.0 / d.current_rate - 1.0 / line);
  const int64_t delay_ns = delay > 0.0 ? static_cast<int64_t>(delay) : 0;
  nic_->stats_.dcqcn_pacing_delay_ns_total += delay_ns;
  return delay_ns;
}

void QueuePair::OnEcnFeedback(int64_t deliver_ns) {
  const net::CongestionConfig& cc = nic_->fabric()->congestion();
  ++nic_->stats_.ecn_marked_segments;
  check::OnCongestionSignal(check::RdmaCheck::CongestionSignal::kEcnMark);
  if (!cc.dcqcn) return;  // Nobody reacts: the CC-off collapse configuration.
  Dcqcn& d = dcqcn_;
  // NP-side CNP moderation. While the QP already sits at the rate floor,
  // further CNPs carry no new information, so the interval backs off
  // exponentially (capped at 16x) — a persistent hotspot must not become a
  // CNP storm. Shares CappedBackoffNs with the transport-retry schedule.
  const int64_t interval = net::CappedBackoffNs(cc.dcqcn_cnp_interval_ns, d.cnp_backoff,
                                                16 * cc.dcqcn_cnp_interval_ns);
  if (d.last_cnp_ns >= 0 && deliver_ns - d.last_cnp_ns < interval) return;
  d.last_cnp_ns = deliver_ns;
  if (d.initialized && d.current_rate <= cc.dcqcn_min_rate_bytes_per_sec * 1.001) {
    d.cnp_backoff = std::min(d.cnp_backoff + 1, 4);
  }
  // The CNP travels back to the sender; the RP reacts one propagation
  // latency later.
  nic_->simulator()->ScheduleAfter(nic_->cost().rdma_one_way_latency_ns,
                                   [this]() { ApplyCnp(); });
}

void QueuePair::ApplyCnp() {
  ++nic_->stats_.cnps_received;
  check::OnCongestionSignal(check::RdmaCheck::CongestionSignal::kCnp);
  DcqcnDecrease();
}

void QueuePair::DcqcnDecrease() {
  const net::CongestionConfig& cc = nic_->fabric()->congestion();
  Dcqcn& d = dcqcn_;
  const double line = nic_->cost().rdma_bandwidth_bytes_per_sec;
  if (!d.initialized) {
    d.initialized = true;
    d.current_rate = line;
    d.target_rate = line;
  }
  d.alpha = (1.0 - cc.dcqcn_alpha_g) * d.alpha + cc.dcqcn_alpha_g;
  d.target_rate = d.current_rate;
  d.current_rate =
      std::max(d.current_rate * (1.0 - d.alpha / 2.0), cc.dcqcn_min_rate_bytes_per_sec);
  d.stage = 0;
  d.bytes_since_stage = 0;
  const int64_t now = nic_->simulator()->Now();
  d.last_stage_ns = now;
  d.last_decrease_ns = now;
  ++nic_->stats_.dcqcn_rate_decreases;
  check::OnCongestionSignal(check::RdmaCheck::CongestionSignal::kRateDecrease);
}

void QueuePair::ExecuteWrite() {
  NicDevice* target_nic = peer_->nic_;
  const int64_t now = nic_->simulator()->Now();
  const SendWorkRequest& front = current_.front();
  const bool sg = !front.sge.empty();  // SG WRs never ride in a chain.
  if (!sg) {
    for (const SendWorkRequest& wr : current_) {
      check::OnWritePosted(nic_->host_id(), target_nic->host_id(), qp_num_, wr.wr_id,
                           wr.remote_addr, wr.length, wr.rkey, now);
    }
  } else if (check::RdmaCheck* c = check::RdmaCheck::Current()) {
    // Built only while a checker is installed: the disabled path stays
    // allocation-free.
    std::vector<check::SgExtentInfo> extents;
    extents.reserve(front.sge.size());
    for (const SgExtent& e : front.sge) {
      extents.push_back(check::SgExtentInfo{e.remote_addr, e.length});
    }
    c->SgWritePosted(nic_->host_id(), target_nic->host_id(), qp_num_, front.wr_id, extents,
                     front.rkey, now);
  }
  // The list shares fate like one WQE: validate every extent of every WR
  // before any byte moves, and fail the whole list on the first violation.
  uint64_t total = 0;
  for (const SendWorkRequest& wr : current_) {
    for (size_t i = 0; i < wr.NumExtents(); ++i) {
      const SgExtent e = wr.Extent(i);
      if (target_nic->FindRemoteRegion(wr.rkey, e.remote_addr, e.length) == nullptr) {
        ++target_nic->stats_.rkey_violations;
        NoteWritesFinished();
        Finish(Status(StatusCode::kInvalidArgument,
                      StrCat("remote access violation",
                             current_.size() > 1 ? " in WR batch" : sg ? " in SG list" : "",
                             ": rkey=", wr.rkey, " addr=", e.remote_addr, " len=", e.length)));
        return;
      }
      total += e.length;
    }
  }
  nic_->stats_.writes += current_.size();  // One per WQE, whatever its extents.
  nic_->stats_.write_bytes += total;
  if (current_.size() > 1) ++nic_->stats_.doorbell_batches;
  if (sg) {
    ++nic_->stats_.sg_writes;
    nic_->stats_.sg_extents += front.sge.size();
  }
  // Seeded bug (explorer self-validation): a retry that keeps the scatter
  // cursor and resumes from the delivered offset instead of rewriting from 0
  // violates the ascending-delivery contract the flag protocol rests on.
  uint64_t resume_at = 0;
  if (check::MutationEnabled(check::kRetryKeepsCursor) && retry_attempts_ > 0 &&
      delivered_ < total) {
    resume_at = delivered_;
  } else {
    cursor_wr_ = 0;
    cursor_extent_ = 0;
    cursor_base_ = 0;
  }
  delivered_ = resume_at;
  // The stream ranges that land in memory: a virtual payload (copy_bytes
  // unset) only advances the scatter cursor, so the fabric may fold its
  // segments into the next delivery event.
  observed_.clear();
  uint64_t base = 0;
  for (const SendWorkRequest& wr : current_) {
    const uint64_t end = base + wr.TotalBytes();
    if (wr.copy_bytes && end > resume_at && end > base) {
      const uint64_t from = std::max(base, resume_at) - resume_at;
      observed_.push_back(net::StreamRange{from, end - resume_at - from});
    }
    base = end;
  }
  // One wire stream carries every extent in list order. Fabric delivery is
  // ascending in stream offset, so each extent receives its bytes in
  // ascending address order: the §3.2 guarantee, per WR and per extent. The
  // WQE-engine ceiling and the DCQCN rate limiter both see the summed bytes:
  // one list's worth of engine work, one flow's worth of injected payload.
  const uint64_t bytes = total - resume_at;
  nic_->fabric()->Transfer(
      nic_->host_id(), target_nic->host_id(), bytes, net::Plane::kRdma,
      nic_->cost().rdma_nic_processing_ns + EngineDelayNs(bytes) + DcqcnDelayNs(bytes),
      // Each segment is scattered to its extents and copied for real, so a
      // flag-byte poller on the target sees partial tensors faithfully.
      [this, resume_at](uint64_t offset, uint64_t length) {
        offset += resume_at;
        delivered_ = offset + length;
        while (length > 0) {
          const SendWorkRequest& wr = current_[cursor_wr_];
          const SgExtent e = wr.Extent(cursor_extent_);
          const uint64_t rel = offset - cursor_base_;
          const uint64_t take = std::min<uint64_t>(length, e.length - rel);
          if (wr.sge.empty()) {
            check::OnWriteSegment(nic_->host_id(), qp_num_, wr.wr_id, rel, take,
                                  nic_->simulator()->Now());
          } else {
            check::OnSgWriteSegment(nic_->host_id(), qp_num_, wr.wr_id, cursor_extent_, rel,
                                    take, nic_->simulator()->Now());
          }
          if (wr.copy_bytes) {
            std::memcpy(reinterpret_cast<uint8_t*>(e.remote_addr) + rel,
                        reinterpret_cast<const uint8_t*>(e.local_addr) + rel, take);
          }
          offset += take;
          length -= take;
          if (rel + take == e.length) {
            cursor_base_ += e.length;
            if (++cursor_extent_ == wr.NumExtents()) {
              cursor_extent_ = 0;
              ++cursor_wr_;
            }
          }
        }
      },
      [this](Status status) { CompleteWire(status); },
      [this](int64_t deliver_ns) { OnEcnFeedback(deliver_ns); }, observed_);
}

void QueuePair::ExecuteRead() {
  const SendWorkRequest& wr = current_.front();
  NicDevice* target_nic = peer_->nic_;
  check::OnReadPosted(nic_->host_id(), target_nic->host_id(), qp_num_, wr.wr_id,
                      wr.remote_addr, wr.length, wr.rkey, nic_->simulator()->Now());
  const MemoryRegion* target =
      target_nic->FindRemoteRegion(wr.rkey, wr.remote_addr, wr.length);
  if (target == nullptr) {
    ++target_nic->stats_.rkey_violations;
    Finish(InvalidArgument("remote access violation on RDMA read"));
    return;
  }
  ++nic_->stats_.reads;
  nic_->stats_.read_bytes += wr.length;
  // The read request first travels to the target (one-way latency + remote
  // NIC processing), then the data streams back.
  const int64_t request_trip =
      nic_->cost().rdma_nic_processing_ns + nic_->cost().rdma_one_way_latency_ns +
      nic_->cost().rdma_nic_processing_ns + EngineDelayNs(wr.length) +
      DcqcnDelayNs(wr.length);
  const net::StreamRange whole{0, wr.length};
  nic_->fabric()->Transfer(
      target_nic->host_id(), nic_->host_id(), wr.length, net::Plane::kRdma, request_trip,
      [this](uint64_t offset, uint64_t length) {
        const SendWorkRequest& cur = current_.front();
        if (cur.copy_bytes) {
          std::memcpy(reinterpret_cast<uint8_t*>(cur.local_addr) + offset,
                      reinterpret_cast<const uint8_t*>(cur.remote_addr) + offset, length);
        }
      },
      [this](Status status) { CompleteWire(status); },
      [this](int64_t deliver_ns) { OnEcnFeedback(deliver_ns); },
      wr.copy_bytes ? std::span<const net::StreamRange>(&whole, 1)
                    : std::span<const net::StreamRange>());
}

void QueuePair::ExecuteSend() {
  const SendWorkRequest& wr = current_.front();
  ++nic_->stats_.sends;
  nic_->stats_.send_bytes += wr.length;
  nic_->fabric()->Transfer(nic_->host_id(), peer_->nic_->host_id(), wr.length, net::Plane::kRdma,
                           nic_->cost().rdma_nic_processing_ns + DcqcnDelayNs(wr.length),
                           nullptr, [this](Status status) { CompleteWire(status); },
                           [this](int64_t deliver_ns) { OnEcnFeedback(deliver_ns); });
}

void QueuePair::CompleteWire(const Status& status) {
  const SendWorkRequest& front = current_.front();
  const bool write = front.opcode == Opcode::kWrite;
  if (status.ok()) {
    retry_attempts_ = 0;
    // The completion-ordering happens-before edge: the writes' bytes have
    // all landed, anything posted from here on is ordered behind them.
    if (write) NoteWritesFinished();
    if (front.opcode == Opcode::kSend && peer_ != nullptr) {
      peer_->DeliverInbound(reinterpret_cast<const uint8_t*>(front.local_addr), front.length,
                            front.copy_bytes);
    }
    Finish(OkStatus());
    return;
  }
  // Transport failure (lost segment, dead host): the RC transport retransmits
  // the whole WQE list with capped exponential backoff, transparently to the
  // consumer; ExecuteCurrent restarts every extent from offset 0. Under DCQCN
  // the loss doubles as a congestion signal — the RP cuts its rate like on a
  // CNP, so retransmissions into a hot queue arrive paced instead of
  // re-synchronized.
  if (retry_attempts_ < nic_->cost().rdma_transport_retry_count) {
    const int64_t backoff = net::TransportBackoffNs(nic_->cost(), retry_attempts_);
    ++retry_attempts_;
    ++nic_->stats_.retransmissions;
    if (nic_->fabric()->congestion().dcqcn) DcqcnDecrease();
    if (sim::Tracer::Current() != nullptr) {  // Incast retries are hot: format only if traced.
      const std::string wqe = current_.size() > 1 ? StrCat("batch of ", current_.size())
                              : front.sge.empty() ? StrCat("wr", front.wr_id)
                                                  : StrCat("sg-wr", front.wr_id, " of ",
                                                           front.sge.size(), " extents");
      sim::TraceInstant(StrCat("host", nic_->host_id(), ".nic"), nic_->simulator()->Now(),
                        "retransmit qp", qp_num_, " ", wqe, " attempt ", retry_attempts_);
    }
    nic_->simulator()->ScheduleAfter(backoff, [this]() { ExecuteCurrent(); });
    return;
  }
  // Retry budget exhausted: the QP moves to the error state. The failing
  // list completes with the transport error; everything queued flushes after
  // it.
  if (write) NoteWritesFinished();
  retry_attempts_ = 0;
  state_ = QpState::kError;
  error_cause_ = Unavailable(StrCat("transport retry limit (",
                                    nic_->cost().rdma_transport_retry_count,
                                    ") exhausted: ", status.message()))
                     .WithContextFrom(status);
  sim::TraceInstant(StrCat("host", nic_->host_id(), ".nic"), nic_->simulator()->Now(), "qp",
                    qp_num_, " -> ERROR: ", status.message());
  Finish(error_cause_);
}

void QueuePair::NoteWritesFinished() {
  const int64_t now = nic_->simulator()->Now();
  for (const SendWorkRequest& wr : current_) {
    check::OnWriteFinished(nic_->host_id(), qp_num_, wr.wr_id, now);
  }
}

void QueuePair::Finish(Status status) {
  pending_status_ = std::move(status);
  // CQE generation + poller pickup overhead, once for the whole list, then
  // release the engine. The status is staged in pending_status_ (one per QP
  // suffices: the engine serializes, and flush completions for
  // posts-while-errored use their own captured copies) so the closure fits
  // the inline buffer.
  nic_->simulator()->ScheduleAfter(nic_->cost().cq_poll_overhead_ns, [this]() {
    engine_busy_ = false;
    // Move the list out first: a CQ handler may post new work from inside
    // Push, which would overwrite current_ mid-iteration.
    const Batch batch = std::move(current_);
    for (const SendWorkRequest& wr : batch) {
      WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.opcode = wr.opcode;
      wc.status = pending_status_;
      wc.byte_len = pending_status_.ok() ? wr.TotalBytes() : 0;
      wc.qp_num = qp_num_;
      send_cq_->Push(std::move(wc));
    }
    if (state_ == QpState::kError) {
      FlushQueues();
      return;
    }
    MaybeStartNext();
  });
}

void QueuePair::FlushQueues() {
  // FIFO order, after the completion that carried the error.
  while (!send_queue_.empty()) {
    Batch batch = std::move(send_queue_.front());
    send_queue_.pop_front();
    for (const SendWorkRequest& wr : batch) {
      ++nic_->stats_.flushed_wrs;
      WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.opcode = wr.opcode;
      wc.status = Aborted("WR flushed: QP in error state");
      wc.qp_num = qp_num_;
      send_cq_->Push(wc);
    }
  }
  while (!recv_queue_.empty()) {
    RecvWorkRequest wr = recv_queue_.front();
    recv_queue_.pop_front();
    ++nic_->stats_.flushed_wrs;
    WorkCompletion wc;
    wc.wr_id = wr.wr_id;
    wc.opcode = Opcode::kRecv;
    wc.status = Aborted("WR flushed: QP in error state");
    wc.qp_num = qp_num_;
    recv_cq_->Push(wc);
  }
}

void QueuePair::FlushPostedSend(const SendWorkRequest& wr) {
  ++nic_->stats_.flushed_wrs;
  WorkCompletion wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = wr.opcode;
  wc.status = Aborted("WR flushed: QP in error state");
  wc.qp_num = qp_num_;
  nic_->simulator()->ScheduleAfter(nic_->cost().cq_poll_overhead_ns,
                                   [this, wc]() { send_cq_->Push(wc); });
}

void QueuePair::FlushPostedRecv(const RecvWorkRequest& wr) {
  ++nic_->stats_.flushed_wrs;
  WorkCompletion wc;
  wc.wr_id = wr.wr_id;
  wc.opcode = Opcode::kRecv;
  wc.status = Aborted("WR flushed: QP in error state");
  wc.qp_num = qp_num_;
  nic_->simulator()->ScheduleAfter(nic_->cost().cq_poll_overhead_ns,
                                   [this, wc]() { recv_cq_->Push(wc); });
}

void QueuePair::DeliverInbound(const uint8_t* src, uint64_t length, bool copy_bytes) {
  // An errored QP no longer matches inbound messages; the sender's completion
  // already carried the failure.
  if (state_ == QpState::kError) return;
  if (recv_queue_.empty()) {
    InboundMessage msg{{}, length, copy_bytes};
    if (copy_bytes) msg.bytes.assign(src, src + length);
    inbound_.push_back(std::move(msg));
    return;
  }
  CompleteRecv(src, length, copy_bytes);
}

void QueuePair::MatchInbound() {
  while (!inbound_.empty() && !recv_queue_.empty()) {
    InboundMessage msg = std::move(inbound_.front());
    inbound_.pop_front();
    CompleteRecv(msg.bytes.data(), msg.length, msg.copy_bytes);
  }
}

void QueuePair::CompleteRecv(const uint8_t* src, uint64_t length, bool copy_bytes) {
  RecvWorkRequest recv = recv_queue_.front();
  recv_queue_.pop_front();
  WorkCompletion wc;
  wc.wr_id = recv.wr_id;
  wc.opcode = Opcode::kRecv;
  wc.qp_num = qp_num_;
  if (length > recv.length) {
    wc.status = InvalidArgument(StrCat("inbound SEND of ", length,
                                       " bytes exceeds posted recv buffer of ", recv.length,
                                       " bytes"));
    wc.byte_len = 0;
  } else {
    if (length > 0 && copy_bytes) {
      std::memcpy(reinterpret_cast<void*>(recv.addr), src, length);
    }
    wc.status = OkStatus();
    wc.byte_len = length;
  }
  nic_->simulator()->ScheduleAfter(nic_->cost().cq_poll_overhead_ns,
                                   [this, wc]() { recv_cq_->Push(wc); });
}

// ------------------------------------------------------------------ NicDevice

NicDevice::NicDevice(net::Fabric* fabric, int host_id) : fabric_(fabric), host_id_(host_id) {}

StatusOr<MemoryRegion> NicDevice::RegisterMemory(void* addr, uint64_t length) {
  if (addr == nullptr || length == 0) {
    return InvalidArgument("cannot register empty region");
  }
  if (num_registered_regions() >= cost().max_memory_regions) {
    return ResourceExhausted(StrCat("NIC MR limit reached (", cost().max_memory_regions, ")"));
  }
  MemoryRegion mr;
  mr.addr = reinterpret_cast<uint64_t>(addr);
  mr.length = length;
  mr.lkey = next_key_++;
  mr.rkey = next_key_++;
  mrs_by_lkey_[mr.lkey] = mr;
  mrs_by_rkey_[mr.rkey] = mr;
  ++stats_.registrations;
  stats_.registration_cost_ns_total += RegistrationCost(length);
  check::OnMrRegistered(host_id_, mr.addr, mr.length, mr.lkey, mr.rkey, simulator()->Now());
  return mr;
}

Status NicDevice::DeregisterMemory(const MemoryRegion& mr) {
  const bool erased_l = mrs_by_lkey_.erase(mr.lkey) > 0;
  const bool erased_r = mrs_by_rkey_.erase(mr.rkey) > 0;
  if (!erased_l || !erased_r) {
    return NotFound("memory region not registered");
  }
  check::OnMrDeregistered(host_id_, mr.lkey, mr.rkey, simulator()->Now());
  return OkStatus();
}

int64_t NicDevice::RegistrationCost(uint64_t length) const {
  const uint64_t pages = (length + cost().mr_page_bytes - 1) / cost().mr_page_bytes;
  return cost().mr_register_base_ns +
         static_cast<int64_t>(pages) * cost().mr_register_per_page_ns;
}

CompletionQueue* NicDevice::CreateCompletionQueue() {
  cqs_.push_back(std::make_unique<CompletionQueue>(this));
  return cqs_.back().get();
}

QueuePair* NicDevice::CreateQueuePair(CompletionQueue* send_cq, CompletionQueue* recv_cq) {
  StatusOr<QueuePair*> qp = TryCreateQueuePair(send_cq, recv_cq);
  CHECK(qp.ok());
  return *qp;
}

StatusOr<QueuePair*> NicDevice::TryCreateQueuePair(CompletionQueue* send_cq,
                                                   CompletionQueue* recv_cq) {
  CHECK(send_cq != nullptr && recv_cq != nullptr);
  if (num_queue_pairs() >= cost().max_queue_pairs) {
    return ResourceExhausted(StrCat("NIC QP limit reached (", cost().max_queue_pairs,
                                    ") on host", host_id_));
  }
  qps_.push_back(std::make_unique<QueuePair>(this, next_qp_num_++, send_cq, recv_cq));
  return qps_.back().get();
}

Status NicDevice::DestroyQueuePair(QueuePair* qp) {
  if (qp == nullptr) return InvalidArgument("null QP");
  auto it = std::find_if(qps_.begin(), qps_.end(),
                         [qp](const std::unique_ptr<QueuePair>& p) { return p.get() == qp; });
  if (it == qps_.end()) return NotFound("QP not owned by this NIC");
  check::OnQpDestroyed(host_id_, qp->qp_num(), simulator()->Now());
  if (qp->peer_ != nullptr && qp->peer_->peer_ == qp) {
    qp->peer_->peer_ = nullptr;
  }
  qps_.erase(it);
  return OkStatus();
}

const MemoryRegion* NicDevice::FindRemoteRegion(uint32_t rkey, uint64_t addr,
                                                uint64_t len) const {
  auto it = mrs_by_rkey_.find(rkey);
  if (it == mrs_by_rkey_.end()) return nullptr;
  if (!it->second.Contains(addr, len)) return nullptr;
  return &it->second;
}

const MemoryRegion* NicDevice::FindLocalRegion(uint32_t lkey, uint64_t addr,
                                               uint64_t len) const {
  auto it = mrs_by_lkey_.find(lkey);
  if (it == mrs_by_lkey_.end()) return nullptr;
  if (!it->second.Contains(addr, len)) return nullptr;
  return &it->second;
}

// ------------------------------------------------------------------ RdmaFabric

RdmaFabric::RdmaFabric(net::Fabric* fabric) : fabric_(fabric) {
  nics_.reserve(fabric->num_hosts());
  for (int i = 0; i < fabric->num_hosts(); ++i) {
    nics_.push_back(std::make_unique<NicDevice>(fabric, i));
  }
}

}  // namespace rdma
}  // namespace rdmadl
