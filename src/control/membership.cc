#include "src/control/membership.h"

#include <algorithm>
#include <utility>

#include "src/net/fabric.h"
#include "src/sim/fault.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace control {
namespace {

constexpr char kPingMethod[] = "member/ping";

}  // namespace

MembershipService::MembershipService(device::DeviceDirectory* directory,
                                     MembershipOptions options)
    : directory_(directory), options_(options) {}

MembershipService::~MembershipService() = default;

StatusOr<std::unique_ptr<MembershipService>> MembershipService::Create(
    device::DeviceDirectory* directory, const std::vector<int>& hosts,
    const MembershipOptions& options) {
  if (hosts.empty()) return InvalidArgument("membership needs at least one host");
  if (options.heartbeat_interval_ns <= 0 || options.lease_timeout_ns <= 0 ||
      options.missed_leases_to_confirm <= 0) {
    return InvalidArgument("membership intervals and miss threshold must be positive");
  }
  auto svc = std::unique_ptr<MembershipService>(
      new MembershipService(directory, options));
  for (int host : hosts) {
    if (svc->members_.count(host) > 0) {
      return InvalidArgument(StrCat("duplicate membership host ", host));
    }
    Member m;
    m.host = host;
    m.endpoint = Endpoint{host, options.port};
    RDMADL_ASSIGN_OR_RETURN(m.device, device::RdmaDevice::Create(
                                          directory, /*num_cqs=*/1,
                                          /*num_qps_per_peer=*/1, m.endpoint));
    // Answering a ping is all the liveness protocol needs; the request never
    // reaches a crashed host (the fabric refuses the transfer), so reaching
    // this handler at all is the proof of life.
    m.device->RegisterRpcHandler(
        kPingMethod,
        [](const std::vector<uint8_t>&) { return std::vector<uint8_t>{1}; });
    svc->simulator_ = m.device->simulator();
    svc->members_.emplace(host, std::move(m));
  }
  return svc;
}

bool MembershipService::SelfDead(int host) const {
  sim::FaultInjector* injector =
      directory_->rdma_fabric()->fabric()->fault_injector();
  if (injector == nullptr) return false;
  return injector->HostDead(host, simulator_->Now());
}

int MembershipService::SuccessorOf(int host) const {
  auto it = members_.upper_bound(host);
  for (size_t i = 0; i < members_.size(); ++i, ++it) {
    if (it == members_.end()) it = members_.begin();
    if (it->second.state != MemberState::kDead) return it->first;
  }
  return host;
}

int64_t MembershipService::detection_bound_ns() const {
  const int64_t cycle =
      std::max(options_.heartbeat_interval_ns, options_.lease_timeout_ns);
  return (options_.missed_leases_to_confirm + 1) * cycle + options_.lease_timeout_ns;
}

void MembershipService::Start() {
  if (started_) return;
  started_ = true;
  paused_ = false;
  // Stagger first probes across the interval so n members do not all hit the
  // wire on the same virtual instant.
  const int64_t slice =
      options_.heartbeat_interval_ns / static_cast<int64_t>(members_.size());
  int i = 0;
  for (auto& [host, m] : members_) {
    (void)m;
    ArmProbe(host, options_.heartbeat_interval_ns + i * slice);
    ++i;
  }
}

void MembershipService::Pause() {
  ++epoch_;
  paused_ = true;
}

void MembershipService::Resume() {
  if (!started_) return;
  ++epoch_;
  paused_ = false;
  for (auto& [host, m] : members_) {
    if (m.state == MemberState::kDead) continue;
    ArmProbe(host, options_.heartbeat_interval_ns);
  }
}

void MembershipService::ArmProbe(int monitor, int64_t delay_ns) {
  const uint64_t epoch = epoch_;
  simulator_->ScheduleAfter(delay_ns, [this, monitor, epoch]() {
    if (epoch != epoch_ || paused_) return;
    SendProbe(monitor);
  });
}

void MembershipService::SendProbe(int monitor) {
  Member& mm = members_.at(monitor);
  if (mm.state == MemberState::kDead) return;
  // A crashed process stops executing: its monitor goes silent instead of
  // misinterpreting its own unreachable fabric as everyone else's death.
  if (SelfDead(monitor)) return;
  const int target = SuccessorOf(monitor);
  if (target == monitor) return;  // Sole survivor: nothing to watch.

  const uint64_t seq = ++mm.probe_seq;
  const uint64_t epoch = epoch_;
  ++stats_.probes_sent;
  mm.device->Call(members_.at(target).endpoint, kPingMethod, {},
                  [this, monitor, seq, epoch](const Status& s,
                                              const std::vector<uint8_t>&) {
                    if (epoch != epoch_) return;
                    // Any response — even an RPC-level error — proves the
                    // peer's process was alive to produce it.
                    (void)s;
                    Member& m = members_.at(monitor);
                    m.last_pong_seq = std::max(m.last_pong_seq, seq);
                    ++stats_.pongs_received;
                  });
  simulator_->ScheduleAfter(options_.lease_timeout_ns,
                            [this, monitor, target, seq, epoch]() {
                              if (epoch != epoch_ || paused_) return;
                              OnLeaseExpiry(monitor, target, seq);
                            });
}

void MembershipService::OnLeaseExpiry(int monitor, int target, uint64_t seq) {
  Member& mm = members_.at(monitor);
  if (mm.state == MemberState::kDead || SelfDead(monitor)) return;
  Member& tt = members_.at(target);
  const bool ponged = mm.last_pong_seq >= seq;
  // Only judge the target if this monitor is still responsible for it (a
  // confirmed death in between retargets the ring).
  if (tt.state != MemberState::kDead && SuccessorOf(monitor) == target) {
    if (ponged) {
      tt.missed = 0;
      if (tt.state == MemberState::kSuspected) {
        tt.state = MemberState::kAlive;
        ++stats_.suspicions_cleared;
        sim::TraceInstant("membership", simulator_->Now(), "host", target, " suspicion cleared");
      }
    } else {
      ++stats_.missed_leases;
      ++tt.missed;
      if (tt.state == MemberState::kAlive) {
        tt.state = MemberState::kSuspected;
        ++stats_.suspicions;
        sim::TraceInstant("membership", simulator_->Now(), "host", target,
                          " suspected (missed lease ", tt.missed, ")");
      }
      if (tt.missed >= options_.missed_leases_to_confirm) {
        ConfirmDead(target);
      }
    }
  }
  // Keep the cadence: the next probe goes out one interval after the previous
  // send (the expiry fired lease_timeout after it).
  const int64_t gap =
      std::max<int64_t>(0, options_.heartbeat_interval_ns - options_.lease_timeout_ns);
  ArmProbe(monitor, gap);
}

void MembershipService::ConfirmDead(int target) {
  Member& tt = members_.at(target);
  if (tt.state == MemberState::kDead) return;
  tt.state = MemberState::kDead;
  tt.confirmed_dead_at_ns = simulator_->Now();
  ++stats_.deaths_confirmed;
  sim::TraceInstant("membership", simulator_->Now(), "host", target, " confirmed dead");
  if (on_death_) on_death_(target, tt.confirmed_dead_at_ns);
}

MemberState MembershipService::state(int host) const {
  auto it = members_.find(host);
  CHECK(it != members_.end()) << "unknown membership host " << host;
  return it->second.state;
}

bool MembershipService::any_dead() const {
  for (const auto& [host, m] : members_) {
    (void)host;
    if (m.state == MemberState::kDead) return true;
  }
  return false;
}

std::vector<int> MembershipService::alive_hosts() const {
  std::vector<int> out;
  for (const auto& [host, m] : members_) {
    if (m.state != MemberState::kDead) out.push_back(host);
  }
  return out;
}

std::vector<int> MembershipService::dead_hosts() const {
  std::vector<int> out;
  for (const auto& [host, m] : members_) {
    if (m.state == MemberState::kDead) out.push_back(host);
  }
  return out;
}

int64_t MembershipService::confirmed_dead_at_ns(int host) const {
  auto it = members_.find(host);
  CHECK(it != members_.end()) << "unknown membership host " << host;
  return it->second.confirmed_dead_at_ns;
}

}  // namespace control
}  // namespace rdmadl
