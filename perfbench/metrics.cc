#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "perfbench/harness.h"

namespace rdmadl {
namespace perfbench {

bool ParsePerturbation(const std::string& name, Perturbation* out) {
  static const std::map<std::string, Perturbation> kNames = {
      {"none", Perturbation::kNone},           {"bandwidth80", Perturbation::kBandwidth80},
      {"rdmacheck", Perturbation::kRdmaCheck}, {"nodcqcn", Perturbation::kNoDcqcn},
      {"ring", Perturbation::kForceRing},      {"rdmacp", Perturbation::kRdmaCp},
  };
  auto it = kNames.find(name);
  if (it == kNames.end()) return false;
  *out = it->second;
  return true;
}

Tail HighestTail(const std::vector<int64_t>& sorted) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  for (double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n - rank >= 10) return Tail{pct, NearestRank(sorted, pct), n - rank};
  }
  return Tail{50.0, NearestRank(sorted, 50.0), n - (n + 1) / 2};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double FloorNsPerEvent(const std::vector<WallBlock>& blocks) {
  double floor = 0;
  for (const WallBlock& b : blocks) {
    if (b.events == 0) continue;
    const double ns = b.wall_ns / static_cast<double>(b.events);
    if (floor == 0 || ns < floor) floor = ns;
  }
  return floor;
}

double WallMsPerOp(const std::vector<WallBlock>& blocks, int64_t ops) {
  if (ops <= 0) return 0;
  double events = 0;
  for (const WallBlock& b : blocks) events += static_cast<double>(b.events);
  return FloorNsPerEvent(blocks) * events / static_cast<double>(ops) / 1e6;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

WorldCounters ReadCounters(sim::Simulator* simulator, net::Fabric* fabric,
                           rdma::RdmaFabric* rdma) {
  WorldCounters c;
  c.events = simulator->events_dispatched();
  c.rdma_plane = fabric->stats(net::Plane::kRdma);
  c.congestion = fabric->congestion_totals();
  for (int h = 0; h < fabric->num_hosts(); ++h) {
    const rdma::NicDevice* nic = rdma->nic(h);
    const rdma::NicStats& s = nic->stats();
    c.nic.writes += s.writes;
    c.nic.doorbells += s.doorbells;
    c.nic.registrations += s.registrations;
    c.nic.registration_cost_ns_total += s.registration_cost_ns_total;
    c.nic.retransmissions += s.retransmissions;
    c.nic.cnps_received += s.cnps_received;
    c.nic.dcqcn_rate_decreases += s.dcqcn_rate_decreases;
    c.nic.dcqcn_pacing_delay_ns_total += s.dcqcn_pacing_delay_ns_total;
    c.queue_pairs += nic->num_queue_pairs();
  }
  return c;
}

void AddWindowLayers(const WorldCounters& before, const WorldCounters& after, int64_t ops,
                     const std::vector<WallBlock>& blocks, uint64_t mtu_bytes,
                     std::map<std::string, double>* layer) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  auto per_op = [n](double delta) { return delta / n; };
  const double events = static_cast<double>(after.events - before.events);
  std::map<std::string, double>& l = *layer;
  l["sim.events_per_op"] = per_op(events);
  l["sim.ns_per_event"] = FloorNsPerEvent(blocks);
  l["net.transfers_per_op"] =
      per_op(static_cast<double>(after.rdma_plane.transfers - before.rdma_plane.transfers));
  l["net.mtu_segments_per_op"] =
      per_op(static_cast<double>(after.rdma_plane.bytes - before.rdma_plane.bytes) /
             static_cast<double>(std::max<uint64_t>(mtu_bytes, 1)));
  l["net.ecn_marks_per_op"] =
      per_op(static_cast<double>(after.congestion.ecn_marks - before.congestion.ecn_marks));
  l["net.overflow_drops_per_op"] = per_op(
      static_cast<double>(after.congestion.overflow_drops - before.congestion.overflow_drops));
  l["net.pause_windows_per_op"] = per_op(
      static_cast<double>(after.congestion.pause_windows - before.congestion.pause_windows));
  l["net.peak_backlog_us"] = static_cast<double>(after.congestion.peak_backlog_ns) / 1e3;
  l["rdma.writes_per_op"] = per_op(static_cast<double>(after.nic.writes - before.nic.writes));
  l["rdma.doorbells_per_op"] =
      per_op(static_cast<double>(after.nic.doorbells - before.nic.doorbells));
  l["rdma.retransmissions_per_op"] =
      per_op(static_cast<double>(after.nic.retransmissions - before.nic.retransmissions));
  l["rdma.cnps_per_op"] =
      per_op(static_cast<double>(after.nic.cnps_received - before.nic.cnps_received));
  l["rdma.rate_decreases_per_op"] = per_op(
      static_cast<double>(after.nic.dcqcn_rate_decreases - before.nic.dcqcn_rate_decreases));
  l["rdma.pacing_delay_us_per_op"] =
      per_op(static_cast<double>(after.nic.dcqcn_pacing_delay_ns_total -
                                 before.nic.dcqcn_pacing_delay_ns_total) /
             1e3);
}

void AddSetupLayers(const WorldCounters& at_setup, const rdma::QpPool& pool,
                    std::map<std::string, double>* layer) {
  std::map<std::string, double>& l = *layer;
  l["rdma.registrations"] = static_cast<double>(at_setup.nic.registrations);
  l["rdma.registration_ms"] = static_cast<double>(at_setup.nic.registration_cost_ns_total) / 1e6;
  l["rdma.total_qps"] = static_cast<double>(at_setup.queue_pairs);
  l["rdma.qp_pool_lanes"] = pool.num_lanes();
  l["rdma.qp_pool_evictions"] = static_cast<double>(pool.stats().evictions);
}

namespace {

// Value of the JSON string field |key| in |line| (no escapes in our tracks).
bool StringField(const std::string& line, const std::string& key, std::string* out) {
  const std::string pattern = "\"" + key + "\":\"";
  const size_t at = line.find(pattern);
  if (at == std::string::npos) return false;
  const size_t begin = at + pattern.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

bool NumberField(const std::string& line, const std::string& key, double* out) {
  const std::string pattern = "\"" + key + "\":";
  const size_t at = line.find(pattern);
  if (at == std::string::npos) return false;
  *out = std::strtod(line.c_str() + at + pattern.size(), nullptr);
  return true;
}

}  // namespace

std::vector<Span> ParseSpans(const std::string& chrome_json) {
  // sim::Tracer::ToJson writes one event per line: complete spans ("X") first,
  // then one thread_name metadata record ("M") per track.
  std::vector<std::pair<int, Span>> spans;
  std::map<int, std::string> tracks;
  size_t pos = 0;
  while (pos < chrome_json.size()) {
    size_t end = chrome_json.find('\n', pos);
    if (end == std::string::npos) end = chrome_json.size();
    const std::string line = chrome_json.substr(pos, end - pos);
    pos = end + 1;
    std::string ph;
    double tid = 0;
    if (!StringField(line, "ph", &ph) || !NumberField(line, "tid", &tid)) continue;
    if (ph == "X") {
      Span span;
      double dur = 0;
      if (StringField(line, "name", &span.name) && NumberField(line, "dur", &dur)) {
        span.dur_us = dur;
        spans.emplace_back(static_cast<int>(tid), std::move(span));
      }
    } else if (ph == "M") {
      const size_t args = line.find("\"args\"");
      std::string track;
      if (args != std::string::npos && StringField(line.substr(args), "name", &track)) {
        tracks[static_cast<int>(tid)] = track;
      }
    }
  }
  std::vector<Span> out;
  out.reserve(spans.size());
  for (auto& [tid, span] : spans) {
    span.track = tracks[tid];
    out.push_back(std::move(span));
  }
  return out;
}

void PhysicsJson::Add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_[key] = buf;
}

void PhysicsJson::Add(const std::string& key, int64_t value) {
  fields_[key] = std::to_string(value);
}

void PhysicsJson::Add(const std::string& key, const std::string& value) {
  fields_[key] = "\"" + value + "\"";
}

void PhysicsJson::AddCost(const net::CostModel& c) {
  Add("cost.rdma_bandwidth_bytes_per_sec", c.rdma_bandwidth_bytes_per_sec);
  Add("cost.rdma_one_way_latency_ns", c.rdma_one_way_latency_ns);
  Add("cost.rdma_post_overhead_ns", c.rdma_post_overhead_ns);
  Add("cost.rdma_nic_processing_ns", c.rdma_nic_processing_ns);
  Add("cost.cq_poll_overhead_ns", c.cq_poll_overhead_ns);
  Add("cost.rdma_mtu_bytes", static_cast<int64_t>(c.rdma_mtu_bytes));
  Add("cost.rdma_qp_engine_bytes_per_sec", c.rdma_qp_engine_bytes_per_sec);
  Add("cost.rdma_transport_retry_count", static_cast<int64_t>(c.rdma_transport_retry_count));
  Add("cost.rdma_transport_retry_base_ns", c.rdma_transport_retry_base_ns);
  Add("cost.rdma_transport_retry_max_ns", c.rdma_transport_retry_max_ns);
  Add("cost.mr_register_base_ns", c.mr_register_base_ns);
  Add("cost.mr_register_per_page_ns", c.mr_register_per_page_ns);
  Add("cost.mr_page_bytes", static_cast<int64_t>(c.mr_page_bytes));
  Add("cost.max_memory_regions", static_cast<int64_t>(c.max_memory_regions));
  Add("cost.max_queue_pairs", static_cast<int64_t>(c.max_queue_pairs));
  Add("cost.tcp_bandwidth_bytes_per_sec", c.tcp_bandwidth_bytes_per_sec);
  Add("cost.tcp_one_way_latency_ns", c.tcp_one_way_latency_ns);
  Add("cost.tcp_per_message_overhead_ns", c.tcp_per_message_overhead_ns);
  Add("cost.memcpy_bytes_per_sec", c.memcpy_bytes_per_sec);
  Add("cost.staging_memcpy_bytes_per_sec", c.staging_memcpy_bytes_per_sec);
  Add("cost.reduce_bytes_per_sec", c.reduce_bytes_per_sec);
  Add("cost.serialize_bytes_per_sec", c.serialize_bytes_per_sec);
  Add("cost.deserialize_bytes_per_sec", c.deserialize_bytes_per_sec);
  Add("cost.rpc_dispatch_overhead_ns", c.rpc_dispatch_overhead_ns);
  Add("cost.rpc_ring_buffer_bytes", static_cast<int64_t>(c.rpc_ring_buffer_bytes));
  Add("cost.rpc_rdma_max_message_bytes", static_cast<int64_t>(c.rpc_rdma_max_message_bytes));
  Add("cost.mini_rpc_dispatch_ns", c.mini_rpc_dispatch_ns);
  Add("cost.malloc_overhead_ns", c.malloc_overhead_ns);
  Add("cost.arena_alloc_overhead_ns", c.arena_alloc_overhead_ns);
  Add("cost.flag_poll_cost_ns", c.flag_poll_cost_ns);
  Add("cost.idle_poll_interval_ns", c.idle_poll_interval_ns);
  Add("cost.idle_poll_max_interval_ns", c.idle_poll_max_interval_ns);
  Add("cost.pcie_bandwidth_bytes_per_sec", c.pcie_bandwidth_bytes_per_sec);
  Add("cost.pcie_latency_ns", c.pcie_latency_ns);
  Add("cost.gdr_bandwidth_bytes_per_sec", c.gdr_bandwidth_bytes_per_sec);
  Add("cost.loopback_bandwidth_bytes_per_sec", c.loopback_bandwidth_bytes_per_sec);
  Add("cost.loopback_latency_ns", c.loopback_latency_ns);
}

void PhysicsJson::AddTopology(const net::TopologyConfig& t) {
  Add("topology.hosts_per_rack", static_cast<int64_t>(t.hosts_per_rack));
  Add("topology.oversubscription", t.oversubscription);
  Add("topology.per_hop_latency_ns", t.per_hop_latency_ns);
  Add("topology.spine_links", static_cast<int64_t>(t.spine_links));
  Add("topology.switch_reduce", static_cast<int64_t>(t.switch_reduce));
  Add("topology.switch_reduce_bytes_per_sec", t.switch_reduce_bytes_per_sec);
  Add("topology.switch_reduce_window_bytes", static_cast<int64_t>(t.switch_reduce_window_bytes));
  Add("topology.switch_engine_latency_ns", t.switch_engine_latency_ns);
  const net::CongestionConfig& c = t.congestion;
  Add("congestion.queue_capacity_bytes", static_cast<int64_t>(c.queue_capacity_bytes));
  Add("congestion.ecn_threshold_bytes", static_cast<int64_t>(c.ecn_threshold_bytes));
  Add("congestion.pause_on_overflow", static_cast<int64_t>(c.pause_on_overflow));
  Add("congestion.pause_ns", c.pause_ns);
  Add("congestion.dcqcn", static_cast<int64_t>(c.dcqcn));
  Add("congestion.dcqcn_min_rate_bytes_per_sec", c.dcqcn_min_rate_bytes_per_sec);
  Add("congestion.dcqcn_alpha_g", c.dcqcn_alpha_g);
  Add("congestion.dcqcn_cnp_interval_ns", c.dcqcn_cnp_interval_ns);
  Add("congestion.dcqcn_recovery_period_ns", c.dcqcn_recovery_period_ns);
  Add("congestion.dcqcn_recovery_bytes", static_cast<int64_t>(c.dcqcn_recovery_bytes));
  Add("congestion.dcqcn_fast_recovery_stages", static_cast<int64_t>(c.dcqcn_fast_recovery_stages));
  Add("congestion.dcqcn_rate_ai_bytes_per_sec", c.dcqcn_rate_ai_bytes_per_sec);
}

void PhysicsJson::AddEngine(const comm::TransferEngineOptions& e) {
  Add("engine.enable_striping", static_cast<int64_t>(e.enable_striping));
  Add("engine.stripe_lanes", static_cast<int64_t>(e.stripe_lanes));
  Add("engine.stripe_threshold_bytes", static_cast<int64_t>(e.stripe_threshold_bytes));
  Add("engine.enable_coalescing", static_cast<int64_t>(e.enable_coalescing));
  Add("engine.coalesce_threshold_bytes", static_cast<int64_t>(e.coalesce_threshold_bytes));
  Add("engine.coalesce_window_ns", e.coalesce_window_ns);
  Add("engine.max_coalesce_batch", static_cast<int64_t>(e.max_coalesce_batch));
  Add("engine.mr_cache_capacity", static_cast<int64_t>(e.mr_cache_capacity));
}

std::string PhysicsJson::str() const {
  std::string out = "{";
  for (const auto& [key, value] : fields_) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": " + value;
  }
  return out + "}";
}

}  // namespace perfbench
}  // namespace rdmadl
