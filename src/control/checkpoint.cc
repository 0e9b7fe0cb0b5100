#include "src/control/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace control {

void CheckpointManager::ChargeCopyCost(uint64_t bytes) {
  if (bytes == 0 || options_.snapshot_bytes_per_sec <= 0) return;
  const int64_t cost_ns = static_cast<int64_t>(
      static_cast<double>(bytes) / options_.snapshot_bytes_per_sec * 1e9);
  sim::Simulator* simulator = cluster_->simulator();
  Status run = simulator->RunUntil(simulator->Now() + cost_ns);
  if (!run.ok()) {
    LOG(ERROR) << "checkpoint copy-cost advance failed: " << run.ToString();
  }
}

Status CheckpointManager::Snapshot(int64_t step, double samples,
                                   std::vector<std::string> devices) {
  entries_.clear();
  uint64_t total_bytes = 0;
  // Device names are iterated in sorted order so the capture order (and the
  // trace it produces) is deterministic.
  std::sort(devices.begin(), devices.end());
  for (const std::string& device : devices) {
    runtime::HostRuntime* host = cluster_->host(device);
    if (host == nullptr) continue;
    // Variables live in an unordered map; order them by name.
    std::map<std::string, const tensor::Tensor*> ordered;
    for (const auto& [name, var] : host->resources()->variables()) {
      ordered.emplace(name, &var);
    }
    for (const auto& [name, var] : ordered) {
      if (entries_.count(name) > 0) {
        return Internal(StrCat("variable '", name, "' exists on both ",
                               entries_[name].source_device, " and ", device));
      }
      Entry e;
      e.source_device = device;
      e.dtype = var->dtype();
      e.shape = var->shape();
      e.bytes = var->TotalBytes();
      if (host->real_memory()) {
        e.data.resize(e.bytes);
        std::memcpy(e.data.data(), var->raw_data(), e.bytes);
      }
      total_bytes += e.bytes;
      entries_.emplace(name, std::move(e));
    }
  }
  ChargeCopyCost(total_bytes);
  has_checkpoint_ = true;
  step_ = step;
  samples_ = samples;
  ++stats_.snapshots;
  stats_.bytes_captured += total_bytes;
  stats_.last_snapshot_bytes = total_bytes;
  stats_.variables_captured = static_cast<int64_t>(entries_.size());
  sim::TraceInstant("checkpoint", cluster_->simulator()->Now(), "snapshot step ", step, ": ",
                    entries_.size(), " variables, ", total_bytes, " bytes");
  return OkStatus();
}

Status CheckpointManager::Restore(const std::map<std::string, std::string>& var_device) {
  if (!has_checkpoint_) return FailedPrecondition("no checkpoint to restore");
  uint64_t total_bytes = 0;
  int64_t restored = 0;
  for (const auto& [name, entry] : entries_) {
    auto it = var_device.find(name);
    if (it == var_device.end()) continue;  // Variable's replica no longer exists.
    runtime::HostRuntime* host = cluster_->host(it->second);
    if (host == nullptr) {
      return NotFound(StrCat("restore target device '", it->second,
                             "' for variable '", name, "' not in cluster"));
    }
    ops::ResourceManager* rm = host->resources();
    if (rm->HasVariable(name)) {
      const tensor::Tensor& var = rm->GetVariable(name);
      if (var.TotalBytes() != entry.bytes) {
        return Internal(StrCat("variable '", name, "' is ", var.TotalBytes(),
                               " bytes but checkpoint holds ", entry.bytes));
      }
      if (host->real_memory() && !entry.data.empty()) {
        std::memcpy(var.raw_data(), entry.data.data(), entry.bytes);
      }
    } else {
      // The (re)assigned owner has not materialized the variable yet:
      // pre-create it so the next step's Variable kernel adopts the restored
      // state instead of running its initializer.
      tensor::Tensor var(host->default_allocator(), entry.dtype, entry.shape);
      if (host->real_memory() && !entry.data.empty()) {
        std::memcpy(var.raw_data(), entry.data.data(), entry.bytes);
      }
      rm->PutVariable(name, std::move(var));
    }
    total_bytes += entry.bytes;
    ++restored;
  }
  ChargeCopyCost(total_bytes);
  ++stats_.restores;
  stats_.variables_restored += restored;
  sim::TraceInstant("checkpoint", cluster_->simulator()->Now(), "restore to step ", step_, ": ",
                    restored, " variables, ", total_bytes, " bytes");
  return OkStatus();
}

}  // namespace control
}  // namespace rdmadl
