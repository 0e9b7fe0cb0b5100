// CheckpointManager: periodic snapshots of model/optimizer state (the PS
// variable shards, or the per-replica variables in all-reduce mode) into
// host-local memory, so recovery after a confirmed failure is
// rollback-to-last-checkpoint instead of restart-from-scratch.
//
// Consistency: the training driver only snapshots *between* steps, after the
// simulator has quiesced, so every variable reflects the same completed step
// — a consistent cut by construction (synchronous data-parallel training has
// no in-flight updates between steps).
//
// Memory fidelity follows the cluster's compute mode: in kReal mode the
// snapshot deep-copies variable bytes into checkpoint buffers and Restore
// copies them back; in kSimulated mode buffers are virtual so the snapshot
// captures metadata (name/dtype/shape/placement) and the *time* cost of the
// copy, which is what the discrete-event model needs. Restore may retarget a
// variable to a different device than it was captured on (PS shard
// reassignment after a server death): it overwrites the variable in place
// when the new owner already holds it, and pre-creates it otherwise so the
// next step's Variable kernel adopts the restored state instead of
// re-initializing.
#ifndef RDMADL_SRC_CONTROL_CHECKPOINT_H_
#define RDMADL_SRC_CONTROL_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/runtime/session.h"
#include "src/util/status.h"

namespace rdmadl {
namespace control {

struct CheckpointOptions {
  // Snapshot every K completed steps (<= 0 disables periodic snapshots; the
  // driver still takes an initial one so a checkpoint always exists).
  int interval_steps = 5;
  // Modeled host-DRAM copy bandwidth; a snapshot or restore of B bytes
  // advances virtual time by B / this.
  double snapshot_bytes_per_sec = 20e9;
};

struct CheckpointStats {
  int64_t snapshots = 0;
  int64_t restores = 0;
  uint64_t bytes_captured = 0;       // Cumulative over all snapshots.
  uint64_t last_snapshot_bytes = 0;
  int64_t variables_captured = 0;    // In the latest snapshot.
  int64_t variables_restored = 0;    // Cumulative.
};

class CheckpointManager {
 public:
  CheckpointManager(runtime::Cluster* cluster, const CheckpointOptions& options)
      : cluster_(cluster), options_(options) {}

  bool ShouldSnapshot(int64_t completed_steps) const {
    return options_.interval_steps > 0 && completed_steps > 0 &&
           completed_steps % options_.interval_steps == 0;
  }

  // Captures every variable of the processes named in |devices|. |step| and
  // |samples| tag the checkpoint so the driver can roll its counters back on
  // restore. Replaces the previous checkpoint (single-slot, last-wins). After
  // an elastic reconfiguration a dead server's ResourceManager still holds
  // the shards that were reassigned away from it, so the driver scopes the
  // capture to the surviving membership to keep variable names unique.
  Status Snapshot(int64_t step, double samples, std::vector<std::string> devices);

  // Restores the captured variables; |var_device| maps variable name to the
  // device that owns it in the *current* (possibly reconfigured) placement.
  // Captured variables absent from the map are skipped — they belonged to
  // replicas that no longer exist.
  Status Restore(const std::map<std::string, std::string>& var_device);

  bool has_checkpoint() const { return has_checkpoint_; }
  int64_t step() const { return step_; }
  double samples() const { return samples_; }
  const CheckpointStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string source_device;
    tensor::DType dtype;
    tensor::TensorShape shape;
    uint64_t bytes = 0;
    std::vector<uint8_t> data;  // Empty in kSimulated mode.
  };

  // Advances virtual time by the modeled copy cost of |bytes|.
  void ChargeCopyCost(uint64_t bytes);

  runtime::Cluster* cluster_;
  CheckpointOptions options_;
  bool has_checkpoint_ = false;
  int64_t step_ = 0;
  double samples_ = 0;
  std::map<std::string, Entry> entries_;  // Ordered: deterministic restore.
  CheckpointStats stats_;
};

}  // namespace control
}  // namespace rdmadl

#endif  // RDMADL_SRC_CONTROL_CHECKPOINT_H_
