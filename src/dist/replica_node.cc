#include "dist/replica_node.h"

#include <utility>

namespace stl {

ReplicaNode::ReplicaNode(Graph graph,
                         const HierarchyOptions& hierarchy_options,
                         const ShardedEngineOptions& engine_options,
                         const ShardReplicaOptions& replica_options)
    : engine_(std::move(graph), hierarchy_options, engine_options),
      replica_(replica_options) {
  // Epoch 0 is servable immediately; the router's seq-0 install only
  // verifies it.
  replica_.Install(engine_.CurrentSnapshot());
}

std::vector<uint8_t> ReplicaNode::Handle(const uint8_t* data, size_t size) {
  WireKind kind = WireKind::kBoundaryRow;
  if (PeekWireKind(data, size, &kind).ok() && kind == WireKind::kInstall) {
    return HandleInstall(data, size);
  }
  // Query kinds — and malformed bytes, which ShardReplica::Handle
  // already answers with a typed kUnavailable response.
  return replica_.Handle(data, size);
}

bool ReplicaNode::ValidUpdates(const std::vector<WeightUpdate>& updates) {
  const uint32_t num_edges = engine_.CurrentSnapshot()->graph.NumEdges();
  for (const WeightUpdate& u : updates) {
    if (!IsValidUpdate(u.edge, u.new_weight, num_edges)) return false;
  }
  return true;
}

std::vector<uint8_t> ReplicaNode::HandleInstall(const uint8_t* data,
                                                size_t size) {
  InstallAck ack;
  InstallRequest req;
  std::lock_guard<std::mutex> lock(install_mu_);
  ack.next_seq = next_seq_;
  ack.engine_epoch = engine_.CurrentSnapshot()->epoch;
  if (!InstallRequest::Decode(data, size, &req).ok() || diverged_ ||
      !ValidUpdates(req.updates)) {
    // Malformed bytes or an out-of-range update: nack without touching
    // the replication state (the engine would abort on it).
    install_nacks_.fetch_add(1, std::memory_order_relaxed);
    return ack.Encode();
  }
  if (req.seq < next_seq_) {
    // Already applied (router retry after a lost ack): idempotent ok.
    ack.ok = true;
    return ack.Encode();
  }
  if (req.seq > next_seq_) {
    // Gap: the router must replay from next_seq_.
    install_nacks_.fetch_add(1, std::memory_order_relaxed);
    return ack.Encode();
  }

  if (!req.updates.empty()) {
    engine_.EnqueueUpdates(req.updates);
    engine_.Flush();
  }
  auto snap = engine_.CurrentSnapshot();
  bool matches = snap->epoch == req.expected_engine_epoch &&
                 req.expected_shard_epochs.size() == snap->shards.size();
  if (matches) {
    for (size_t i = 0; i < snap->shards.size(); ++i) {
      if (snap->shards[i]->shard_epoch != req.expected_shard_epochs[i]) {
        matches = false;
        break;
      }
    }
  }
  ack.engine_epoch = snap->epoch;
  if (!matches) {
    // The state machines diverged — by construction this cannot happen
    // with identical (graph, options, update stream); if it does, stop
    // applying and keep serving the epochs already held (never wrong
    // bytes, only typed staleness).
    diverged_ = true;
    install_nacks_.fetch_add(1, std::memory_order_relaxed);
    return ack.Encode();
  }
  replica_.Install(std::move(snap));
  ++next_seq_;
  ack.ok = true;
  ack.next_seq = next_seq_;
  installs_applied_.fetch_add(1, std::memory_order_relaxed);
  return ack.Encode();
}

}  // namespace stl
