// Open-loop serving benchmark over the public serving API.
//
//   perfbench --workload <flat-read|router-tcp> --seed <n>
//             --seconds <s> --trace <0|1> [--span-dir <dir>]
//
// One generator thread sends distance queries on a fixed schedule
// (open loop) through SubmitTagged and times each one from when it was
// due to when the CompletionSink received it; one writer thread drives
// the workload's update batches through EnqueueUpdates + Flush. The
// graph, the query stream and the update batches are all generated
// from --seed before anything is timed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs two windows
// back to back on one stream — the first untraced, the second with the
// transport and server wrappers recording — and prints per-layer
// metrics, the tracing overhead between the two windows, and writes
// the recorded spans to --span-dir.
//
// Correctness is checked outside every timer and fails the run (exit
// 1): a seeded sample of answers is audited against Dijkstra on the
// graph of the epoch that served it, every tag must arrive exactly
// once, and the standalone index replays must repeat their counts.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/stl_index.h"
#include "dist/replica_node.h"
#include "dist/shard_router.h"
#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "graph/generators.h"
#include "index/distance_index.h"
#include "net/server.h"
#include "perfbench/harness.h"
#include "util/rng.h"
#include "workload/query_workload.h"
#include "workload/update_workload.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------ workloads

struct Spec {
  const char* name;
  uint32_t grid_side;
  double query_rate;     // queries per second, open loop
  double hot_fraction;   // share drawn from the hot set (0 = uniform)
  size_t hot_pairs;
  bool router;           // ShardRouter over TCP, else flat QueryEngine
  int readers;
  size_t result_cache_entries;
  std::vector<size_t> batch_sizes;  // one update cycle
  double batch_interval_ms;         // open-loop update schedule
};

// Why these two: flat-read is dominated by the index kernel and the
// engine's admission/pool/delivery path (the 45 MB index is far beyond
// L2, maintenance nearly idle); router-tcp by the dist fan-out, the net
// layer and overlay repair, with a per-shard working set that fits in
// cache.
//
// router-tcp runs 5k q/s with a batch every 200 ms. Every RPC and the
// final min-plus reduction run on the transport's one loop thread, and
// each batch is applied by three engines (the router's writer tier and
// both replicas, inline on their server loops); at 10k q/s, or with a
// batch every 50 ms, the tier sat near capacity and a run's query
// median swung between 60 µs and 3.5 ms.
const Spec kSpecs[] = {
    {"flat-read", 160, 50000, 0.25, 256, false, 2, 1 << 14, {4}, 250},
    {"router-tcp", 100, 5000, 0, 0, true, 2, 0, {8}, 200},
};

constexpr double kWarmupSeconds = 1.0;
constexpr int kSetupRepeats = 3;
constexpr size_t kAuditSample = 3000;
constexpr size_t kReplayBatches = 8;
constexpr uint32_t kShards = 4;
constexpr uint32_t kReplicas = 2;
constexpr uint64_t kSpanSampleEvery = 16;
// The congest/restore script does not follow --seed: one to four edge
// batches cost from 0.01 to 100+ ms depending on the edges drawn, so a
// run's median over tens of batches would swing with the seed far
// beyond any useful bound.
constexpr uint64_t kUpdateScriptSeed = 20250;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  stl::Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.Next();
}

/// The seeded congest/restore update sequence. Cycle c applies the
/// workload's batch sizes in order; even cycles congest (x4) a fresh
/// set of distinct edges, odd cycles restore the previous cycle's
/// edges, so weights never drift and every update is effective.
class UpdatePlan {
 public:
  UpdatePlan(const stl::Graph& base, std::vector<size_t> sizes, uint64_t seed)
      : base_(base), sizes_(std::move(sizes)), seed_(seed) {}

  std::vector<stl::WeightUpdate> Batch(uint64_t k) const {
    const uint64_t cycle = k / sizes_.size();
    const size_t pos = k % sizes_.size();
    const size_t total = std::accumulate(sizes_.begin(), sizes_.end(),
                                         size_t{0});
    const std::vector<stl::EdgeId> edges =
        stl::SampleDistinctEdges(base_, total, Mix(seed_, 1000 + cycle / 2));
    const size_t offset = std::accumulate(sizes_.begin(),
                                          sizes_.begin() + pos, size_t{0});
    const bool restore = cycle % 2 == 1;
    std::vector<stl::WeightUpdate> batch;
    for (size_t i = offset; i < offset + sizes_[pos]; ++i) {
      const stl::Weight w0 = base_.EdgeWeight(edges[i]);
      const stl::Weight w =
          restore ? w0 : std::min<stl::Weight>(w0 * 4, stl::kMaxEdgeWeight);
      batch.push_back(stl::WeightUpdate{edges[i], 0, w});
    }
    return batch;
  }

 private:
  const stl::Graph& base_;
  std::vector<size_t> sizes_;
  uint64_t seed_;
};

// ------------------------------------------------------- layer tracing

/// What the traced window records below the engine: every RPC seen by
/// the transport decorator and every request seen by the server
/// handler wrapper. Recording is off until the traced window opens.
class LayerTrace {
 public:
  struct Rpc {
    uint64_t tag;
    int64_t start_ns, end_ns;
    uint64_t bytes;  // request + response payload
    bool install;
  };
  struct Handle {
    uint64_t seq;
    int64_t start_ns, end_ns;
    bool install;
  };

  bool on() const { return on_.load(std::memory_order_acquire); }
  void set_on(bool on) { on_.store(on, std::memory_order_release); }

  void AddRpc(const Rpc& rpc) {
    std::lock_guard<std::mutex> lock(mu_);
    rpcs_.push_back(rpc);
  }
  void AddHandle(int64_t start_ns, int64_t end_ns, bool install) {
    std::lock_guard<std::mutex> lock(mu_);
    handles_.push_back(Handle{handles_.size(), start_ns, end_ns, install});
  }
  std::vector<Rpc> rpcs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rpcs_;
  }
  std::vector<Handle> handles() const {
    std::lock_guard<std::mutex> lock(mu_);
    return handles_;
  }

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Rpc> rpcs_;        // guarded by mu_
  std::vector<Handle> handles_;  // guarded by mu_
};

bool IsInstall(const uint8_t* data, size_t size) {
  stl::WireKind kind = stl::WireKind::kBoundaryRow;
  return stl::PeekWireKind(data, size, &kind).ok() &&
         kind == stl::WireKind::kInstall;
}

/// Transport decorator: times each RPC from Send to its response while
/// the trace is on, and passes straight through otherwise.
class TracedTransport final : public stl::Transport,
                              public stl::TransportSink {
 public:
  TracedTransport(stl::Transport* inner, LayerTrace* trace)
      : inner_(inner), trace_(trace) {}

  uint32_t NumEndpoints() const override { return inner_->NumEndpoints(); }

  void Send(uint32_t endpoint, uint64_t tag,
            std::shared_ptr<const std::vector<uint8_t>> request,
            stl::TransportSink* sink) override {
    if (!trace_->on()) {
      inner_->Send(endpoint, tag, std::move(request), sink);
      return;
    }
    const bool install = IsInstall(request->data(), request->size());
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_[tag] = Pending{sink, NowNs(), request->size(), install};
    }
    inner_->Send(endpoint, tag, std::move(request), this);
  }

  void OnResponse(uint64_t tag, stl::Status status,
                  std::vector<uint8_t> payload) override {
    const int64_t now = NowNs();
    Pending p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(tag);
      if (it == pending_.end()) return;  // duplicate of a settled tag
      p = it->second;
      pending_.erase(it);
    }
    trace_->AddRpc(LayerTrace::Rpc{tag, p.start_ns, now,
                                   p.request_bytes + payload.size(),
                                   p.install});
    p.sink->OnResponse(tag, std::move(status), std::move(payload));
  }

 private:
  struct Pending {
    stl::TransportSink* sink = nullptr;
    int64_t start_ns = 0;
    uint64_t request_bytes = 0;
    bool install = false;
  };
  stl::Transport* const inner_;
  LayerTrace* const trace_;
  std::mutex mu_;
  std::unordered_map<uint64_t, Pending> pending_;  // guarded by mu_
};

// ------------------------------------------------------ serving systems

stl::EngineOptions FlatOptions(const Spec& spec) {
  stl::EngineOptions opt;
  opt.backend = stl::BackendKind::kStl;
  opt.num_query_threads = spec.readers;
  opt.result_cache_entries = spec.result_cache_entries;
  return opt;
}

stl::ShardedEngineOptions ShardOptions() {
  stl::ShardedEngineOptions opt;
  opt.backend = stl::BackendKind::kStl;
  opt.target_shards = kShards;
  opt.num_query_threads = 2;
  return opt;
}

/// Two ReplicaNodes behind FrameServers on localhost, reached only
/// through a SocketTransport by a ShardRouter. Members are destroyed in
/// reverse order: the router drains before its transport and servers.
struct RouterTier {
  std::vector<std::unique_ptr<stl::ReplicaNode>> nodes;
  std::vector<std::unique_ptr<stl::FrameServer>> servers;
  std::unique_ptr<stl::SocketTransport> socket;
  std::unique_ptr<TracedTransport> traced;
  std::unique_ptr<stl::ShardRouter> router;
};

std::unique_ptr<RouterTier> BuildRouterTier(const stl::Graph& base,
                                            const Spec& spec,
                                            LayerTrace* trace,
                                            double* setup_s) {
  std::vector<stl::Graph> copies(kReplicas + 1, base);
  auto tier = std::make_unique<RouterTier>();
  const int64_t t0 = NowNs();
  std::vector<std::string> endpoints;
  for (uint32_t i = 0; i < kReplicas; ++i) {
    tier->nodes.push_back(std::make_unique<stl::ReplicaNode>(
        std::move(copies[i]), stl::HierarchyOptions{}, ShardOptions()));
    stl::ReplicaNode* node = tier->nodes.back().get();
    tier->servers.push_back(std::make_unique<stl::FrameServer>(
        stl::FrameServer::Options{},
        [node, trace](const uint8_t* data, size_t size) {
          if (trace == nullptr || !trace->on()) return node->Handle(data, size);
          const int64_t start = NowNs();
          std::vector<uint8_t> out = node->Handle(data, size);
          trace->AddHandle(start, NowNs(), IsInstall(data, size));
          return out;
        }));
    if (!tier->servers.back()->Start().ok()) return nullptr;
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(tier->servers.back()->port()));
  }
  tier->socket = std::make_unique<stl::SocketTransport>(endpoints);
  stl::Transport* transport = tier->socket.get();
  if (trace != nullptr) {
    tier->traced = std::make_unique<TracedTransport>(transport, trace);
    transport = tier->traced.get();
  }
  stl::ShardRouterOptions ropt;
  ropt.engine = ShardOptions();
  ropt.num_query_threads = spec.readers;
  ropt.result_cache_entries = spec.result_cache_entries;
  tier->router = std::make_unique<stl::ShardRouter>(
      std::move(copies[kReplicas]), stl::HierarchyOptions{}, ropt, transport,
      std::vector<stl::ShardReplica*>{});
  *setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return tier;
}

/// Serving counters the traced window diffs between its two ends.
struct Counters {
  double publish_us = 0;
  uint64_t epochs = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  uint64_t batches_pareto = 0;
  uint64_t batches_label = 0;
  uint64_t updates_coalesced = 0;
  uint64_t rpcs_sent = 0;
  uint64_t rpc_retries = 0;
  uint64_t rpc_failovers = 0;
  uint64_t rpc_stale = 0;
};

Counters FromEngineStats(const stl::EngineStats& s) {
  Counters c;
  c.publish_us = s.publish_total_micros;
  c.epochs = s.epochs_published;
  c.cache_lookups = s.result_cache_lookups;
  c.cache_hits = s.result_cache_hits;
  c.batches_pareto = s.batches_pareto;
  c.batches_label = s.batches_label;
  c.updates_coalesced = s.updates_coalesced;
  return c;
}

Counters Sample(const stl::QueryEngine& engine) {
  return FromEngineStats(engine.Stats());
}

Counters Sample(const stl::ShardRouter& router) {
  const stl::RouterStats s = router.Stats();
  Counters c = FromEngineStats(s.serving);
  c.rpcs_sent = s.rpcs_sent;
  c.rpc_retries = s.rpc_retries;
  c.rpc_failovers = s.rpc_failovers;
  c.rpc_stale = s.rpc_stale_responses;
  return c;
}

uint64_t ResidentBytes(const stl::QueryEngine& engine) {
  return engine.Stats().resident_index_bytes;
}

// The router's Stats() carries no footprint, so walk its current
// snapshot the way ShardedEngine::Stats does: shard views, overlay,
// graph and layout, each shared block counted once.
uint64_t ResidentBytes(const stl::ShardRouter& router) {
  const auto snap = router.CurrentSnapshot();
  std::unordered_set<const void*> seen;
  uint64_t bytes = 0;
  for (const auto& shard : snap->shards) {
    bytes += shard->view->AddResidentBytes(&seen);
  }
  if (snap->overlay != nullptr) bytes += snap->overlay->AddResidentBytes(&seen);
  bytes += snap->graph.AddResidentBytes(&seen);
  if (seen.insert(snap->layout.get()).second) {
    bytes += snap->layout->MemoryBytes();
  }
  return bytes;
}

// ---------------------------------------------------------- the stream

/// Window boundaries on the stream's clock. Untraced runs have one
/// timed window [warm_end, a_end); traced runs add [a_end, b_end).
struct Windows {
  int64_t start = 0;
  int64_t warm_end = 0;
  int64_t a_end = 0;
  int64_t b_end = 0;
};

struct BatchRecord {
  uint64_t k = 0;
  size_t size = 0;
  int64_t enqueue_ns = 0;
  int64_t flushed_ns = 0;
};

struct WindowSample {
  double process_cpu_s = 0;
  double generator_cpu_s = 0;
  Counters counters;
};

struct StreamResult {
  uint64_t submitted = 0;
  std::vector<double> lag_us;
  std::vector<BatchRecord> batches;
  std::map<uint64_t, stl::Graph> graphs;  // epoch -> that epoch's weights
  WindowSample at[3];                     // warm_end, a_end, b_end
  bool drained = false;
};

template <typename Sys>
void RecordEpoch(const Sys& sys, std::map<uint64_t, stl::Graph>* graphs) {
  const auto snap = sys.CurrentSnapshot();
  graphs->emplace(snap->epoch, snap->graph);
}

template <typename Sys>
StreamResult RunStream(Sys& sys, const Spec& spec,
                       const std::vector<stl::QueryPair>& pairs,
                       const UpdatePlan& plan, const Windows& w,
                       TagLedger* ledger, LayerTrace* trace,
                       int generator_cpu) {
  StreamResult out;
  RecordEpoch(sys, &out.graphs);
  const int64_t boundary[3] = {w.warm_end, w.a_end, w.b_end};

  std::thread generator([&] {
    PinCurrentThread(generator_cpu);
    const OpenLoopSchedule schedule(w.start, spec.query_rate);
    int next_boundary = 0;
    OpenLoopRun run = RunOpenLoop(
        schedule, w.b_end, pairs.size(),
        [&](uint64_t i, int64_t due, int64_t issue) {
          while (next_boundary < 3 && due >= boundary[next_boundary]) {
            out.at[next_boundary].generator_cpu_s = ThreadCpuSeconds();
            if (next_boundary == 1 && trace != nullptr) trace->set_on(true);
            ++next_boundary;
          }
          ledger->MarkIssued(i, due, issue);
          sys.SubmitTagged(pairs[i], i, ledger);
        });
    for (; next_boundary < 3; ++next_boundary) {
      out.at[next_boundary].generator_cpu_s = ThreadCpuSeconds();
    }
    out.submitted = run.submitted;
    out.lag_us = std::move(run.lag_us);
  });

  std::thread writer([&] {
    const OpenLoopSchedule schedule(w.start, 1e3 / spec.batch_interval_ms);
    for (uint64_t k = 0; schedule.DueNs(k) < w.b_end; ++k) {
      const std::vector<stl::WeightUpdate> batch = plan.Batch(k);
      schedule.WaitUntilDue(k);
      BatchRecord rec{k, batch.size(), NowNs(), 0};
      sys.EnqueueUpdates(batch);
      sys.Flush();
      rec.flushed_ns = NowNs();
      out.batches.push_back(rec);
      RecordEpoch(sys, &out.graphs);
    }
  });

  for (int b = 0; b < 3; ++b) {
    const int64_t now = NowNs();
    if (boundary[b] > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(boundary[b] - now));
    }
    out.at[b].process_cpu_s = ProcessCpuSeconds();
    out.at[b].counters = Sample(sys);
  }
  generator.join();
  writer.join();
  if (trace != nullptr) trace->set_on(false);
  out.drained = ledger->WaitDelivered(out.submitted, 60.0);
  return out;
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// End-to-end numbers of one window [from, to) of the stream.
struct WindowMetrics {
  uint64_t queries = 0;
  std::vector<double> latency_us;  // due -> Deliver
  std::vector<double> service_us;  // Completion::latency_micros
  std::vector<double> lag_us;
  double cpu_us_per_query = 0;
  std::vector<double> visible_ms;
  double updates_per_s = 0;
};

WindowMetrics MeasureWindow(const StreamResult& s, const TagLedger& ledger,
                            const Spec& spec, int64_t from, int64_t to,
                            const WindowSample& a, const WindowSample& b) {
  WindowMetrics m;
  for (uint64_t tag = 0; tag < s.submitted; ++tag) {
    const int64_t due = ledger.due_ns(tag);
    if (due < from || due >= to) continue;
    ++m.queries;
    m.latency_us.push_back(static_cast<double>(ledger.done_ns(tag) - due) /
                           1e3);
    m.service_us.push_back(ledger.service_us(tag));
    m.lag_us.push_back(s.lag_us[tag]);
  }
  const double cpu = (b.process_cpu_s - a.process_cpu_s) -
                     (b.generator_cpu_s - a.generator_cpu_s);
  m.cpu_us_per_query =
      m.queries > 0 ? cpu * 1e6 / static_cast<double>(m.queries) : 0;

  // Update throughput over whole congest+restore units of the sequence,
  // so every window applies the same mix of increases and decreases.
  const uint64_t unit = 2 * spec.batch_sizes.size();
  size_t first = s.batches.size();
  for (size_t i = 0; i < s.batches.size(); ++i) {
    const BatchRecord& r = s.batches[i];
    if (r.enqueue_ns >= from && r.enqueue_ns < to) {
      m.visible_ms.push_back(
          static_cast<double>(r.flushed_ns - r.enqueue_ns) / 1e6);
    }
    if (first == s.batches.size() && r.enqueue_ns >= from && r.k % unit == 0) {
      first = i;
    }
  }
  uint64_t updates = 0;
  int64_t last_flush = 0;
  uint64_t in_unit = 0;
  uint64_t unit_updates = 0;
  for (size_t i = first; i < s.batches.size(); ++i) {
    const BatchRecord& r = s.batches[i];
    if (r.flushed_ns > to) break;
    unit_updates += r.size;
    if (++in_unit == unit) {
      updates += unit_updates;
      last_flush = r.flushed_ns;
      in_unit = 0;
      unit_updates = 0;
    }
  }
  if (updates > 0) {
    m.updates_per_s = static_cast<double>(updates) /
                      (static_cast<double>(last_flush -
                                           s.batches[first].enqueue_ns) /
                       1e9);
  }
  return m;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// ------------------------------------------------------- index replays

/// Resolves old weights on `g` and drops no-ops (what the engines'
/// writers do before ApplyBatch).
stl::UpdateBatch Resolve(const stl::Graph& g,
                         const std::vector<stl::WeightUpdate>& batch) {
  stl::UpdateBatch out;
  for (const stl::WeightUpdate& u : batch) {
    const stl::Weight old = g.EdgeWeight(u.edge);
    if (old != u.new_weight) out.push_back({u.edge, old, u.new_weight});
  }
  return out;
}

stl::MaintenanceStrategy Strategy(size_t batch_size) {
  return stl::ChooseStrategy(stl::StrategyMode::kAuto, 16, batch_size);
}

using SpanTimes = std::vector<std::pair<int64_t, int64_t>>;

/// Standalone core replay: the first kReplayBatches batches of the
/// workload's sequence through StlIndex::ApplyBatch on a fresh index
/// built from the same graph.
struct MaintenanceReplay {
  stl::MaintenanceStats stats;
  double apply_ms = 0;
  uint64_t updates = 0;
  SpanTimes apply_spans;
};

MaintenanceReplay ReplayStlIndex(const stl::Graph& base,
                                 const UpdatePlan& plan) {
  MaintenanceReplay r;
  stl::Graph g = base;
  stl::StlIndex index = stl::StlIndex::Build(&g, stl::HierarchyOptions{});
  for (uint64_t k = 0; k < kReplayBatches; ++k) {
    const stl::UpdateBatch batch = Resolve(g, plan.Batch(k));
    const int64_t t0 = NowNs();
    index.ApplyBatch(batch, Strategy(batch.size()));
    const int64_t t1 = NowNs();
    r.apply_ms += static_cast<double>(t1 - t0) / 1e6;
    r.updates += batch.size();
    r.apply_spans.emplace_back(t0, t1);
  }
  r.stats = index.MaintenanceStatsTotal();
  return r;
}

/// Standalone index replay: the same batches through
/// MakeDistanceIndex(kStl) with ApplyBatch + PublishView per batch.
/// Members die in reverse order, so the view and index go before the
/// graph they point into.
struct PublishReplay {
  std::unique_ptr<stl::Graph> graph;
  std::unique_ptr<stl::DistanceIndex> index;
  std::shared_ptr<const stl::IndexView> view;  // the last published epoch
  std::vector<double> publish_us;
  std::vector<uint64_t> cow_bytes;
  SpanTimes publish_spans;
};

std::unique_ptr<PublishReplay> ReplayDistanceIndex(const stl::Graph& base,
                                                   const UpdatePlan& plan) {
  auto r = std::make_unique<PublishReplay>();
  r->graph = std::make_unique<stl::Graph>(base);
  r->index = stl::MakeDistanceIndex(stl::BackendKind::kStl, r->graph.get(),
                                    stl::HierarchyOptions{});
  stl::PublishInfo info;
  r->view = r->index->PublishView(false, &info);
  for (uint64_t k = 0; k < kReplayBatches; ++k) {
    const stl::UpdateBatch batch = Resolve(*r->graph, plan.Batch(k));
    r->index->ApplyBatch(batch, Strategy(batch.size()));
    info = stl::PublishInfo{};
    const int64_t t0 = NowNs();
    r->view = r->index->PublishView(false, &info);
    const int64_t t1 = NowNs();
    r->publish_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    r->cow_bytes.push_back(info.label_bytes_cloned + info.deep_bytes_copied);
    r->publish_spans.emplace_back(t0, t1);
  }
  return r;
}

/// Single-thread kernel time per query over the workload's pairs.
double KernelNsPerQuery(const stl::IndexView& view,
                        const std::vector<stl::QueryPair>& pairs) {
  const size_t n = std::min<size_t>(pairs.size(), 200000);
  uint64_t sink = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    sink += view.Query(pairs[i].first, pairs[i].second);
  }
  const int64_t t1 = NowNs();
  if (sink == 42) std::fprintf(stderr, " ");  // keeps the loop observable
  return n > 0 ? static_cast<double>(t1 - t0) / static_cast<double>(n) : 0;
}

// ----------------------------------------------------------------- run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "0") != 0;
    } else if (key == "--span-dir") {
      a->span_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

template <typename Sys>
int Run(const Args& args, const Spec& spec, const stl::Graph& base,
        const std::vector<stl::QueryPair>& pairs, const UpdatePlan& plan,
        Sys& sys, RouterTier* tier, LayerTrace* trace, double setup_s,
        int generator_cpu) {
  const double window_s = args.seconds;
  Windows w;
  w.start = NowNs() + 20'000'000;  // let the threads start first
  w.warm_end = w.start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  w.a_end = w.warm_end + static_cast<int64_t>(window_s * 1e9);
  w.b_end = args.trace ? w.a_end + static_cast<int64_t>(window_s * 1e9)
                       : w.a_end;
  TagLedger ledger(pairs.size());
  const StreamResult s =
      RunStream(sys, spec, pairs, plan, w, &ledger, trace, generator_cpu);

  // ---- correctness, outside every timer
  bool correct = s.drained;
  if (!s.drained) std::fprintf(stderr, "FAIL: completions did not drain\n");
  const Conservation c = CheckConservation(ledger, s.submitted);
  if (!c.Holds()) {
    std::fprintf(stderr,
                 "FAIL: conservation: submitted %" PRIu64 " ok %" PRIu64
                 " overloaded %" PRIu64 " deadline %" PRIu64
                 " unavailable %" PRIu64 " other %" PRIu64 " lost %" PRIu64
                 " doubled %" PRIu64 "\n",
                 c.submitted, c.ok, c.overloaded, c.deadline, c.unavailable,
                 c.other, c.lost, c.doubled);
    correct = false;
  }
  std::vector<AuditItem> sample;
  stl::Rng pick(Mix(args.seed, 77));
  for (size_t i = 0; i < kAuditSample && s.submitted > 0; ++i) {
    const uint64_t tag = pick.NextBounded(s.submitted);
    if (ledger.deliveries(tag) == 0 ||
        ledger.code(tag) != stl::StatusCode::kOk) {
      continue;
    }
    sample.push_back(AuditItem{ledger.epoch(tag), pairs[tag].first,
                               pairs[tag].second, ledger.distance(tag)});
  }
  std::string first_bad;
  const uint64_t bad = AuditAgainstDijkstra(s.graphs, sample, 3, &first_bad);
  if (bad > 0) {
    std::fprintf(stderr, "FAIL: audit: %" PRIu64 " of %zu answers wrong; %s\n",
                 bad, sample.size(), first_bad.c_str());
    correct = false;
  }
  std::printf("audit: %zu sampled answers over %zu epochs, %" PRIu64
              " mismatches; conservation %s\n",
              sample.size(), s.graphs.size(), bad,
              c.Holds() ? "holds" : "BROKEN");

  const WindowMetrics a = MeasureWindow(s, ledger, spec, w.warm_end, w.a_end,
                                        s.at[0], s.at[1]);
  const double failed_frac =
      c.submitted > 0
          ? static_cast<double>(c.failed()) / static_cast<double>(c.submitted)
          : 0;
  std::printf("workload %s seed %" PRIu64
              ": %u vertices, %u edges, %.0f q/s, %" PRIu64
              " queries submitted, query_failed_frac %.6g of %" PRIu64 "\n",
              spec.name, args.seed, base.NumVertices(), base.NumEdges(),
              spec.query_rate, c.submitted, failed_frac, c.submitted);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"query_p50_us", Median(a.latency_us), "us"},
        {"query_cpu_us", a.cpu_us_per_query, "us"},
        {"update_visible_p50_ms", Median(a.visible_ms), "ms"},
        {"updates_per_s", a.updates_per_s, "1/s"},
        {"resident_mb", static_cast<double>(ResidentBytes(sys)) / 1e6, "MB"},
    };
    PrintResult(correct, c.submitted, c.failed(), metrics);
    return correct ? 0 : 1;
  }

  // ---- traced run: layer numbers from window B, tails from window A
  const WindowMetrics b = MeasureWindow(s, ledger, spec, w.a_end, w.b_end,
                                        s.at[1], s.at[2]);
  const Counters& c1 = s.at[1].counters;
  const Counters& c2 = s.at[2].counters;
  const double epochs = static_cast<double>(c2.epochs - c1.epochs);
  const double lookups = static_cast<double>(c2.cache_lookups -
                                             c1.cache_lookups);

  // core / index: standalone replays of the same batch sequence.
  // Each replay runs twice on fresh indexes; the counts must repeat.
  const MaintenanceReplay r1 = ReplayStlIndex(base, plan);
  const MaintenanceReplay r2 = ReplayStlIndex(base, plan);
  if (r1.stats.label_writes != r2.stats.label_writes ||
      r1.stats.queue_pops != r2.stats.queue_pops ||
      r1.stats.affected_pairs != r2.stats.affected_pairs) {
    std::fprintf(stderr, "FAIL: replay maintenance counts do not repeat\n");
    correct = false;
  }
  const std::unique_ptr<PublishReplay> rd = ReplayDistanceIndex(base, plan);
  if (rd->cow_bytes != ReplayDistanceIndex(base, plan)->cow_bytes) {
    std::fprintf(stderr, "FAIL: replay publish bytes do not repeat\n");
    correct = false;
  }
  // The kernel over the workload's pairs: the served snapshot's view on
  // the flat engine, the replayed full-graph view for the router.
  double kernel_ns = 0;
  if constexpr (std::is_same_v<Sys, stl::QueryEngine>) {
    kernel_ns = KernelNsPerQuery(*sys.CurrentSnapshot()->view, pairs);
  } else {
    kernel_ns = KernelNsPerQuery(*rd->view, pairs);
  }

  // index overlay: the router's inner engine is private, so a standalone
  // ShardedEngine with the same options replays the same batches.
  double overlay_us = 0;
  double rows_frac = 0;
  if (spec.router) {
    stl::ShardedEngine sharded(base, stl::HierarchyOptions{}, ShardOptions());
    const stl::EngineStats before = sharded.Stats();
    for (uint64_t k = 0; k < kReplayBatches; ++k) {
      sharded.EnqueueUpdates(plan.Batch(k));
      sharded.Flush();
    }
    const stl::EngineStats after = sharded.Stats();
    const double republishes = static_cast<double>(
        after.overlay_republishes - before.overlay_republishes);
    overlay_us = republishes > 0 ? (after.overlay_repair_micros -
                                    before.overlay_repair_micros) /
                                       republishes
                                 : 0;
    const double rows_total =
        static_cast<double>(after.overlay_rows_total - before.overlay_rows_total);
    rows_frac = rows_total > 0
                    ? static_cast<double>(after.overlay_rows_repaired -
                                          before.overlay_rows_repaired) /
                          rows_total
                    : 0;
  }

  // dist / net: the decorator and handler records of window B.
  std::vector<LayerTrace::Rpc> rpcs;
  std::vector<LayerTrace::Handle> handles;
  if (trace != nullptr) {
    rpcs = trace->rpcs();
    handles = trace->handles();
  }
  std::vector<double> rtt_us, handle_query_us, handle_install_ms;
  uint64_t query_rpcs = 0, rpc_bytes = 0;
  for (const LayerTrace::Rpc& r : rpcs) {
    if (r.install) continue;
    ++query_rpcs;
    rpc_bytes += r.bytes;
    rtt_us.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
  }
  for (const LayerTrace::Handle& h : handles) {
    const double ns = static_cast<double>(h.end_ns - h.start_ns);
    if (h.install) {
      handle_install_ms.push_back(ns / 1e6);
    } else {
      handle_query_us.push_back(ns / 1e3);
    }
  }

  // host floor under the tails, at the workload's rate.
  const double handoff_p99 = HandoffP99Us(spec.query_rate, 1.0);
  const double tcp_rtt = TcpRttP50Us(spec.query_rate, 2000);

  auto per_epoch = [&](double v) { return epochs > 0 ? v / epochs : 0; };
  const double nb = static_cast<double>(b.queries);
  metrics = {
      {"core.query_ns", kernel_ns, "ns"},
      {"core.apply_ms_per_update",
       r1.updates > 0 ? r1.apply_ms / static_cast<double>(r1.updates) : 0,
       "ms"},
      {"core.label_writes", static_cast<double>(r1.stats.label_writes),
       "count"},
      {"core.queue_pops", static_cast<double>(r1.stats.queue_pops),
       "count"},
      {"core.affected_pairs",
       static_cast<double>(r1.stats.affected_pairs), "count"},
      {"index.publish_us", Median(rd->publish_us), "us"},
      {"index.cow_bytes_per_epoch",
       static_cast<double>(std::accumulate(rd->cow_bytes.begin(),
                                           rd->cow_bytes.end(), uint64_t{0})) /
           static_cast<double>(kReplayBatches),
       "bytes"},
      {"index.overlay_us_per_epoch", overlay_us, "us"},
      {"index.rows_repaired_frac", rows_frac, "ratio"},
      {"engine.service_p50_us", Median(b.service_us), "us"},
      {"engine.publish_us_per_epoch", per_epoch(c2.publish_us - c1.publish_us),
       "us"},
      {"engine.epochs", epochs, "count"},
      {"engine.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(c2.cache_hits - c1.cache_hits) /
                         lookups
                   : 0,
       "ratio"},
      {"engine.cache_lookups", lookups, "count"},
      {"engine.batches_pareto",
       static_cast<double>(c2.batches_pareto - c1.batches_pareto), "count"},
      {"engine.batches_label",
       static_cast<double>(c2.batches_label - c1.batches_label), "count"},
      {"engine.updates_coalesced",
       static_cast<double>(c2.updates_coalesced - c1.updates_coalesced),
       "count"},
      {"dist.rpcs_per_query",
       nb > 0 ? static_cast<double>(query_rpcs) / nb : 0, "ratio"},
      {"dist.rpc_rtt_p50_us", Percentile(rtt_us, 0.5), "us"},
      {"dist.rpc_rtt_p99_us", Percentile(rtt_us, 0.99), "us"},
      {"dist.rpc_retries", static_cast<double>(c2.rpc_retries - c1.rpc_retries),
       "count"},
      {"dist.rpc_failovers",
       static_cast<double>(c2.rpc_failovers - c1.rpc_failovers), "count"},
      {"dist.rpc_stale", static_cast<double>(c2.rpc_stale - c1.rpc_stale),
       "count"},
      {"net.handle_query_us", Percentile(handle_query_us, 0.5), "us"},
      {"net.handle_install_ms", Percentile(handle_install_ms, 0.5), "ms"},
      {"net.bytes_per_rpc",
       query_rpcs > 0
           ? static_cast<double>(rpc_bytes) / static_cast<double>(query_rpcs)
           : 0,
       "bytes"},
      {"net.reconnects",
       tier != nullptr ? static_cast<double>(tier->socket->reconnects()) : 0,
       "count"},
      {"bench.gen_lag_p99_us", Percentile(a.lag_us, 0.99), "us"},
      {"bench.query_p90_us", Percentile(a.latency_us, 0.90), "us"},
      {"bench.query_p99_us", Percentile(a.latency_us, 0.99), "us"},
      {"bench.update_visible_p99_ms", Percentile(a.visible_ms, 0.99), "ms"},
      {"bench.query_failed_frac", failed_frac, "ratio"},
      {"bench.trace_overhead_p50_us",
       Median(b.latency_us) - Median(a.latency_us), "us"},
      {"bench.trace_overhead_cpu_us", b.cpu_us_per_query - a.cpu_us_per_query,
       "us"},
      {"host.handoff_p99_us", handoff_p99, "us"},
      {"host.tcp_rtt_p50_us", tcp_rtt, "us"},
  };

  // ---- spans of window B (queries and RPCs sampled), written out
  SpanLog spans;
  for (uint64_t tag = 0; tag < s.submitted; ++tag) {
    const int64_t due = ledger.due_ns(tag);
    if (due < w.a_end || due >= w.b_end || tag % kSpanSampleEvery != 0) {
      continue;
    }
    const int64_t root = spans.Add("bench.submit", tag, due, ledger.done_ns(tag));
    spans.Add("engine.query", tag, ledger.issue_ns(tag), ledger.done_ns(tag),
              root);
  }
  for (const LayerTrace::Rpc& r : rpcs) {
    if (r.install || r.tag % kSpanSampleEvery == 0) {
      spans.Add("dist.rpc", r.tag, r.start_ns, r.end_ns);
    }
  }
  for (const LayerTrace::Handle& h : handles) {
    if (h.install || h.seq % kSpanSampleEvery == 0) {
      spans.Add("net.handle", h.seq, h.start_ns, h.end_ns);
    }
  }
  for (const BatchRecord& r : s.batches) {
    if (r.enqueue_ns >= w.a_end && r.enqueue_ns < w.b_end) {
      spans.Add("engine.update", r.k, r.enqueue_ns, r.flushed_ns);
    }
  }
  for (size_t k = 0; k < r1.apply_spans.size(); ++k) {
    spans.Add("core.apply", k, r1.apply_spans[k].first,
              r1.apply_spans[k].second);
  }
  for (size_t k = 0; k < rd->publish_spans.size(); ++k) {
    spans.Add("index.publish", k, rd->publish_spans[k].first,
              rd->publish_spans[k].second);
  }
  const std::string path = args.span_dir + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (spans.Write(path)) {
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 path.c_str());
  }
  std::printf("tracing overhead (window B - window A): p50 %+.3f us, cpu %+.3f "
              "us/query\n",
              Median(b.latency_us) - Median(a.latency_us),
              b.cpu_us_per_query - a.cpu_us_per_query);
  PrintResult(correct, c.submitted, c.failed(), metrics);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-dir <dir>]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Inputs, never timed. The road network and the update script are the
  // workload's fixed dataset; the seed draws the query stream.
  stl::RoadNetworkOptions net;
  net.width = spec->grid_side;
  net.height = spec->grid_side;
  const stl::Graph base = stl::GenerateRoadNetwork(net);
  const double stream_s =
      kWarmupSeconds + args.seconds * (args.trace ? 2 : 1) + 0.1;
  const size_t count = static_cast<size_t>(spec->query_rate * stream_s) + 16;
  const std::vector<stl::QueryPair> pairs =
      spec->hot_fraction > 0
          ? stl::HotSpotQueryPairs(base, count, spec->hot_fraction,
                                   spec->hot_pairs, Mix(args.seed, 2))
          : stl::RandomQueryPairs(base, count, Mix(args.seed, 2));
  const UpdatePlan plan(base, spec->batch_sizes, kUpdateScriptSeed);

  // Before any serving thread exists: they all inherit the mask that
  // leaves the generator's CPU to the generator alone.
  const int generator_cpu = ReserveGeneratorCpu();

  // Set-up: construct the serving system until the first query can be
  // submitted; repeated, reporting the median (traced runs build once).
  const int repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setups;
  LayerTrace trace;
  LayerTrace* layer_trace = args.trace ? &trace : nullptr;
  if (spec->router) {
    std::unique_ptr<RouterTier> tier;
    for (int i = 0; i < repeats; ++i) {
      tier.reset();
      double setup_s = 0;
      tier = BuildRouterTier(base, *spec, layer_trace, &setup_s);
      if (tier == nullptr) {
        std::fprintf(stderr, "router tier: replica server did not start\n");
        return 1;
      }
      setups.push_back(setup_s);
    }
    return Run(args, *spec, base, pairs, plan, *tier->router, tier.get(),
               layer_trace, Median(setups), generator_cpu);
  }
  std::unique_ptr<stl::QueryEngine> engine;
  for (int i = 0; i < repeats; ++i) {
    engine.reset();
    stl::Graph g = base;
    const int64_t t0 = NowNs();
    engine = std::make_unique<stl::QueryEngine>(
        std::move(g), stl::HierarchyOptions{}, FlatOptions(*spec));
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Run(args, *spec, base, pairs, plan, *engine, nullptr, layer_trace,
             Median(setups), generator_cpu);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
