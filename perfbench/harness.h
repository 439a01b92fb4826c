// Load-generation and checking pieces of the open-loop serving
// benchmark (perfbench/main.cc), kept apart so perfbench/selftest.cc
// can exercise each one on known data: percentiles, the open-loop
// scheduler, the per-tag completion ledger (conservation), the
// per-epoch Dijkstra audit, the in-memory span log and the host-floor
// probes.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/serving_core.h"
#include "graph/graph.h"
#include "workload/query_workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the benchmark's one time base).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (q in [0, 1]) of `values`, interpolating linearly
/// between the closest ranks; 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// CPU seconds the whole process has used (user + system).
double ProcessCpuSeconds();
/// CPU seconds the calling thread has used.
double ThreadCpuSeconds();

/// Keeps the load generator off the serving threads' CPUs: takes the
/// last CPU of the process's allowed set for the generator and
/// restricts the calling thread — and every thread it creates later —
/// to the rest. Returns the generator's CPU, or -1 (nothing changed)
/// when fewer than two CPUs are allowed.
int ReserveGeneratorCpu();

/// Pins the calling thread to `cpu` (no-op for cpu < 0).
void PinCurrentThread(int cpu);

/// Fixed-interval open-loop schedule: item i is due at
/// start + i / rate, whatever happened to earlier items.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_second);
  /// When item i is due.
  int64_t DueNs(uint64_t i) const;
  /// Blocks until item i is due (sleeps while it is far, spins while it
  /// is close) and returns the current time, which is late by the
  /// generator's lag when the caller fell behind.
  int64_t WaitUntilDue(uint64_t i) const;

 private:
  int64_t start_ns_;
  double interval_ns_;
};

/// Result of driving an open-loop schedule.
struct OpenLoopRun {
  uint64_t submitted = 0;          ///< Items issued.
  std::vector<double> lag_us;      ///< Per item: issue time - due time.
};

/// Issues items 0, 1, ... on `schedule` until the next one is due at or
/// after `end_ns` (or `max_items` are issued), calling
/// `submit(i, due_ns, issue_ns)` for each. The caller's submit decides
/// what an item is; the lag is recorded here.
template <typename SubmitFn>
OpenLoopRun RunOpenLoop(const OpenLoopSchedule& schedule, int64_t end_ns,
                        uint64_t max_items, SubmitFn&& submit) {
  OpenLoopRun run;
  for (uint64_t i = 0; i < max_items; ++i) {
    const int64_t due = schedule.DueNs(i);
    if (due >= end_ns) break;
    const int64_t issue = schedule.WaitUntilDue(i);
    run.lag_us.push_back(static_cast<double>(issue - due) / 1e3);
    submit(i, due, issue);
    run.submitted = i + 1;
  }
  return run;
}

/// Per-tag record of every submitted query: when it was due, when it
/// was issued, and what came back. Tags are dense indices 0..capacity.
/// Deliver() is thread-safe and counts every delivery, so lost and
/// doubled tags are visible to CheckConservation.
class TagLedger final : public stl::CompletionSink {
 public:
  explicit TagLedger(size_t capacity);

  /// Generator side: call before submitting `tag`.
  void MarkIssued(uint64_t tag, int64_t due_ns, int64_t issue_ns) {
    due_ns_[tag] = due_ns;
    issue_ns_[tag] = issue_ns;
  }

  void Deliver(const stl::Completion& done) override;

  /// Completions received so far (every delivery, doubles included).
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  /// Waits until at least `count` deliveries arrived or `timeout_s`
  /// passed; true on success.
  bool WaitDelivered(uint64_t count, double timeout_s) const;

  size_t capacity() const { return due_ns_.size(); }
  int64_t due_ns(uint64_t tag) const { return due_ns_[tag]; }
  int64_t issue_ns(uint64_t tag) const { return issue_ns_[tag]; }
  int64_t done_ns(uint64_t tag) const { return done_ns_[tag]; }
  stl::Weight distance(uint64_t tag) const { return distance_[tag]; }
  uint64_t epoch(uint64_t tag) const { return epoch_[tag]; }
  stl::StatusCode code(uint64_t tag) const { return code_[tag]; }
  float service_us(uint64_t tag) const { return service_us_[tag]; }
  uint32_t deliveries(uint64_t tag) const {
    return deliveries_[tag].load(std::memory_order_acquire);
  }

 private:
  std::vector<int64_t> due_ns_;
  std::vector<int64_t> issue_ns_;
  std::vector<int64_t> done_ns_;
  std::vector<stl::Weight> distance_;
  std::vector<uint64_t> epoch_;
  std::vector<stl::StatusCode> code_;
  std::vector<float> service_us_;
  std::unique_ptr<std::atomic<uint32_t>[]> deliveries_;
  std::atomic<uint64_t> delivered_{0};
};

/// Terminal-state accounting of tags [0, submitted).
struct Conservation {
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t deadline = 0;
  uint64_t unavailable = 0;
  uint64_t other = 0;    ///< Any other code (a serving bug).
  uint64_t lost = 0;     ///< Tags never delivered.
  uint64_t doubled = 0;  ///< Tags delivered more than once.

  /// submitted == ok + overloaded + deadline + unavailable, and every
  /// tag arrived exactly once.
  bool Holds() const {
    return lost == 0 && doubled == 0 && other == 0 &&
           submitted == ok + overloaded + deadline + unavailable;
  }
  uint64_t failed() const { return submitted - ok; }
};

Conservation CheckConservation(const TagLedger& ledger, uint64_t submitted);

/// One served answer to check.
struct AuditItem {
  uint64_t epoch = 0;
  stl::Vertex s = 0;
  stl::Vertex t = 0;
  stl::Weight got = 0;
};

/// Checks every item against Dijkstra on its epoch's graph. Items are
/// grouped by (epoch, source) so one search serves a whole group; a
/// missing epoch counts as a mismatch. Returns the mismatch count and
/// describes the first one in `*first` (when non-null).
uint64_t AuditAgainstDijkstra(const std::map<uint64_t, stl::Graph>& graphs,
                              std::vector<AuditItem> items, int threads,
                              std::string* first);

/// In-memory trace: spans with a name, a key (query tag, RPC tag or
/// batch sequence number), start, end and parent, written out when the
/// run ends. Thread-safe.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t key;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  ///< Index of the parent span, -1 for a root.
  };

  /// Records one span and returns its index.
  int64_t Add(const char* name, uint64_t key, int64_t start_ns,
              int64_t end_ns, int64_t parent = -1);
  /// Snapshot of everything recorded so far.
  std::vector<Span> spans() const;
  /// Writes one JSON object per line; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// p99 of a bare mutex + condition-variable handoff between two threads
/// at `rate_per_second` for `seconds` (µs): the VM's wakeup floor under
/// the engine's own queue handoffs.
double HandoffP99Us(double rate_per_second, double seconds);

/// p50 of a bare localhost TCP ping-pong of 16-byte messages (µs), paced
/// at `rate_per_second`; negative when sockets are unavailable.
double TcpRttP50Us(double rate_per_second, size_t round_trips);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
