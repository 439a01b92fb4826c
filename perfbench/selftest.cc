// Self-tests of the benchmark harness (perfbench/harness.h): each
// checker must catch the defect it exists for. perfbench/run.py runs
// this after every build and refuses to measure when it fails.
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "perfbench/harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void TestPercentile() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  Expect(Percentile(v, 0.5) == 3, "median of 1..5 is 3");
  Expect(Percentile(v, 0.0) == 1 && Percentile(v, 1.0) == 5,
         "q=0 and q=1 are the extremes");
  Expect(Percentile({10, 20}, 0.5) == 15, "interpolates between ranks");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.99) == 100, "p99 of 1..101 is 100");
  Expect(Percentile({}, 0.5) == 0, "empty input gives 0");
}

stl::Completion Done(uint64_t tag, stl::StatusCode code) {
  stl::Completion c;
  c.tag = tag;
  c.code = code;
  return c;
}

void TestConservation() {
  {
    TagLedger ledger(4);
    ledger.Deliver(Done(0, stl::StatusCode::kOk));
    ledger.Deliver(Done(1, stl::StatusCode::kOverloaded));
    ledger.Deliver(Done(2, stl::StatusCode::kDeadlineExceeded));
    ledger.Deliver(Done(3, stl::StatusCode::kUnavailable));
    const Conservation c = CheckConservation(ledger, 4);
    Expect(c.Holds() && c.ok == 1 && c.failed() == 3,
           "every terminal code balances the books");
  }
  {
    TagLedger ledger(3);
    ledger.Deliver(Done(0, stl::StatusCode::kOk));
    ledger.Deliver(Done(2, stl::StatusCode::kOk));
    const Conservation c = CheckConservation(ledger, 3);
    Expect(!c.Holds() && c.lost == 1, "a dropped tag is flagged");
  }
  {
    TagLedger ledger(2);
    ledger.Deliver(Done(0, stl::StatusCode::kOk));
    ledger.Deliver(Done(1, stl::StatusCode::kOk));
    ledger.Deliver(Done(1, stl::StatusCode::kOk));
    const Conservation c = CheckConservation(ledger, 2);
    Expect(!c.Holds() && c.doubled == 1, "a doubled tag is flagged");
  }
}

void TestAudit() {
  stl::RoadNetworkOptions net;
  net.width = 12;
  net.height = 12;
  net.seed = 5;
  const stl::Graph g = stl::GenerateRoadNetwork(net);
  std::map<uint64_t, stl::Graph> graphs;
  graphs.emplace(7, g);
  stl::Dijkstra dijkstra(g);
  std::vector<AuditItem> items;
  for (stl::Vertex s = 0; s < 6; ++s) {
    for (stl::Vertex t = 30; t < 36; ++t) {
      items.push_back(AuditItem{7, s, t, dijkstra.Distance(s, t)});
    }
  }
  items.push_back(AuditItem{7, 3, 100, dijkstra.Distance(3, 100)});
  Expect(AuditAgainstDijkstra(graphs, items, 2, nullptr) == 0,
         "exact answers pass the audit");
  std::vector<AuditItem> corrupted = items;
  corrupted[8].got += 1;
  std::string first;
  Expect(AuditAgainstDijkstra(graphs, corrupted, 2, &first) == 1 &&
             !first.empty(),
         "one corrupted distance is flagged");
  std::vector<AuditItem> wrong_epoch = items;
  wrong_epoch[0].epoch = 8;
  Expect(AuditAgainstDijkstra(graphs, wrong_epoch, 1, nullptr) == 1,
         "an answer from an unrecorded epoch is flagged");
}

void TestSchedulerLag() {
  // 10k items/s for 60 ms with the generator stalled 20 ms at item 100:
  // the items due during the stall must report the lag.
  const OpenLoopSchedule schedule(NowNs(), 10000);
  const int64_t end = schedule.DueNs(600);
  const OpenLoopRun run = RunOpenLoop(
      schedule, end, ~uint64_t{0}, [](uint64_t i, int64_t, int64_t) {
        if (i == 100) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
  Expect(run.submitted == 600, "every due item is issued after a stall");
  Expect(run.lag_us.size() == 600 && run.lag_us[101] >= 15000,
         "the item after the stall reports its lag");
  Expect(Percentile(run.lag_us, 0.99) >= 1000,
         "p99 lag shows the stall");
  Expect(run.lag_us[50] < 5000, "items before the stall are on time");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestConservation();
  perfbench::TestAudit();
  perfbench::TestSchedulerLag();
  if (perfbench::failures > 0) {
    std::printf("%d harness self-test(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("harness self-tests passed\n");
  return 0;
}
