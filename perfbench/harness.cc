#include "perfbench/harness.h"

#include <arpa/inet.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <deque>
#include <thread>
#include <tuple>

#include "graph/dijkstra.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

int ReserveGeneratorCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return -1;
  }
  int cpu = CPU_SETSIZE - 1;
  while (!CPU_ISSET(cpu, &allowed)) --cpu;
  CPU_CLR(cpu, &allowed);
  return sched_setaffinity(0, sizeof(allowed), &allowed) == 0 ? cpu : -1;
}

void PinCurrentThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

// ------------------------------------------------------------ schedule

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_second)
    : start_ns_(start_ns), interval_ns_(1e9 / rate_per_second) {}

int64_t OpenLoopSchedule::DueNs(uint64_t i) const {
  return start_ns_ + static_cast<int64_t>(static_cast<double>(i) *
                                          interval_ns_);
}

int64_t OpenLoopSchedule::WaitUntilDue(uint64_t i) const {
  const int64_t due = DueNs(i);
  int64_t now = NowNs();
  // Sleeping overshoots by tens of µs in a VM, so sleep only while the
  // item is far off and spin the last stretch.
  constexpr int64_t kSpinWindowNs = 300'000;
  if (due - now > kSpinWindowNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due - now - kSpinWindowNs));
    now = NowNs();
  }
  while (now < due) now = NowNs();
  return now;
}

// -------------------------------------------------------------- ledger

TagLedger::TagLedger(size_t capacity)
    : due_ns_(capacity, 0),
      issue_ns_(capacity, 0),
      done_ns_(capacity, 0),
      distance_(capacity, stl::kInfDistance),
      epoch_(capacity, 0),
      code_(capacity, stl::StatusCode::kOk),
      service_us_(capacity, 0),
      deliveries_(new std::atomic<uint32_t>[capacity]) {
  for (size_t i = 0; i < capacity; ++i) deliveries_[i].store(0);
}

void TagLedger::Deliver(const stl::Completion& done) {
  const int64_t now = NowNs();
  if (done.tag >= capacity()) {
    // Not a tag this ledger issued: count it so the total cannot match.
    delivered_.fetch_add(1, std::memory_order_release);
    return;
  }
  if (deliveries_[done.tag].fetch_add(1, std::memory_order_acq_rel) == 0) {
    done_ns_[done.tag] = now;
    distance_[done.tag] = done.distance;
    epoch_[done.tag] = done.epoch;
    code_[done.tag] = done.code;
    service_us_[done.tag] = static_cast<float>(done.latency_micros);
  }
  delivered_.fetch_add(1, std::memory_order_release);
}

bool TagLedger::WaitDelivered(uint64_t count, double timeout_s) const {
  const int64_t give_up = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (delivered() < count) {
    if (NowNs() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

Conservation CheckConservation(const TagLedger& ledger, uint64_t submitted) {
  Conservation c;
  c.submitted = submitted;
  for (uint64_t tag = 0; tag < submitted && tag < ledger.capacity(); ++tag) {
    const uint32_t n = ledger.deliveries(tag);
    if (n == 0) {
      ++c.lost;
      continue;
    }
    if (n > 1) ++c.doubled;
    switch (ledger.code(tag)) {
      case stl::StatusCode::kOk:
        ++c.ok;
        break;
      case stl::StatusCode::kOverloaded:
        ++c.overloaded;
        break;
      case stl::StatusCode::kDeadlineExceeded:
        ++c.deadline;
        break;
      case stl::StatusCode::kUnavailable:
        ++c.unavailable;
        break;
      default:
        ++c.other;
    }
  }
  if (submitted > ledger.capacity()) c.lost += submitted - ledger.capacity();
  // Deliveries for tags never issued also break conservation.
  uint64_t counted = 0;
  for (uint64_t tag = 0; tag < submitted && tag < ledger.capacity(); ++tag) {
    counted += ledger.deliveries(tag);
  }
  if (ledger.delivered() > counted) c.doubled += ledger.delivered() - counted;
  return c;
}

// --------------------------------------------------------------- audit

uint64_t AuditAgainstDijkstra(const std::map<uint64_t, stl::Graph>& graphs,
                              std::vector<AuditItem> items, int threads,
                              std::string* first) {
  std::sort(items.begin(), items.end(),
            [](const AuditItem& a, const AuditItem& b) {
              return std::tie(a.epoch, a.s, a.t) < std::tie(b.epoch, b.s, b.t);
            });
  // Group boundaries: one Dijkstra per (epoch, source).
  std::vector<size_t> starts;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i == 0 || items[i].epoch != items[i - 1].epoch ||
        items[i].s != items[i - 1].s) {
      starts.push_back(i);
    }
  }
  starts.push_back(items.size());
  const size_t groups = starts.size() - 1;

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> mismatches{0};
  std::mutex first_mu;
  auto report = [&](const AuditItem& it, stl::Weight want) {
    if (mismatches.fetch_add(1) == 0 && first != nullptr) {
      std::lock_guard<std::mutex> lock(first_mu);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "epoch %llu (%u -> %u): served %u, Dijkstra %u",
                    static_cast<unsigned long long>(it.epoch), it.s, it.t,
                    it.got, want);
      *first = buf;
    }
  };
  auto worker = [&] {
    std::unique_ptr<stl::Dijkstra> dijkstra;
    uint64_t dijkstra_epoch = ~uint64_t{0};
    for (size_t g = next.fetch_add(1); g < groups; g = next.fetch_add(1)) {
      const AuditItem& head = items[starts[g]];
      auto it = graphs.find(head.epoch);
      if (it == graphs.end()) {
        for (size_t i = starts[g]; i < starts[g + 1]; ++i) {
          report(items[i], stl::kInfDistance);
        }
        continue;
      }
      if (dijkstra == nullptr || dijkstra_epoch != head.epoch) {
        dijkstra = std::make_unique<stl::Dijkstra>(it->second);
        dijkstra_epoch = head.epoch;
      }
      if (starts[g + 1] - starts[g] == 1) {
        const stl::Weight want = dijkstra->Distance(head.s, head.t);
        if (want != head.got) report(head, want);
        continue;
      }
      const std::vector<stl::Weight>& dist = dijkstra->AllDistances(head.s);
      for (size_t i = starts[g]; i < starts[g + 1]; ++i) {
        if (dist[items[i].t] != items[i].got) report(items[i], dist[items[i].t]);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int i = 1; i < threads; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return mismatches.load();
}

// ---------------------------------------------------------------- spans

int64_t SpanLog::Add(const char* name, uint64_t key, int64_t start_ns,
                     int64_t end_ns, int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, key, start_ns, end_ns, parent});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"key\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.key),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

// --------------------------------------------------------- host probes

double HandoffP99Us(double rate_per_second, double seconds) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int64_t> posted;  // guarded by mu
  bool done = false;           // guarded by mu
  std::vector<double> waits_us;
  std::thread consumer([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return done || !posted.empty(); });
      if (posted.empty()) return;
      const int64_t sent = posted.front();
      posted.pop_front();
      waits_us.push_back(static_cast<double>(NowNs() - sent) / 1e3);
    }
  });
  const OpenLoopSchedule schedule(NowNs(), rate_per_second);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  RunOpenLoop(schedule, end, ~uint64_t{0},
              [&](uint64_t, int64_t, int64_t issue) {
                {
                  std::lock_guard<std::mutex> lock(mu);
                  posted.push_back(issue);
                }
                cv.notify_one();
              });
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  consumer.join();
  return Percentile(std::move(waits_us), 0.99);
}

namespace {

bool ReadFull(int fd, char* buf, size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, buf, n);
    if (r <= 0) return false;
    buf += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const char* buf, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, buf, n);
    if (w <= 0) return false;
    buf += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Owns a socket descriptor.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

}  // namespace

double TcpRttP50Us(double rate_per_second, size_t round_trips) {
  constexpr size_t kMessage = 16;
  Fd listener(::socket(AF_INET, SOCK_STREAM, 0));
  if (listener.fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(listener.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener.fd, 1) != 0 ||
      ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    return -1;
  }
  Fd client(::socket(AF_INET, SOCK_STREAM, 0));
  if (client.fd < 0 ||
      ::connect(client.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    return -1;
  }
  Fd server(::accept(listener.fd, nullptr, nullptr));
  if (server.fd < 0) return -1;
  const int one = 1;
  ::setsockopt(client.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(server.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::thread echo([&] {
    char buf[kMessage];
    while (ReadFull(server.fd, buf, kMessage) &&
           WriteFull(server.fd, buf, kMessage)) {
    }
  });
  std::vector<double> rtt_us;
  rtt_us.reserve(round_trips);
  const OpenLoopSchedule schedule(NowNs(), rate_per_second);
  RunOpenLoop(schedule, INT64_MAX, round_trips,
              [&](uint64_t, int64_t, int64_t) {
                char buf[kMessage] = {};
                const int64_t t0 = NowNs();
                if (WriteFull(client.fd, buf, kMessage) &&
                    ReadFull(client.fd, buf, kMessage)) {
                  rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
                }
              });
  ::shutdown(client.fd, SHUT_RDWR);
  echo.join();
  if (rtt_us.size() != round_trips) return -1;
  return Percentile(std::move(rtt_us), 0.5);
}

}  // namespace perfbench
