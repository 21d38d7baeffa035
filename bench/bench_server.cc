// Server experiment (EXPERIMENTS.md): end-to-end throughput and latency
// of the query server — TCP loopback, JSONL framing, admission control,
// per-connection sessions reading a shared snapshot. Each benchmark
// thread is one client connection issuing queries synchronously, so
// `items_per_second` is end-to-end queries/sec at that client
// concurrency; p50/p99 come from the server's own latency histogram.
//
// Harness flags: --max-inflight=N sizes the server worker pool (default
// 8); --deadline-ms=N applies a session deadline to every client.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/core/database.h"
#include "src/server/json.h"
#include "src/server/server.h"
#include "src/util/logging.h"
#include "src/util/sync.h"

namespace coral {
namespace {

// One server shared by all benchmark threads, torn down between
// benchmark families via unique_ptr reset in the thread-0 epilogue.
struct ServerHarness {
  Database db;
  std::unique_ptr<server::Server> server;

  explicit ServerHarness(int chain) {
    auto consulted = db.Consult(
        "module paths.\n"
        "export path(bf, ff).\n"
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
        "end_module.\n" +
        bench::ChainFacts("edge", chain));
    CORAL_CHECK(consulted.ok());
    server::ServerOptions opts;
    opts.port = 0;
    opts.max_inflight =
        bench::g_max_inflight > 0 ? static_cast<size_t>(bench::g_max_inflight)
                                  : 8;
    opts.max_queue = 1024;  // benchmark measures latency, not shedding
    opts.default_deadline_ms = bench::g_deadline_ms;
    server = std::make_unique<server::Server>(&db, opts);
    CORAL_CHECK(server->Start().ok());
  }
  ~ServerHarness() { server->Stop(); }
};

// The harness is shared by all client threads of one benchmark run;
// first thread in constructs it, last one out destroys it.
Mutex g_harness_mu;
std::unique_ptr<ServerHarness> g_harness CORAL_GUARDED_BY(g_harness_mu);
int g_harness_refs CORAL_GUARDED_BY(g_harness_mu) = 0;

ServerHarness* AcquireHarness(int chain) {
  MutexLock lock(&g_harness_mu);
  if (g_harness_refs++ == 0) {
    g_harness = std::make_unique<ServerHarness>(chain);
  }
  return g_harness.get();
}

void ReleaseHarness(obs::ServerMetrics* metrics_out,
                    benchmark::State& state) {
  MutexLock lock(&g_harness_mu);
  if (--g_harness_refs == 0) {
    if (metrics_out != nullptr) {
      state.counters["p50_ms"] = metrics_out->LatencyQuantileMs(0.5);
      state.counters["p99_ms"] = metrics_out->LatencyQuantileMs(0.99);
      state.counters["shed"] = static_cast<double>(metrics_out->shed());
      state.counters["timeouts"] =
          static_cast<double>(metrics_out->timeouts());
    }
    g_harness.reset();
  }
}

int ConnectLoopback(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool RoundTrip(int fd, const std::string& request, std::string* buf) {
  std::string framed = request + "\n";
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n = send(fd, framed.data() + off, framed.size() - off,
                     MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  while (buf->find('\n') == std::string::npos) {
    char chunk[8192];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
  bool ok = buf->compare(0, 10, "{\"ok\":true") == 0;
  buf->erase(0, buf->find('\n') + 1);
  return ok;
}

/// args: {chain length}. Thread count = client concurrency.
void BM_ServerQuery(benchmark::State& state) {
  ServerHarness* harness = AcquireHarness(static_cast<int>(state.range(0)));
  int fd = ConnectLoopback(harness->server->port());
  if (fd < 0) {
    state.SkipWithError("connect failed");
    ReleaseHarness(nullptr, state);
    return;
  }
  const std::string request =
      server::JsonWriter().Field("op", "query").Field("q", "?- path(n0, X).")
          .Build();
  std::string buf;
  for (auto _ : state) {
    if (!RoundTrip(fd, request, &buf)) {
      state.SkipWithError("request failed");
      break;
    }
  }
  close(fd);
  state.SetItemsProcessed(state.iterations());
  ReleaseHarness(harness->server->metrics(), state);
}
BENCHMARK(BM_ServerQuery)
    ->Arg(64)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace coral

int main(int argc, char** argv) {
  coral::bench::ParseHarnessFlags(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
