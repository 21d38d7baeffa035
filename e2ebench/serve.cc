// serve: bound recursive queries `?- path(vK, X).` (K uniform) from one
// client connection, a closed loop over loopback JSONL, to an in-process
// server::Server with default ServerOptions except an ephemeral port.
// One connection keeps at most one request in flight, so the load needs
// one core, not as many as happen to be free on a shared host. The
// module is path(bf) over a sparse random graph (V = 2*10^4,
// E = 1.4*10^4): most sources reach fewer than two nodes, so request
// handling dominates, not the fixpoint.
// Reference answer: the BFS reach count of vK, checked against the
// response's row count.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <coral/coral.h>
#include <coral/server.h>

#include "layers.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kNodes = 20000;
constexpr int kEdges = 14000;
constexpr int kClients = 1;
constexpr int kWarmupPerClient = 50;
/// The traced segment: kTracedBlocks blocks of kBlockPerClient traced
/// requests per client (a fixed set, so the counters over it repeat),
/// each followed by an equal untraced block.
constexpr int kTracedBlocks = 6;
constexpr int kBlockPerClient = 250;
/// Untraced requests per client before peak memory is read (within the
/// first epoch), and per epoch of the untraced loop.
constexpr int kRssAtPerClient = 4000;
constexpr int kEpochPerClient = 6000;
/// Requests per client between samples of the host's speed.
constexpr int kChunkPerClient = 500;

constexpr char kModule[] = R"(
module paths.
export path(bf).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
end_module.
)";

struct Graph {
  std::string facts;
  std::vector<int> reach;  // BFS reach count per node (path length >= 1)
};

Graph MakeGraph(uint64_t seed) {
  Graph g;
  Rng rng(seed * 0x9e3779b1 + 1);
  std::vector<std::vector<int>> adj(kNodes);
  std::set<std::pair<int, int>> seen;
  while (seen.size() < static_cast<size_t>(kEdges)) {
    int a = static_cast<int>(rng.Below(kNodes));
    int b = static_cast<int>(rng.Below(kNodes));
    if (a == b || !seen.insert({a, b}).second) continue;
    adj[a].push_back(b);
    g.facts += "edge(v" + std::to_string(a) + ", v" + std::to_string(b) +
               ").\n";
  }
  g.reach.resize(kNodes);
  std::vector<int> mark(kNodes, -1);
  for (int s = 0; s < kNodes; ++s) {
    std::vector<int> stack(adj[s].begin(), adj[s].end());
    int count = 0;
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      if (mark[n] == s) continue;
      mark[n] = s;
      ++count;
      stack.insert(stack.end(), adj[n].begin(), adj[n].end());
    }
    g.reach[s] = count;
  }
  return g;
}

std::string QueryText(int k) {
  return "?- path(v" + std::to_string(k) + ", X).";
}

int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // A stalled server fails the request instead of hanging the run.
  timeval timeout{10, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
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

/// Sends one JSONL request and reads one response line into `response`.
bool RoundTrip(int fd, const std::string& request, std::string* buf,
               std::string* response) {
  std::string framed = request + "\n";
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n =
        send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  size_t nl;
  while ((nl = buf->find('\n')) == std::string::npos) {
    char chunk[16384];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
  response->assign(*buf, 0, nl);
  buf->erase(0, nl + 1);
  return true;
}

/// Row count of an ok query response; -1 for an error response.
int64_t ResponseCount(const std::string& response) {
  if (response.compare(0, 10, "{\"ok\":true") != 0) return -1;
  size_t at = response.find("\"count\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(response.c_str() + at + 8, nullptr, 10);
}

/// One client connection with its seeded request sequence.
struct Client {
  int fd = -1;
  Rng rng;
  std::string buf;
  Result result;
  std::vector<double> latency_ms;
  std::vector<int> sources;  // sources sent, in order

  explicit Client(uint64_t seed) : rng(seed) {}
  ~Client() {
    if (fd >= 0) close(fd);
  }

  /// One request; returns false when the connection broke.
  bool Step(const Graph& g) {
    int k = static_cast<int>(rng.Below(kNodes));
    std::string request = coral::server::JsonWriter()
                              .Field("op", "query")
                              .Field("q", QueryText(k))
                              .Build();
    std::string response;
    int64_t t0 = NowNs();
    bool sent;
    {
      ScopedOp op("serve.query");
      sent = RoundTrip(fd, request, &buf, &response);
    }
    latency_ms.push_back(NsToMs(NowNs() - t0));
    sources.push_back(k);
    if (!sent) {
      result.Count(false, "connection lost");
      return false;
    }
    result.Count(ResponseCount(response) == g.reach[k],
                 QueryText(k) + " -> " + response.substr(0, 120));
    return true;
  }
};

/// A live server over a freshly consulted database, with its clients
/// connected and warmed up.
struct Harness {
  std::unique_ptr<coral::Database> db;
  std::unique_ptr<coral::server::Server> server;
  std::vector<std::unique_ptr<Client>> clients;

  ~Harness() {
    clients.clear();
    if (server) server->Stop();
  }
};

/// `seed` picks the clients' request sequences (and separate warm-up
/// sequences).
bool StartHarness(const std::string& program, const Graph& g, uint64_t seed,
                  Harness* h, Result* r) {
  h->db = std::make_unique<coral::Database>();
  if (!h->db->Consult(program).ok()) return r->Count(false, "consult failed");
  coral::server::ServerOptions opts;
  opts.port = 0;
  h->server = std::make_unique<coral::server::Server>(h->db.get(), opts);
  if (!h->server->Start().ok()) return r->Count(false, "server start failed");
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<Client>(seed + c);
    client->fd = Connect(h->server->port());
    if (client->fd < 0) return r->Count(false, "connect failed");
    // Warm-up on a separate sequence: first-use form compile, snapshot.
    Client warm(seed + 1000 + c);
    warm.fd = client->fd;
    for (int i = 0; i < kWarmupPerClient; ++i) warm.Step(g);
    warm.fd = -1;
    if (warm.result.failed > 0) {
      return r->Count(false, "warm-up: " + warm.result.notes.front());
    }
    h->clients.push_back(std::move(client));
  }
  return true;
}

/// Runs every client for `count` requests, or until `deadline` if that
/// comes first. Returns the wall time of the window in seconds and adds
/// the process's CPU time over it (client and server) to `cpu_s`.
double RunClients(Harness* h, const Graph& g, int count,
                  int64_t deadline = INT64_MAX, double* cpu_s = nullptr) {
  int64_t start = NowNs();
  int64_t cpu_start = CpuNs();
  std::vector<std::thread> threads;
  for (auto& client : h->clients) {
    threads.emplace_back([&g, deadline, count, c = client.get()] {
      for (int i = 0; i < count && NowNs() < deadline; ++i) {
        if (!c->Step(g)) return;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (cpu_s != nullptr) {
    *cpu_s += static_cast<double>(CpuNs() - cpu_start) / 1e9;
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// In-process replay of one client's traced requests through its own
/// Session: Parser, Session::EvalQuery and the response encoding timed
/// apart. Returns per-request eval time in ms.
std::vector<double> Replay(coral::Database* db, const Graph& g,
                           const std::vector<int>& sources, Result* r,
                           uint64_t* rows) {
  coral::Session session(db);
  std::vector<double> eval_ms;
  for (int k : sources) {
    ScopedOp op("replay.query");
    const std::string q = QueryText(k);
    TimedParse(q, db->factory());
    coral::StatusOr<coral::QueryResult> res = coral::Status::Internal("");
    int64_t t0 = NowNs();
    {
      ScopedSpan eval("core.eval");
      res = session.EvalQuery(q);
    }
    eval_ms.push_back(NsToMs(NowNs() - t0));
    if (!res.ok()) {
      r->Count(false, q + ": " + res.status().ToString());
      continue;
    }
    {
      // The response encoding of ClientSession::HandleQuery.
      ScopedSpan encode("server.encode");
      std::string out = "[";
      for (size_t i = 0; i < res->rows.size(); ++i) {
        if (i > 0) out += ',';
        coral::server::JsonWriter row;
        for (const auto& [name, term] : res->rows[i].bindings) {
          row.Field(name, term->ToString());
        }
        out += row.Build();
      }
      out += ']';
      out = coral::server::JsonWriter()
                .Field("ok", true)
                .Field("epoch", session.epoch())
                .Field("count", static_cast<int64_t>(res->rows.size()))
                .RawField("rows", out)
                .Build();
    }
    *rows += res->rows.size();
    r->Count(res->rows.size() == static_cast<size_t>(g.reach[k]),
             q + ": wrong answer");
  }
  return eval_ms;
}

/// Moves what the clients recorded since the last call into `r` and
/// `latency_ms`; when given, `sources` and `rtt` receive each client's
/// requests and round-trip times in order.
void Drain(Harness* h, Result* r, std::vector<double>* latency_ms,
           std::vector<std::vector<int>>* sources = nullptr,
           std::vector<std::vector<double>>* rtt = nullptr) {
  for (size_t c = 0; c < h->clients.size(); ++c) {
    Client& client = *h->clients[c];
    r->Merge(client.result);
    latency_ms->insert(latency_ms->end(), client.latency_ms.begin(),
                       client.latency_ms.end());
    if (sources != nullptr) {
      (*sources)[c].insert((*sources)[c].end(), client.sources.begin(),
                           client.sources.end());
      (*rtt)[c].insert((*rtt)[c].end(), client.latency_ms.begin(),
                       client.latency_ms.end());
    }
    client.result = Result();
    client.latency_ms.clear();
    client.sources.clear();
  }
}

}  // namespace

Result RunServe(const Args& args) {
  Result r;
  Graph g = MakeGraph(args.seed);
  const std::string program = std::string(kModule) + g.facts;

  // Set-up: a fresh database, server and connections; each epoch's
  // clients continue with new request sequences. Returns the set-up's CPU
  // time in seconds, or < 0.
  std::unique_ptr<Harness> h;
  uint64_t epoch = 0;
  auto setup = [&]() -> double {
    h.reset();
    int64_t t0 = CpuNs();
    h = std::make_unique<Harness>();
    if (!StartHarness(program, g, args.seed * 0x2f1 + 97 + 7919 * epoch++,
                      h.get(), &r)) {
      return -1;
    }
    return static_cast<double>(CpuNs() - t0) / 1e9;
  };
  HostSpeed speed;
  speed.MaybeSample();
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setup_s.push_back(setup());
    if (setup_s.back() < 0) return r;
  }
  int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds) * 1'000'000'000;

  if (args.trace) {
    InitLayerMetrics(&r);
    VmSnapshot compile =
        ReportSetupLayers(&r, program, {{"paths", "path", "bf"}});
    coral::Database* db = h->db.get();
    coral::obs::ServerMetrics* sm = h->server->metrics();
    uint64_t shed0 = sm->shed(), errors0 = sm->errors(),
             timeouts0 = sm->timeouts();

    // Traced segment over the wire: blocks of a fixed request set,
    // interleaved with equal untraced blocks so the tracing overhead is
    // measured under the same conditions.
    std::vector<std::vector<int>> sources(kClients);
    std::vector<std::vector<double>> rtt(kClients);
    std::vector<double> traced_ms, untraced_ms;
    for (int b = 0; b < kTracedBlocks; ++b) {
      Tracer::Get().set_enabled(true);
      RunClients(h.get(), g, kBlockPerClient);
      Tracer::Get().set_enabled(false);
      Drain(h.get(), &r, &traced_ms, &sources, &rtt);
      RunClients(h.get(), g, kBlockPerClient);
      Drain(h.get(), &r, &untraced_ms);
    }
    r.Set("trace.overhead_pct",
          (Median(traced_ms) / Median(untraced_ms) - 1) * 100, "%");
    r.Set("server.shed", static_cast<double>(sm->shed() - shed0), "count");
    r.Set("server.errors", static_cast<double>(sm->errors() - errors0),
          "count");
    r.Set("server.timeouts", static_cast<double>(sm->timeouts() - timeouts0),
          "count");
    r.Set("server.eval_p50_ms", sm->LatencyQuantileMs(0.5), "ms");

    // Replay of the traced requests in-process, with profiling.
    db->ClearStats();
    db->set_profiling(true);
    VmSnapshot vm0 = VmSnapshot::Of(*db->vm_counters());
    uint64_t bytes0 = db->factory()->bytes_allocated();
    std::vector<Result> replay_results(kClients);
    std::vector<std::vector<double>> eval_ms(kClients);
    std::vector<uint64_t> rows(kClients, 0);
    Tracer::Get().set_enabled(true);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        eval_ms[c] = Replay(db, g, sources[c], &replay_results[c], &rows[c]);
      });
    }
    for (auto& t : threads) t.join();
    Tracer::Get().set_enabled(false);
    db->set_profiling(false);
    double ops = 0;
    uint64_t total_rows = 0;
    std::vector<double> self_ms;
    for (int c = 0; c < kClients; ++c) {
      r.Merge(replay_results[c]);
      ops += static_cast<double>(sources[c].size());
      total_rows += rows[c];
      for (size_t i = 0; i < eval_ms[c].size() && i < rtt[c].size(); ++i) {
        self_ms.push_back(rtt[c][i] - eval_ms[c][i]);
      }
    }
    r.Set("server.self_ms", Median(self_ms), "ms");
    ReportVm(&r, compile, VmSnapshot::Of(*db->vm_counters()).Minus(vm0), ops);
    ReportProfile(&r, ProfileTotals::Of(*db->stats()), ops, total_rows);
    ReportArena(&r, db, db->factory()->bytes_allocated() - bytes0, ops);
    ReportSpanLayers(&r);
  }

  // Untraced closed loop for the (rest of the) run, in epochs of
  // kEpochPerClient requests per connection, each on a fresh set-up that
  // is timed into setup_s: set-ups spread over the run sample the same
  // host conditions as the requests (NOTES.md). Peak memory is read after
  // a fixed number of requests, so it does not grow with throughput.
  std::vector<double> latency_ms;
  double window_s = 0, cpu_s = 0;
  auto run = [&](int count) {
    for (int done = 0; done < count && NowNs() < deadline;
         done += kChunkPerClient) {
      window_s += RunClients(h.get(), g,
                             std::min(kChunkPerClient, count - done),
                             deadline, &cpu_s);
      speed.MaybeSample();
    }
  };
  run(kRssAtPerClient);
  double rss_mb = PeakRssMb();
  run(kEpochPerClient - kRssAtPerClient);
  while (NowNs() < deadline) {
    Drain(h.get(), &r, &latency_ms);
    setup_s.push_back(setup());
    if (setup_s.back() < 0) return r;
    run(kEpochPerClient);
  }
  Drain(h.get(), &r, &latency_ms);
  double qps = static_cast<double>(latency_ms.size()) / window_s;
  if (args.trace) {
    r.Set("op_p50_ms", Quantile(latency_ms, 0.5), "ms");
    r.Set("qps", qps, "1/s");
    r.Set("query_p50_ms", Quantile(latency_ms, 0.5), "ms");
    r.Set("query_p99_ms", Quantile(latency_ms, 0.99), "ms");
  } else {
    ReportEndToEnd(&r, setup_s, latency_ms, window_s, cpu_s, rss_mb, speed);
    r.Detail("qps", qps, "1/s");
    r.Detail("query_p50_ms", Quantile(latency_ms, 0.5), "ms");
    r.Detail("query_p99_ms", Quantile(latency_ms, 0.99), "ms");
  }
  return r;
}

}  // namespace e2e
