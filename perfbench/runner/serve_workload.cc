// serve-mmap: a MarketServer booted zero-copy from a v2 snapshot, driven
// by an open loop of contract submissions at one fixed rate.
#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/regret.h"
#include "influence/influence_index.h"
#include "io/mmap_snapshot.h"
#include "io/snapshot_io.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/market_server.h"
#include "workloads.h"

namespace perfbench {

using mroam::influence::InfluenceIndex;
using mroam::io::MappedSnapshot;
using mroam::market::Advertiser;
using mroam::model::BillboardId;
using mroam::obs::MetricsRegistry;
using mroam::obs::MetricsSnapshot;
using mroam::serve::HttpClient;
using mroam::serve::HttpResponse;
using mroam::serve::MarketServer;
using mroam::serve::MarketServerConfig;

namespace {

constexpr uint64_t kContractStream = 5;
constexpr int kSetupReps = 9;
/// Contract term in batch-days. At the benchmark's rate every batch holds
/// about one contract, so about this many contracts are active and each
/// asks for 1/kDurationDays of the supply: alpha ~ 1 at p = 5%.
constexpr int32_t kDurationDays = 20;
/// Untimed contracts sent first, at the same rate: they fill the book to
/// its steady size and fault in the mapped snapshot. Timed from a cold
/// start, the first ~20 contracts were a third of the samples above p99.
constexpr int64_t kWarmupContracts = 2 * kDurationDays;
/// Ticket poll cadence. Short next to a replan, so the latency measures
/// replanning and request handling rather than the poll period; the cost
/// shows as serve.polls_per_commit.
constexpr int64_t kPollIntervalNs = 500'000;
/// A ticket not committed this long after its send time counts as failed.
constexpr int64_t kCommitDeadlineNs = 10'000'000'000;

/// mroam_serve's defaults (lock-existing policy, G-Global), except: at
/// most 2 workers, and admission flushes each arrival at once
/// (max_batch = 1) instead of holding it up to 50 ms, which would make the
/// admission timer most of the latency. Arrivals that queue while a
/// replan runs still share the next batch.
MarketServerConfig ServeConfig(uint64_t seed) {
  MarketServerConfig config;
  config.port = 0;
  config.num_threads = 2;
  config.max_batch = 1;
  config.max_batch_delay_seconds = 0.001;
  config.market.contract_duration_days = kDurationDays;
  config.market.policy = mroam::core::ReplanPolicy::kLockExisting;
  config.market.solver.method = mroam::core::Method::kGGlobal;
  config.market.solver.seed = seed;
  return config;
}

struct Submitted {
  int64_t ticket = 0;
  int64_t due_ns = 0;
  int64_t next_poll_ns = 0;
  Advertiser terms;
};

struct Committed {
  int64_t influence = 0;
  bool satisfied = false;
};

/// Parses the flat integer list following `"key":[` at or after `from`.
std::vector<int64_t> ParseIntList(std::string_view body, size_t from,
                                  size_t* end) {
  std::vector<int64_t> values;
  size_t i = from;
  while (i < body.size() && body[i] != ']') {
    if (body[i] >= '0' && body[i] <= '9') {
      int64_t v = 0;
      while (i < body.size() && body[i] >= '0' && body[i] <= '9') {
        v = v * 10 + (body[i] - '0');
        ++i;
      }
      values.push_back(v);
    } else {
      ++i;
    }
  }
  *end = i;
  return values;
}

/// One contract of GET /assignment.
struct AssignedContract {
  int64_t ticket = 0;
  int64_t influence = -1;  ///< as the server reports it
  std::vector<BillboardId> billboards;
};

std::vector<AssignedContract> ParseAssignment(std::string_view body) {
  std::vector<AssignedContract> contracts;
  size_t at = 0;
  while ((at = body.find("{\"ticket\":", at)) != std::string_view::npos) {
    AssignedContract c;
    at += std::string_view("{\"ticket\":").size();
    size_t stop = body.find(',', at);
    c.ticket = std::strtoll(std::string(body.substr(at, stop - at)).c_str(),
                            nullptr, 10);
    const size_t influence = body.find("\"influence\":", at);
    const size_t list = body.find("\"billboards\":[", at);
    if (influence == std::string_view::npos ||
        list == std::string_view::npos) {
      break;
    }
    c.influence = std::strtoll(
        std::string(body.substr(influence + 12, 20)).c_str(), nullptr, 10);
    size_t end = 0;
    for (int64_t o : ParseIntList(
             body, list + std::string_view("\"billboards\":[").size(),
             &end)) {
      c.billboards.push_back(static_cast<BillboardId>(o));
    }
    contracts.push_back(std::move(c));
    at = end;
  }
  return contracts;
}

double HistogramMs(const MetricsSnapshot& delta, const char* name, double q) {
  const MetricsSnapshot::HistogramValue* h = delta.FindHistogram(name);
  return h == nullptr ? 0.0 : h->Quantile(q) * 1e3;
}

/// Thread ids of this process.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  closedir(dir);
  return ids;
}

/// Puts every thread of this process on its first allowed CPU: the load
/// generator and the server's event loop, flush thread and workers. The
/// generator then spins on that CPU between its sends and polls, yielding
/// to the server's threads, so the CPU never goes idle. On a shared host a
/// vCPU that idles is halted, and waking it waits on the host's scheduler:
/// milliseconds when the host is busy, which the guest counts as steal
/// time. A request that crosses several vCPUs, each idle between
/// requests, pays that wait on each. Measured on a 4-vCPU Xeon VM, runs
/// of 3000 contracts alternated between layouts seed by seed. Generator
/// spinning on a CPU of its own, server spread over the other three:
/// steal 0.1-4.7 %, latency p90 spread (IQR) 46 % of its median over 24
/// runs. Everything on one CPU, generator sleeping: 10 % over 23 runs,
/// and over 6 runs in a busy period steal 1.4-4.2 % and p90 spread 55 %.
/// Everything on one CPU, generator spinning with sched_yield, alternated
/// with those 6: steal 0.2-0.6 %, p90 spread 5 %. Sharing the CPU costs
/// ~0.2 ms of p50: a POST waits out the replan it triggers, so
/// serve.post_ms includes that wait.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  if (cpu == CPU_SETSIZE) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  for (pid_t tid : ThreadIds()) sched_setaffinity(tid, sizeof(one), &one);
}

}  // namespace

bool PrepareSnapshot(const Options& options, Spans* spans) {
  mroam::model::Dataset dataset;
  {
    Spans::Scope span(spans, "gen", "GenerateNycLike");
    dataset = MakeNycCity(options);
  }
  InfluenceIndex index;
  {
    Spans::Scope span(spans, "influence", "InfluenceIndex::Build");
    index = InfluenceIndex::Build(dataset, kLambdaMeters);
  }
  Spans::Scope span(spans, "io", "SaveIndexSnapshot");
  const mroam::common::Status status =
      mroam::io::SaveIndexSnapshot(options.snapshot, dataset, index);
  if (!status.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  return true;
}

void RunServeMmap(const Options& options, Spans* spans, RunOutput* out) {
  const MarketServerConfig config = ServeConfig(options.seed);

  // Set-up = map + validation + server start, repeated because one takes
  // a few milliseconds; the last server carries the load.
  std::optional<MappedSnapshot> mapped;
  std::unique_ptr<MarketServer> server;
  std::vector<double> map_s;
  int64_t snapshot_bytes = -1;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    mapped.reset();
    Spans::Scope setup_span(spans, "bench", "setup", rep);
    const int64_t start = NowNs();
    {
      Spans::Scope span(spans, "io", "MappedSnapshot::Map", rep);
      auto result = MappedSnapshot::Map(options.snapshot);
      if (!result.ok()) {
        out->Fail("map: " + result.status().ToString());
        return;
      }
      mapped.emplace(std::move(*result));
    }
    map_s.push_back(SecondsSince(start));
    {
      Spans::Scope span(spans, "serve", "MarketServer::Start", rep);
      server = std::make_unique<MarketServer>(&mapped->index(), config);
      const mroam::common::Status status = server->Start();
      if (!status.ok()) {
        out->Fail("start: " + status.ToString());
        return;
      }
    }
    out->setup_s.push_back(SecondsSince(start));
    const int64_t bytes = static_cast<int64_t>(mapped->file_bytes());
    if (snapshot_bytes >= 0 && bytes != snapshot_bytes) {
      out->Fail("set-up repetition " + std::to_string(rep) + " mapped " +
                std::to_string(bytes) + " bytes, the first " +
                std::to_string(snapshot_bytes));
    }
    snapshot_bytes = bytes;
  }
  PinToOneCpu();
  const InfluenceIndex& index = mapped->index();

  HttpClient submit;
  HttpClient poll;
  for (HttpClient* client : {&submit, &poll}) {
    const mroam::common::Status status =
        client->Connect("127.0.0.1", server->port());
    if (!status.ok()) {
      out->Fail("connect: " + status.ToString());
      return;
    }
  }

  // The fixed, seeded list of contracts: demand ~ I*/kDurationDays with
  // the Table 6 fluctuations (omega in [0.8, 1.2], epsilon in [0.9, 1.1]).
  mroam::common::Rng rng(MixSeed(options.seed, kContractStream));
  std::vector<Advertiser> contracts(
      static_cast<size_t>(kWarmupContracts + options.units));
  const double base_demand = static_cast<double>(index.TotalSupply()) /
                             static_cast<double>(kDurationDays);
  for (Advertiser& a : contracts) {
    a.demand = std::max<int64_t>(
        1, static_cast<int64_t>(std::floor(rng.UniformDouble(0.8, 1.2) *
                                           base_demand)));
    a.payment = std::max(1.0, std::floor(rng.UniformDouble(0.9, 1.1) *
                                         static_cast<double>(a.demand)));
  }

  std::vector<double> post_ms;
  std::vector<double> late_ms;
  std::deque<Submitted> pending;
  std::unordered_map<int64_t, Committed> committed;
  int64_t polls = 0;
  int64_t http_5xx = 0;
  const mroam::core::RegretParams regret_params = config.market.solver.regret;

  auto fail_request = [&](const std::string& what,
                          const mroam::common::Result<HttpResponse>& r) {
    if (r.ok() && r->status >= 500) ++http_5xx;
    out->Fail(what + ": " +
              (r.ok() ? "HTTP " + std::to_string(r->status) + " " + r->body
                      : r.status().ToString()));
  };

  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const double period_ns = 1e9 / options.rate;
  const int64_t t0 = NowNs() + 1'000'000;
  size_t next = 0;
  int64_t resolved = 0;
  const int64_t total = static_cast<int64_t>(contracts.size());
  while (resolved < total) {
    const int64_t due =
        next < contracts.size()
            ? t0 + static_cast<int64_t>(std::llround(
                       static_cast<double>(next) * period_ns))
            : INT64_MAX;
    int64_t now = NowNs();
    if (due <= now) {
      const bool timed = static_cast<int64_t>(next) >= kWarmupContracts;
      if (static_cast<int64_t>(next) == kWarmupContracts) {
        before = MetricsRegistry::Global().Snapshot();
      }
      if (timed) late_ms.push_back(static_cast<double>(now - due) * 1e-6);
      const Advertiser& terms = contracts[next];
      const std::string body =
          "{\"demand\":" + std::to_string(terms.demand) +
          ",\"payment\":" + std::to_string(terms.payment) + "}";
      const int64_t expected_ticket = static_cast<int64_t>(next) + 1;
      ++out->attempted;
      mroam::common::Result<HttpResponse> response =
          mroam::common::Status::Internal("unsent");
      {
        Spans::Scope span(spans, "serve", "POST /contracts", expected_ticket);
        const int64_t start = NowNs();
        response = submit.Fetch("POST", "/contracts", body);
        if (timed) post_ms.push_back(SecondsSince(start) * 1e3);
      }
      ++next;
      if (!response.ok() || response->status != 202) {
        fail_request("submit", response);
        ++resolved;
        if (!submit.connected()) {
          (void)submit.Connect("127.0.0.1", server->port());
        }
        continue;
      }
      const auto ticket =
          mroam::serve::ExtractJsonNumber(response->body, "ticket");
      if (!ticket.ok() || static_cast<int64_t>(*ticket) != expected_ticket) {
        out->Fail("submit: ticket " + response->body + ", expected " +
                  std::to_string(expected_ticket));
        ++resolved;
        continue;
      }
      pending.push_back(
          Submitted{expected_ticket, due, NowNs() + kPollIntervalNs, terms});
      continue;
    }
    if (!pending.empty() && pending.front().next_poll_ns <= now) {
      Submitted s = pending.front();
      pending.pop_front();
      mroam::common::Result<HttpResponse> response =
          mroam::common::Status::Internal("unsent");
      {
        Spans::Scope span(spans, "serve", "GET /tickets", s.ticket);
        response = poll.Fetch("GET", "/tickets/" + std::to_string(s.ticket));
      }
      now = NowNs();
      ++polls;
      if (!response.ok() || response->status != 200) {
        fail_request("poll ticket " + std::to_string(s.ticket), response);
        ++resolved;
        if (!poll.connected()) {
          (void)poll.Connect("127.0.0.1", server->port());
        }
        continue;
      }
      if (response->body.find("\"status\":\"committed\"") !=
          std::string::npos) {
        const bool timed = s.ticket > kWarmupContracts;
        if (timed) {
          out->unit_ms.push_back(static_cast<double>(now - s.due_ns) * 1e-6);
        }
        const auto influence =
            mroam::serve::ExtractJsonNumber(response->body, "influence");
        Committed c;
        c.influence = influence.ok() ? static_cast<int64_t>(*influence) : -1;
        c.satisfied =
            response->body.find("\"satisfied\":true") != std::string::npos;
        committed[s.ticket] = c;
        if (timed) {
          out->regret += mroam::core::Regret(
              s.terms, std::max<int64_t>(0, c.influence), regret_params);
          out->payment += s.terms.payment;
        }
        ++resolved;
      } else if (now - s.due_ns > kCommitDeadlineNs) {
        out->Fail("ticket " + std::to_string(s.ticket) +
                  " not committed within 10 s");
        ++resolved;
      } else {
        s.next_poll_ns = now + kPollIntervalNs;
        pending.push_back(s);
      }
      continue;
    }
    int64_t wake = due;
    if (!pending.empty()) wake = std::min(wake, pending.front().next_poll_ns);
    // Spin, yielding to the server's threads, so that the CPU never idles
    // (PinToOneCpu says why).
    while (NowNs() < wake) sched_yield();
  }
  const int64_t timed_t0 =
      t0 + static_cast<int64_t>(std::llround(
               static_cast<double>(kWarmupContracts) * period_ns));
  out->timed_wall_s = SecondsSince(timed_t0);
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);

  // Final book: every still-active contract's billboards are recounted on
  // an independently built plain index. A contract satisfied at commit
  // keeps its billboards under the lock-existing policy, so the recount
  // must equal its committed influence. One still unsatisfied may since
  // have gained inventory or been released as a greedy victim, so its
  // recount must equal the influence the server reports now.
  ++out->attempted;
  mroam::common::Result<HttpResponse> assignment =
      mroam::common::Status::Internal("unsent");
  {
    Spans::Scope span(spans, "serve", "GET /assignment");
    assignment = poll.Fetch("GET", "/assignment");
  }
  server->Stop();
  out->peak_rss_mb = PeakRssMb();
  const int64_t batches = delta.CounterOf("serve.batches");
  if (!assignment.ok() || assignment->status != 200) {
    fail_request("assignment", assignment);
  } else {
    const InfluenceIndex plain =
        InfluenceIndex::Build(MakeNycCity(options), kLambdaMeters);
    const std::vector<AssignedContract> book =
        ParseAssignment(assignment->body);
    std::vector<std::vector<BillboardId>> sets;
    std::string problem;
    if (plain.TotalSupply() != index.TotalSupply()) {
      problem = "mapped supply " + std::to_string(index.TotalSupply()) +
                " differs from the rebuilt index's " +
                std::to_string(plain.TotalSupply());
    }
    for (const AssignedContract& c : book) {
      sets.push_back(c.billboards);
      auto it = committed.find(c.ticket);
      if (it == committed.end() || !problem.empty()) continue;
      const int64_t recount = plain.InfluenceOfSet(c.billboards);
      const int64_t expected =
          it->second.satisfied ? it->second.influence : c.influence;
      if (recount != expected) {
        problem = "ticket " + std::to_string(c.ticket) + " (" +
                  (it->second.satisfied ? "committed " : "reported ") +
                  std::to_string(expected) + ") holds billboards covering " +
                  std::to_string(recount);
      }
    }
    if (problem.empty()) problem = CheckDisjoint(sets, plain.num_billboards());
    if (book.empty()) problem = "final assignment is empty";
    if (!problem.empty()) out->Fail("assignment: " + problem);
  }

  // The index was built offline, so influence.build_s stays 0 here.
  AddIndexLayers(index, 0.0, out);
  out->Exact("io.snapshot_bytes", snapshot_bytes);
  out->Layer("io.snapshot_bytes", static_cast<double>(snapshot_bytes));
  out->Layer("io.mmap_map_s", Median(map_s));
  // Under lock-existing every replan is the greedy completion.
  const MetricsSnapshot::HistogramValue* replan =
      delta.FindHistogram("serve.replan_seconds");
  AddGreedyLayers(delta, replan == nullptr ? 0.0 : replan->sum, out);
  out->Layer("serve.stage.queue_wait_ms.p50",
             HistogramMs(delta, "serve.stage.queue_wait_seconds", 0.5));
  out->Layer("serve.stage.replan_ms.p50",
             HistogramMs(delta, "serve.stage.replan_seconds", 0.5));
  out->Layer("serve.stage.replan_ms.p99",
             HistogramMs(delta, "serve.stage.replan_seconds", 0.99));
  out->Layer("serve.batch_size.mean",
             batches > 0 ? static_cast<double>(out->unit_ms.size()) /
                               static_cast<double>(batches)
                         : 0.0);
  out->Layer("serve.polls_per_commit",
             committed.empty() ? 0.0
                               : static_cast<double>(polls) /
                                     static_cast<double>(committed.size()));
  out->Layer("serve.shed_total",
             static_cast<double>(delta.CounterOf("serve.shed_total")));
  out->Layer("serve.http_errors",
             static_cast<double>(delta.CounterOf("serve.http_errors") +
                                 http_5xx));
  out->series.emplace_back("serve.post_ms", std::move(post_ms));
  out->series.emplace_back("serve.gen_late_ms", std::move(late_ms));
}

}  // namespace perfbench
