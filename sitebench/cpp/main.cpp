// sitebench: one provisioned site driven at nproc closed-loop clients.
//
//   sitebench --workload manage|transfer --seed N --seconds S
//             --trace 0|1 [--commit ID] [--source-digest D] [--span-dir DIR]
//
// With --trace 0 a run is one round: the site is built from the seed,
// warmed up, and measured for --seconds in windows of one push cycle
// each; the end-to-end metrics are medians over the windows. Set-up is
// then timed on several more sites built for nothing else. With
// --trace 1 untraced and traced rounds alternate: the traced rounds give
// the per-layer breakdown, the pair gives the tracing overhead. The last
// line of stdout is the result JSON. An unexpected permit aborts the run
// (exit 3, no result line).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gram/jobmanager.h"
#include "gsi/security_context.h"
#include "obs/contention.h"
#include "obs/metrics.h"
#include "rsl/rsl.h"
#include "site.h"

#ifndef SITEBENCH_BUILD_TYPE
#define SITEBENCH_BUILD_TYPE "unknown"
#endif

namespace sitebench {
namespace {

namespace ga = gridauthz;

// A round builds one site, runs the workload on it, and tears it down.
// Its ops are cut into windows of one push cycle each: the kPushEvery
// ops that complete between two pushes. Every window holds the same
// number of ops and exactly one push (the one that opens it), so
// windows compare like with like whatever the throughput.
//
// The first kWarmupSeconds of a round are not measured: a fresh site
// on fresh threads runs at a fraction of its speed for up to a second.
// Measuring starts at the first window that opens after the warm-up.
constexpr double kWarmupSeconds = 2.0;
// The VM's host takes vCPUs away for seconds to minutes at a time
// ("steal" in /proc/stat). A window in which it took more than this
// share of the CPU time measures the host, not the program, and is
// left out. A round runs on past its measured time, by up to that time
// again, until at least half of it is in windows the host left alone.
// The summaries always use at least kMinWindows windows: if too few are
// clean, the least stolen of the rest fill in.
constexpr double kMaxStealShare = 0.01;
constexpr std::size_t kMinWindows = 8;
// A round stops this long after its longest allowed time even if a
// stalled host never reaches a window boundary.
constexpr double kHardStopSeconds = 10;
// An untraced run is one round. A traced run alternates untraced and
// traced rounds measuring about this long each (spans stay in memory).
constexpr double kTracedRoundSeconds = 5.0;
// Set-up is timed this many times per run, on sites built for nothing
// else after the rounds.
constexpr int kSetupSamples = 10;
constexpr std::size_t kMinSetupSamples = 5;
constexpr int kProbeOpsPerClient = 1'000;
constexpr std::uint64_t kSpansWritten = 1'000;  // ops, not spans

struct Options {
  Workload workload = Workload::kManage;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string span_dir;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      have_workload = ParseWorkload(value, &options->workload);
    } else if (key == "--seed") {
      have_seed = !value.empty() &&
                  std::from_chars(value.data(), value.data() + value.size(),
                                  options->seed)
                          .ec == std::errc{};
    } else if (key == "--seconds") {
      options->seconds = std::atof(value.c_str());
      have_seconds = options->seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      options->traced = value == "1";
    } else if (key == "--commit") {
      options->commit = value;
    } else if (key == "--source-digest") {
      options->source_digest = value;
    } else if (key == "--span-dir") {
      options->span_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// VmRSS / VmHWM from /proc/self/status, in MB.
double StatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':') {
      return std::atof(line.c_str() + length + 1) / 1024.0;
    }
  }
  return 0;
}

// CPU time of all vCPUs and the share of it the host took ("steal"),
// from the first line of /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  stat >> label;  // "cpu"
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0 : static_cast<double>(to.steal - from.steal) / total;
}

// Indices of the samples the summaries use: those the host left alone,
// or, if fewer than `at_least` were, the `at_least` least stolen.
std::vector<std::size_t> Unstolen(const std::vector<double>& steal_share,
                                  std::size_t at_least) {
  std::vector<std::size_t> order(steal_share.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal_share[a] < steal_share[b];
  });
  std::size_t keep = 0;
  while (keep < order.size() && steal_share[order[keep]] <= kMaxStealShare) {
    ++keep;
  }
  order.resize(std::min(order.size(), std::max(keep, at_least)));
  std::sort(order.begin(), order.end());
  return order;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile of latencies in ns, returned in µs.
double PercentileUs(std::vector<std::uint32_t> values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(values.size() - 1, std::ceil(q * values.size()) - 1));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank] / 1e3;
}

// Program-side counters read before and after a measured phase.
struct Counters {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t stale_checks = 0;
  std::uint64_t callouts = 0;
  std::uint64_t audit_dropped = 0;
  std::uint64_t blocks_checked = 0;
  std::map<std::string, std::int64_t> wait_us;  // contention site -> total
};

Counters ReadCounters(Site& site) {
  Counters c;
  const ga::obs::LabelSet source{{"source", "combined"}};
  c.cache_hits = ga::obs::Metrics().CounterValue("authz_cache_hits_total",
                                                 source);
  c.cache_misses = ga::obs::Metrics().CounterValue("authz_cache_misses_total",
                                                   source);
  c.stale_checks = ga::obs::Metrics().CounterValue(
      "datapath_token_checks_total", {{"outcome", "stale"}});
  c.callouts = site.gram_site().callouts().invocation_count();
  c.audit_dropped = site.audit_log().dropped();
  c.blocks_checked = site.blocks_checked();
  for (const auto& s : ga::obs::Contention().Snapshot()) {
    c.wait_us[s.name] = s.total_wait_us;
  }
  return c;
}

// Layers without a seam, timed through their public functions on the
// same generated inputs as the round (after its measured phase, at the
// same client count).
struct Probe {
  double total_ns = 0;
  std::uint64_t count = 0;
  double MeanUs() const { return count == 0 ? 0 : total_ns / count / 1e3; }
};
enum ProbeId {
  kProbeHandshake,
  kProbeGridmap,
  kProbeRslParse,
  kProbeRslSerialize,
  kProbeScheduler,
  kProbeRegistry,
  kProbeMint,
  kProbeCount,
};
constexpr std::array<const char*, kProbeCount> kProbeNames = {
    "gsi.handshake_us",  "gridmap.lookup_us", "rsl.parse_us",
    "rsl.serialize_us",  "os.scheduler_us",   "gram.registry_us",
    "core.datapath.mint_us"};
using Probes = std::array<Probe, kProbeCount>;

template <typename Fn>
auto Timed(Probe& probe, Fn&& fn) {
  const std::int64_t start = trace::NowNs();
  auto result = fn();
  probe.total_ns += static_cast<double>(trace::NowNs() - start);
  ++probe.count;
  return result;
}

void ProbeOne(Site& site, Workload workload, const Op& op, Probes& p) {
  auto& gram = site.gram_site();
  const auto now = gram.clock().Now();
  switch (workload) {
    case Workload::kManage: {
      auto jmi = Timed(p[kProbeRegistry], [&] {
        return gram.jmis().Lookup(site.job_contact(op.target));
      });
      if (!jmi.ok()) return;
      (void)Timed(p[kProbeHandshake], [&] {
        return ga::gsi::EstablishSecurityContext(site.identity(op.requester),
                                                 (*jmi)->credential(),
                                                 gram.trust(), now);
      });
      const std::string text = Timed(p[kProbeRslSerialize],
                                     [&] { return (*jmi)->job_rsl().ToString(); });
      (void)Timed(p[kProbeRslParse],
                  [&] { return ga::rsl::ParseConjunction(text); });
      (void)Timed(p[kProbeScheduler], [&] {
        return gram.scheduler().Status((*jmi)->local_job_id());
      });
      break;
    }
    case Workload::kTransfer: {
      const auto& credential = site.member(op.requester);
      (void)Timed(p[kProbeHandshake], [&] {
        return ga::gsi::EstablishSecurityContext(
            credential, gram.gatekeeper().host_credential(), gram.trust(), now);
      });
      (void)Timed(p[kProbeGridmap], [&] {
        auto dn = ga::gsi::DistinguishedName::Parse(credential.identity().str());
        return gram.gridmap().DefaultAccount(*dn);
      });
      const std::uint32_t member = site.spec().active[op.requester];
      const std::string base =
          "gsiftp://" + std::string{kHost} + MemberSubtree(member);
      (void)Timed(p[kProbeMint], [&] {
        return site.datapath().MintSession(MemberDn(member), base);
      });
      break;
    }
  }
}

// One measured window: a push cycle of kPushEvery ops.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;  // process user+sys
  double p50_us = 0;
  double p99_us = 0;
  double steal_share = 0;  // of all vCPUs' time, taken by the host
  PushTiming push;  // the push that opened the window

  double ops_per_s() const { return wall_s > 0 ? kPushEvery / wall_s : 0; }
  double cpu_us_per_op() const { return cpu_s / kPushEvery * 1e6; }
};

struct RoundResult {
  bool traced = false;
  double ready_rss_mb = 0;
  double peak_rss_mb = 0;  // process high-water mark after the first push
  std::uint64_t attempted = 0;  // every op of the round, warm-up included
  std::uint64_t failed = 0;
  std::uint64_t permitted = 0;  // ops whose expected decision is a permit
  std::vector<Window> windows;  // the measured ones
  std::string first_failure;
  std::string unexpected_permit;  // non-empty aborts the run
  // Traced rounds only, from the start of the first measured window.
  trace::Breakdown breakdown;
  std::vector<trace::Span> written_spans;
  Probes probes{};
  Counters before, after;
  std::uint64_t shed = 0;
};

// An op as a client thread records it: the window it completed in.
struct OpRecord {
  std::uint32_t window;
  std::uint32_t latency_ns;
};

struct ClientResult {
  std::vector<OpRecord> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t permitted = 0;
  std::string first_failure;
};

// A window boundary, taken by the thread that completes the window's
// last op, before it pushes.
struct Boundary {
  std::int64_t ns = 0;
  double cpu_s = 0;
  CpuTicks ticks;
};

RoundResult RunRound(const Options& options, const SiteSpec& spec,
                     std::uint32_t round, bool traced, double seconds,
                     int clients) {
  RoundResult result;
  result.traced = traced;
  trace::SetEnabled(false);
  auto site = std::make_unique<Site>(spec, options.workload, traced, clients);
  result.ready_rss_mb = StatusMb("VmRSS");

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_op{0};
  std::atomic<std::uint64_t> completed{0};
  std::vector<ClientResult> per_client(clients);
  std::int64_t start_ns = 0;
  std::int64_t hard_stop_ns = 0;
  // Guards the boundary state below and result.unexpected_permit.
  std::mutex mu;
  std::vector<Boundary> boundaries;  // [w] opens window w
  std::vector<PushTiming> pushes;    // [w] made at boundary w
  std::uint32_t first_measured = 0;  // 0 until measuring starts
  std::uint32_t last_boundary = 0;   // the one that stopped the round
  std::int64_t measure_end_ns = 0;
  std::int64_t clean_ns = 0;  // measured time in windows the host left alone

  // Window w - 1 has just completed. Starts measuring after the warm-up,
  // stops the round once enough measured time is in, and otherwise
  // pushes. Boundaries are 20,000 ops apart, but a thread the host
  // stalls could still reach the lock after the next one; the checks on
  // w keep that from opening or closing the measurement twice.
  auto at_boundary = [&](std::uint32_t w) {
    const Boundary boundary{trace::NowNs(), CpuSeconds(), ReadCpuTicks()};
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (last_boundary != 0) return;  // the round is over
      if (boundaries.size() <= w) {
        boundaries.resize(w + 1);
        pushes.resize(w + 1);
      }
      boundaries[w] = boundary;
      const std::int64_t wanted_ns = static_cast<std::int64_t>(seconds * 1e9);
      if (first_measured == 0) {
        if (boundary.ns >=
            start_ns + static_cast<std::int64_t>(kWarmupSeconds * 1e9)) {
          first_measured = w;
          measure_end_ns = boundary.ns + wanted_ns;
          if (traced) {
            result.before = ReadCounters(*site);
            trace::SetEnabled(true);
          }
        }
      } else if (w > first_measured && boundaries[w - 1].ns != 0) {
        const Boundary& opened = boundaries[w - 1];
        if (StealShare(opened.ticks, boundary.ticks) <= kMaxStealShare) {
          clean_ns += boundary.ns - opened.ns;
        }
        if (boundary.ns >= measure_end_ns &&
            (2 * clean_ns >= wanted_ns ||
             boundary.ns >= measure_end_ns + wanted_ns)) {
          last_boundary = w;
          stop.store(true);
          return;
        }
      }
    }
    const PushTiming timing = site->Push();
    const std::lock_guard<std::mutex> lock(mu);
    pushes[w] = timing;
    // The memory figures: a fixed amount of work (kPushEvery ops and one
    // push) in the round's fresh site. Only the first round of a process
    // reports them; later rounds keep what earlier ones leaked (every
    // delegated proxy key stays in the process-wide KeyStore).
    if (w == 1) result.peak_rss_mb = StatusMb("VmHWM");
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      trace::BindClientSlot(c);
      ClientResult& mine = per_client[c];
      mine.ops.reserve(1 << 18);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::string detail;
      while (!stop.load(std::memory_order_relaxed) &&
             trace::NowNs() < hard_stop_ns) {
        const std::uint64_t index = next_op.fetch_add(1);
        const Op op = MakeOp(spec, options.workload, round, index);
        const std::int64_t start = trace::NowNs();
        Verdict verdict;
        {
          const trace::Scope root(trace::Layer::kOp, index + 1);
          verdict = site->Run(c, op, &detail);
        }
        const auto latency = static_cast<std::uint32_t>(
            std::min<std::int64_t>(trace::NowNs() - start, UINT32_MAX));
        const std::uint64_t n = completed.fetch_add(1) + 1;
        mine.ops.push_back(
            {static_cast<std::uint32_t>((n - 1) / kPushEvery), latency});
        ++mine.attempted;
        mine.permitted += op.expect == Expect::kPermit;
        if (verdict == Verdict::kUnexpectedPermit) {
          const std::lock_guard<std::mutex> lock(mu);
          result.unexpected_permit = detail;
          stop.store(true);
          break;
        }
        if (verdict == Verdict::kFailed) {
          if (mine.failed++ == 0) mine.first_failure = detail;
        }
        if (n % kPushEvery == 0) {
          at_boundary(static_cast<std::uint32_t>(n / kPushEvery));
        }
      }
    });
  }
  start_ns = trace::NowNs();
  hard_stop_ns = start_ns + static_cast<std::int64_t>(
                                (kWarmupSeconds + 2 * seconds + kHardStopSeconds) * 1e9);
  boundaries.push_back({start_ns, CpuSeconds(), ReadCpuTicks()});
  pushes.emplace_back();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  trace::SetEnabled(false);
  if (result.unexpected_permit.empty() && first_measured != 0) {
    if (last_boundary == 0) {  // hard stop: drop the incomplete window
      last_boundary = static_cast<std::uint32_t>(boundaries.size() - 1);
    }
    // A window's latency percentiles are each client thread's own,
    // averaged over the threads. The host runs the vCPUs at different
    // speeds in phases of seconds: one or two client threads may run
    // 1.5x faster than the rest and complete more of the ops. A
    // percentile over the pooled ops jumps between the fast and the slow
    // mode as the number of fast vCPUs changes; the threads' mean moves
    // smoothly with it.
    const std::uint32_t count = last_boundary - first_measured;
    std::vector<Window> windows(count);
    std::vector<int> threads_seen(count, 0);
    for (const ClientResult& mine : per_client) {
      std::vector<std::vector<std::uint32_t>> latency(count);
      for (const OpRecord& op : mine.ops) {
        if (op.window >= first_measured && op.window < last_boundary) {
          latency[op.window - first_measured].push_back(op.latency_ns);
        }
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        if (latency[i].empty()) continue;
        windows[i].p50_us += PercentileUs(latency[i], 0.50);
        windows[i].p99_us += PercentileUs(latency[i], 0.99);
        ++threads_seen[i];
      }
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t w = first_measured + i;
      Window& window = windows[i];
      window.p50_us /= std::max(1, threads_seen[i]);
      window.p99_us /= std::max(1, threads_seen[i]);
      window.wall_s = (boundaries[w + 1].ns - boundaries[w].ns) / 1e9;
      window.cpu_s = boundaries[w + 1].cpu_s - boundaries[w].cpu_s;
      window.steal_share = StealShare(boundaries[w].ticks, boundaries[w + 1].ticks);
      window.push = pushes[w];
    }
    result.windows = std::move(windows);
  }
  for (ClientResult& mine : per_client) {
    result.attempted += mine.attempted;
    result.failed += mine.failed;
    result.permitted += mine.permitted;
    if (result.first_failure.empty()) result.first_failure = mine.first_failure;
    mine.ops.clear();
    mine.ops.shrink_to_fit();
  }

  if (traced && result.unexpected_permit.empty() && first_measured != 0) {
    result.after = ReadCounters(*site);
    const auto stats = site->server().Snapshot();
    result.shed = stats.shed_queue_full + stats.shed_deadline;
    std::vector<trace::Span> spans = trace::Collect();
    result.breakdown = trace::Analyze(spans);
    std::uint64_t first_op = UINT64_MAX;
    for (const trace::Span& span : spans) {
      if (span.layer == trace::Layer::kOp) first_op = std::min(first_op, span.op);
    }
    for (const trace::Span& span : spans) {
      if (span.op >= first_op && span.op < first_op + kSpansWritten) {
        trace::Span copy = span;
        copy.op |= static_cast<std::uint64_t>(round) << 40;
        result.written_spans.push_back(copy);
      }
    }
    spans.clear();
    spans.shrink_to_fit();
    std::vector<Probes> per_thread(clients);
    std::vector<std::thread> probers;
    for (int c = 0; c < clients; ++c) {
      probers.emplace_back([&, c] {
        for (int i = 0; i < kProbeOpsPerClient; ++i) {
          const Op op =
              MakeOp(spec, options.workload, round,
                     (std::uint64_t{1} << 40) +
                         static_cast<std::uint64_t>(c) * kProbeOpsPerClient + i);
          ProbeOne(*site, options.workload, op, per_thread[c]);
        }
      });
    }
    for (auto& t : probers) t.join();
    for (const Probes& p : per_thread) {
      for (int i = 0; i < kProbeCount; ++i) {
        result.probes[i].total_ns += p[i].total_ns;
        result.probes[i].count += p[i].count;
      }
    }
  }
  site.reset();
  trace::Collect();  // drop spans the set-up or probes may have left
  return result;
}

struct SetupSample {
  double seconds = 0;
  double steal_share = 0;
};

// Start to ready of one site, built for nothing else.
SetupSample TimeSetup(const Options& options, const SiteSpec& spec,
                      int clients) {
  const CpuTicks ticks = ReadCpuTicks();
  const std::int64_t start = trace::NowNs();
  const Site site(spec, options.workload, /*traced=*/false, clients);
  const double seconds = (trace::NowNs() - start) / 1e9;
  return {seconds, StealShare(ticks, ReadCpuTicks())};
}

// The measured windows of `rounds` (traced or not) that the summaries use.
std::vector<Window> UsedWindows(const std::vector<RoundResult>& rounds,
                                bool traced) {
  std::vector<Window> windows;
  for (const RoundResult& r : rounds) {
    if (r.traced != traced) continue;
    windows.insert(windows.end(), r.windows.begin(), r.windows.end());
  }
  std::vector<double> steal;
  for (const Window& w : windows) steal.push_back(w.steal_share);
  std::vector<Window> used;
  for (std::size_t i : Unstolen(steal, kMinWindows)) used.push_back(windows[i]);
  return used;
}

// The set-up times the summary uses.
std::vector<double> UsedSetups(const std::vector<SetupSample>& samples) {
  std::vector<double> steal;
  for (const SetupSample& s : samples) steal.push_back(s.steal_share);
  std::vector<double> used;
  for (std::size_t i : Unstolen(steal, kMinSetupSamples)) {
    used.push_back(samples[i].seconds);
  }
  return used;
}

std::string Number(double value) {
  char buffer[64];
  const auto r = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Every timing is taken per window and summarized as a median over the
// run's windows, so a host stall that spans a few windows does not set
// the run's figure.
std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds,
                             const std::vector<SetupSample>& setups) {
  std::vector<double> p50, p99, rate, cpu, push_ms;
  for (const Window& w : UsedWindows(rounds, /*traced=*/false)) {
    p50.push_back(w.p50_us);
    p99.push_back(w.p99_us);
    rate.push_back(w.ops_per_s());
    cpu.push_back(w.cpu_us_per_op());
    push_ms.push_back(w.push.parse_ms + w.push.swap_ms);
  }
  return {
      {"p50_us", Median(p50), "us"},
      {"p99_us", Median(p99), "us"},
      {"ops_per_s", Median(rate), "ops/s"},
      {"cpu_us_per_op", Median(cpu), "us"},
      {"setup_s", Median(UsedSetups(setups)), "s"},
      {"ready_rss_mb", rounds.front().ready_rss_mb, "MB"},
      {"peak_rss_mb", rounds.front().peak_rss_mb, "MB"},
      {"push_p50_ms", Median(push_ms), "ms"},
  };
}

// Per-layer metrics from the traced rounds; `report` gets the per-layer
// table and what the traced run cannot place.
std::vector<Metric> PerLayer(const Options& options,
                             const std::vector<RoundResult>& rounds,
                             std::vector<std::string>* report) {
  using trace::Layer;
  trace::Breakdown b;
  Probes probes{};
  std::vector<double> parse_ms, swap_ms;
  double traced_attempted = 0, permitted = 0;
  double hits = 0, misses = 0, stale = 0, callouts = 0, shed = 0, dropped = 0,
         blocks = 0;
  std::map<std::string, double> waits;
  for (const RoundResult& r : rounds) {
    if (!r.traced) continue;
    traced_attempted += r.attempted;
    permitted += r.permitted;
    for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
      b.layer[i].count += r.breakdown.layer[i].count;
      b.layer[i].total_ns += r.breakdown.layer[i].total_ns;
      b.layer[i].self_ns += r.breakdown.layer[i].self_ns;
    }
    for (int i = 0; i < kProbeCount; ++i) {
      probes[i].total_ns += r.probes[i].total_ns;
      probes[i].count += r.probes[i].count;
    }
    for (const Window& w : r.windows) {
      parse_ms.push_back(w.push.parse_ms);
      swap_ms.push_back(w.push.swap_ms);
    }
    hits += r.after.cache_hits - r.before.cache_hits;
    misses += r.after.cache_misses - r.before.cache_misses;
    stale += r.after.stale_checks - r.before.stale_checks;
    callouts += r.after.callouts - r.before.callouts;
    shed += r.shed;
    dropped += r.after.audit_dropped - r.before.audit_dropped;
    blocks += r.after.blocks_checked - r.before.blocks_checked;
    for (const auto& [name, after] : r.after.wait_us) {
      auto it = r.before.wait_us.find(name);
      waits[name] += after - (it == r.before.wait_us.end() ? 0 : it->second);
    }
  }
  // Spans, counters and waits cover every op from the start of a traced
  // round's first measured window to its end.
  const double traced_ops = static_cast<double>(b[Layer::kOp].count);
  const double ops = std::max(1.0, traced_ops);
  auto self_us = [&](Layer l) {
    return b[l].count == 0 ? 0 : b[l].self_ns / b[l].count / 1e3;
  };
  auto mean_us = [&](Layer l) {
    return b[l].count == 0 ? 0 : b[l].total_ns / b[l].count / 1e3;
  };
  auto probe_us = [&](ProbeId id) { return probes[id].MeanUs(); };
  auto wait_per_op = [&](const char* site) { return waits[site] / ops; };

  const Workload w = options.workload;
  const bool wire = w == Workload::kManage;
  auto per_op_us = [&](Layer l) { return b[l].self_ns / ops / 1e3; };
  // The layers without a seam run inside one seam span (the endpoint on
  // the job path, OpenDataSession on the data path). Each is placed at
  // its probe time times how often an op calls it; the rest of that
  // span's self time stays its own.
  const double permit_share =
      traced_attempted > 0 ? permitted / traced_attempted : 0;
  struct Placed {
    ProbeId id;
    double calls_per_op;
  };
  std::vector<Placed> placed;
  Layer host = Layer::kWireEndpoint;
  switch (w) {
    case Workload::kManage:
      placed = {{kProbeRegistry, 1},
                {kProbeHandshake, 1},
                {kProbeRslSerialize, 1},
                {kProbeScheduler, permit_share}};
      break;
    case Workload::kTransfer:
      host = Layer::kGridftpOpen;
      placed = {{kProbeHandshake, 1}, {kProbeGridmap, 1}, {kProbeMint, 1}};
      break;
  }
  double placed_us = 0;
  for (const Placed& p : placed) placed_us += probe_us(p.id) * p.calls_per_op;
  const double host_residual = per_op_us(host) - placed_us;
  const double wire_self = wire ? host_residual : 0;
  const double op_us = b[Layer::kOp].total_ns / ops / 1e3;
  const double root_self = per_op_us(Layer::kOp);

  // The per-layer table: microseconds per op; the rows add up to the op.
  struct Row {
    std::string name;
    double us;
    std::string how;
  };
  std::vector<Row> rows;
  auto span_row = [&](const char* name, Layer l) {
    rows.push_back({name, per_op_us(l), "span self time"});
  };
  if (wire) {
    rows.push_back({"gram.client.codec", root_self, "op minus client seam"});
    span_row("gram.server.queue", Layer::kWireClient);
  }
  for (const Placed& p : placed) {
    std::string name = kProbeNames[p.id];
    name.resize(name.size() - 3);  // drop "_us"
    char how[48];
    std::snprintf(how, sizeof how, "probe x %.2f/op", p.calls_per_op);
    rows.push_back({name, probe_us(p.id) * p.calls_per_op, how});
  }
  if (wire) {
    rows.push_back({"gram.wire.self", host_residual,
                    "endpoint self minus probes"});
    span_row("gram.callout.self", Layer::kCallout);
    span_row("core.cache.self", Layer::kCache);
    span_row("core.audit.self", Layer::kAudit);
    span_row("core.combining.self", Layer::kCombining);
    span_row("core.evaluate", Layer::kEvaluate);
  } else {
    rows.push_back({"unplaced: gridftp.open", host_residual,
                    "open minus probes: session glue, logging"});
    span_row("core.pathscope.normalize", Layer::kNormalize);
    span_row("core.captoken.check", Layer::kCheck);
    span_row("gridftp.storage", Layer::kStorage);
    rows.push_back({"unplaced: op loop", root_self, "op outside every span"});
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "layer breakdown over %.0f traced ops, %.2f us per op:",
                traced_ops, op_us);
  report->push_back(line);
  double sum = 0;
  for (const Row& row : rows) {
    sum += row.us;
    std::snprintf(line, sizeof line, "  %-26s %9.2f us %6.1f%%  %s",
                  row.name.c_str(), row.us, op_us > 0 ? 100 * row.us / op_us : 0,
                  row.how.c_str());
    report->push_back(line);
  }
  std::snprintf(line, sizeof line, "  %-26s %9.2f us %6.1f%%", "sum", sum,
                op_us > 0 ? 100 * sum / op_us : 0);
  report->push_back(line);
  if (host_residual < 0) {
    report->push_back(
        "unplaced: the probes exceed their span's self time by " +
        Number(-host_residual) + " us per op; probe and in-op timings disagree");
  }
  const double rsl_parses = wire ? callouts : 0;
  // Throughput over the used windows, for the tracing overhead.
  auto window_rate = [&](bool traced) {
    const std::vector<Window> used = UsedWindows(rounds, traced);
    double wall = 0;
    for (const Window& w : used) wall += w.wall_s;
    return wall > 0 ? used.size() * double{kPushEvery} / wall : 0;
  };
  const double untraced_rate = window_rate(false);
  const double traced_rate = window_rate(true);

  return {
      {"gram.client.codec_us", wire ? root_self : 0, "us"},
      {"gram.server.queue_us", self_us(Layer::kWireClient), "us"},
      {"gram.server.shed", shed, "count"},
      {"gram.wire.self_us", wire_self, "us"},
      {"gram.callout.self_us", self_us(Layer::kCallout), "us"},
      {"gram.registry_us", wire ? probe_us(kProbeRegistry) : 0, "us"},
      {"gram.registry.wait_us", wait_per_op("jmi_registry"), "us"},
      {"gsi.handshake_us", probe_us(kProbeHandshake), "us"},
      {"rsl.parse_us", wire ? probe_us(kProbeRslParse) : 0, "us"},
      {"rsl.parses_per_op", rsl_parses / ops, "count"},
      {"gridmap.lookup_us", probe_us(kProbeGridmap), "us"},
      {"os.scheduler_us", wire ? probe_us(kProbeScheduler) : 0, "us"},
      {"core.cache.self_us", self_us(Layer::kCache), "us"},
      {"core.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
       "ratio"},
      {"core.cache.wait_us", wait_per_op("decision_cache/shard"), "us"},
      {"core.audit.self_us", self_us(Layer::kAudit), "us"},
      {"core.audit.dropped", dropped, "count"},
      {"core.combining.self_us", self_us(Layer::kCombining), "us"},
      {"core.evaluate_us", mean_us(Layer::kEvaluate), "us"},
      {"core.evaluate.calls_per_op", b[Layer::kEvaluate].count / ops, "count"},
      {"core.policy.parse_ms", Median(parse_ms), "ms"},
      {"core.policy.swap_ms", Median(swap_ms), "ms"},
      {"core.datapath.mint_us", probe_us(kProbeMint), "us"},
      {"core.datapath.refreshes", stale, "count"},
      {"core.captoken.check_ns",
       blocks > 0 ? b[Layer::kCheck].total_ns / blocks : 0, "ns"},
      {"core.pathscope.normalize_us", mean_us(Layer::kNormalize), "us"},
      {"gridftp.open_us", mean_us(Layer::kGridftpOpen), "us"},
      {"gridftp.storage_us", mean_us(Layer::kStorage), "us"},
      {"obs.metrics.wait_us", wait_per_op("metrics/registry"), "us"},
      {"trace.coverage_pct",
       b[Layer::kOp].total_ns > 0
           ? 100.0 * (b[Layer::kOp].total_ns - b[Layer::kOp].self_ns) /
                 b[Layer::kOp].total_ns
           : 0,
       "%"},
      {"trace.overhead_pct",
       untraced_rate > 0 ? 100.0 * (1.0 - traced_rate / untraced_rate) : 0,
       "%"},
  };
}

void PrintManifest(const Options& options, int nproc, int clients,
                   const std::vector<RoundResult>& rounds,
                   const std::vector<SetupSample>& setups) {
  std::string ops = "[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (i != 0) ops += ", ";
    ops += "{\"traced\": " + std::string{rounds[i].traced ? "true" : "false"} +
           ", \"attempted\": " + std::to_string(rounds[i].attempted) +
           ", \"failed\": " + std::to_string(rounds[i].failed) +
           ", \"windows\": " + std::to_string(rounds[i].windows.size()) + "}";
  }
  ops += "]";
  std::printf(
      "manifest {\"workload\": \"%.*s\", \"seed\": %llu, \"seconds\": %s, "
      "\"traced\": %s, \"nproc\": %d, \"clients\": %d, \"server_workers\": %d, "
      "\"compiler\": \"g++ %s\", \"build_type\": \"%s\", \"git_commit\": "
      "\"%s\", \"source_digest\": \"%s\", \"warmup_s\": %s, "
      "\"window_ops\": %u, \"max_steal_share\": %s, \"setup_samples\": %zu, "
      "\"rounds\": %s}\n",
      static_cast<int>(WorkloadName(options.workload).size()),
      WorkloadName(options.workload).data(),
      static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.traced ? "true" : "false", nproc,
      clients, clients, __VERSION__, SITEBENCH_BUILD_TYPE,
      options.commit.c_str(), options.source_digest.c_str(),
      Number(kWarmupSeconds).c_str(), kPushEvery,
      Number(kMaxStealShare).c_str(), setups.size(), ops.c_str());
}

// One line per measured window, then the set-up samples, each with the
// share of the vCPUs' time the host took meanwhile.
void PrintWindows(const std::vector<RoundResult>& rounds,
                  const std::vector<SetupSample>& setups) {
  std::printf("%5s %6s %6s %8s %10s %9s %9s %10s %8s %7s\n", "round",
              "traced", "window", "wall_s", "ops/s", "p50_us", "p99_us",
              "cpu_us/op", "push_ms", "steal%");
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto& windows = rounds[r].windows;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const Window& w = windows[i];
      std::printf("%5zu %6s %6zu %8.4f %10.1f %9.2f %9.2f %10.2f %8.2f %7.2f\n",
                  r, rounds[r].traced ? "yes" : "no", i, w.wall_s,
                  w.ops_per_s(), w.p50_us, w.p99_us, w.cpu_us_per_op(),
                  w.push.parse_ms + w.push.swap_ms, 100 * w.steal_share);
    }
  }
  for (bool traced : {false, true}) {
    std::size_t total = 0;
    for (const RoundResult& r : rounds) total += r.traced == traced ? r.windows.size() : 0;
    if (total == 0) continue;
    std::printf("%s windows used: %zu of %zu (steal <= %.0f%%, at least %zu)\n",
                traced ? "traced" : "untraced", UsedWindows(rounds, traced).size(),
                total, 100 * kMaxStealShare, kMinWindows);
  }
  if (setups.empty()) return;
  std::printf("setup_s samples (steal%%):");
  for (const SetupSample& s : setups) {
    std::printf(" %.4f (%.1f)", s.seconds, 100 * s.steal_share);
  }
  std::printf("; used: %zu\n", UsedSetups(setups).size());
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: sitebench --workload manage|transfer --seed N "
                 "--seconds S --trace 0|1 [--commit ID] [--source-digest D] "
                 "[--span-dir DIR]\n");
    return 2;
  }
  const int nproc = Nproc();
  const int clients = nproc;
  const SiteSpec spec = MakeSiteSpec(options.seed);
  // --trace 1 alternates untraced and traced rounds.
  const int round_count =
      options.traced
          ? 2 * std::max(1L, std::lround(options.seconds /
                                         (2 * kTracedRoundSeconds)))
          : 1;
  const double round_seconds = options.seconds / round_count;

  std::vector<RoundResult> rounds;
  for (int r = 0; r < round_count; ++r) {
    const bool traced = options.traced && r % 2 == 1;
    rounds.push_back(RunRound(options, spec, static_cast<std::uint32_t>(r),
                              traced, round_seconds, clients));
    if (!rounds.back().unexpected_permit.empty()) {
      std::fprintf(stderr, "sitebench: UNEXPECTED PERMIT (security failure): %s\n",
                   rounds.back().unexpected_permit.c_str());
      return 3;
    }
    if (rounds.back().windows.empty()) {
      std::fprintf(stderr, "sitebench: round %d measured no complete window\n",
                   r);
      return 1;
    }
  }
  std::vector<SetupSample> setups;  // setup_s is an end-to-end metric
  for (int i = 0; !options.traced && i < kSetupSamples; ++i) {
    setups.push_back(TimeSetup(options, spec, clients));
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed > 0) {
      std::fprintf(stderr, "sitebench: %llu failed ops in a round; first: %s\n",
                   static_cast<unsigned long long>(r.failed),
                   r.first_failure.c_str());
    }
  }
  std::printf("sitebench workload=%.*s seed=%llu seconds=%s trace=%d clients=%d\n",
              static_cast<int>(WorkloadName(options.workload).size()),
              WorkloadName(options.workload).data(),
              static_cast<unsigned long long>(options.seed),
              Number(options.seconds).c_str(), options.traced ? 1 : 0, clients);
  PrintManifest(options, nproc, clients, rounds, setups);
  PrintWindows(rounds, setups);

  std::vector<Metric> metrics;
  if (options.traced) {
    std::vector<std::string> report;
    metrics = PerLayer(options, rounds, &report);
    for (const std::string& line : report) std::printf("%s\n", line.c_str());
    if (!options.span_dir.empty()) {
      std::vector<trace::Span> spans;
      for (const RoundResult& r : rounds) {
        spans.insert(spans.end(), r.written_spans.begin(), r.written_spans.end());
      }
      const std::string path = options.span_dir + "/" +
                               std::string{WorkloadName(options.workload)} +
                               "-seed" + std::to_string(options.seed) + ".tsv";
      if (!trace::WriteSpans(path, spans)) {
        std::fprintf(stderr, "sitebench: could not write %s\n", path.c_str());
      }
    }
  } else {
    metrics = EndToEnd(rounds, setups);
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace sitebench

int main(int argc, char** argv) {
  try {
    return sitebench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sitebench: %s\n", e.what());
    return 1;
  }
}
