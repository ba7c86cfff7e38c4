// perfbench_driver: runs ONE repetition of one benchmark workload and
// prints one JSON object on stdout. perfbench/run.py repeats it, takes
// medians of the host-side figures and checks that the seed-determined
// figures repeat exactly.
//
//   perfbench_driver --workload paper-mix --seed 7 --mode plain
//   perfbench_driver --workload read-heavy --seed 7 --mode layers
//   perfbench_driver --workload global-heavy --seed 7 --mode crit --sample-every 8
//
// Modes:
//   plain   untraced window via Simulation::RunUntil: host speed, set-up
//           time, peak RSS, simulated throughput/latency, window counts.
//   layers  the same window driven by Simulation::Step, each step timed
//           and its allocations counted, both charged to the layer of the
//           handler the step entered; then the layer probes.
//   crit    the causal tracer on for the window (every n-th client op):
//           critical-path decomposition, plus the read-validity invariant
//           over every accepted fast-path read.
//
// Output: {"ok": bool, "error": str, "host": {...}, "det": {...}}. "host"
// holds wall-clock, memory and allocation figures; "det" holds figures that
// are a pure function of (workload, seed) and must repeat exactly.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <string_view>

#include "deployment.h"
#include "layers.h"
#include "probes.h"
#include "sim/invariants.h"

// ---- Allocation counter -------------------------------------------------
// Replaces the global allocation functions of this binary only.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

std::uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Output {
  bool ok = true;
  std::string error;
  Metrics host;
  Metrics det;

  void Fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

void PrintJsonString(std::string_view s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  std::putchar('"');
}

void PrintMetrics(const Metrics& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::putchar(',');
    first = false;
    PrintJsonString(k);
    std::printf(":%.17g", std::isfinite(v) ? v : 0.0);
  }
  std::putchar('}');
}

void Print(const Output& out) {
  std::printf("{\"ok\":%s,\"error\":", out.ok ? "true" : "false");
  PrintJsonString(out.error);
  std::printf(",\"host\":");
  PrintMetrics(out.host);
  std::printf(",\"det\":");
  PrintMetrics(out.det);
  std::printf("}\n");
}

/// Publishes quantile `q` of `h` as `name`, in ms, only where at least ten
/// samples lie beyond it.
void PutQuantile(const Histogram& h, double q, const std::string& name,
                 Output* out) {
  double beyond = static_cast<double>(h.count()) * (1.0 - q);
  if (beyond < 10.0) {
    out->Fail(name + ": " + std::to_string(h.count()) +
              " samples leave fewer than 10 beyond the percentile");
    return;
  }
  out->det[name] = h.Quantile(q) / 1000.0;
}

/// End-to-end simulated figures and window counts (all seed-determined).
void PutWindow(const WindowStats& w, Output* out) {
  using obs::CounterId;
  Metrics& d = out->det;
  const double ops = static_cast<double>(w.ops());
  d["sim_ops"] = ops;
  d["sim_global_ops"] = static_cast<double>(w.global_ops);
  d["sim_tput_ktps"] = ops / ToSeconds(w.measure) / 1000.0;
  PutQuantile(w.all_latency_us, 0.5, "sim_p50_ms", out);
  PutQuantile(w.all_latency_us, 0.99, "sim_p99_ms", out);
  PutQuantile(w.global_latency_us, 0.5, "sim_global_p50_ms", out);
  PutQuantile(w.global_latency_us, 0.99, "sim_global_p99_ms", out);

  // A closed-loop op is attempted once it completes or is still in flight
  // at the window end; it failed if it timed out or a reply was refused.
  const double failed = static_cast<double>(w.timeouts + w.read_rejects);
  const double attempted = ops + static_cast<double>(w.in_flight_at_end);
  d["attempted"] = attempted;
  d["failed"] = failed;
  d["failed_frac"] = Ratio(failed, attempted);

  d["events_per_op"] = Ratio(static_cast<double>(w.events), ops);
  d["net.msgs_per_op"] =
      Ratio(static_cast<double>(w.counter(CounterId::kNetMsgsSent)), ops);
  d["net.bytes_per_op"] =
      Ratio(static_cast<double>(w.counter(CounterId::kNetBytesSent)), ops);
  // Ops ordered by zone PBFT (everything but fast-path reads) per batch a
  // primary proposed.
  const double fast_reads = static_cast<double>(w.read_ops - w.read_fallbacks);
  d["pbft.ops_per_batch"] =
      Ratio(ops - fast_reads,
            static_cast<double>(w.counter(CounterId::kPbftBatchesProposed)));
  d["pbft.checkpoints"] =
      static_cast<double>(w.counter(CounterId::kPbftStableCheckpoints));
  d["lazy.checkpoints_installed"] =
      static_cast<double>(w.counter(CounterId::kLazyCheckpointsInstalled));
  const double reads = static_cast<double>(w.read_ops);
  d["reads.fast_frac"] = Ratio(fast_reads, reads);
  d["reads.redirect_frac"] = Ratio(static_cast<double>(w.read_redirects), reads);

  d["endorse.rejected"] =
      static_cast<double>(w.counter(CounterId::kEndorseRejected));
  d["mig.state_mismatch_rejected"] =
      static_cast<double>(w.counter(CounterId::kMigStateMismatchRejected));
  d["pbft.view_changes"] =
      static_cast<double>(w.counter(CounterId::kPbftViewChangesStarted));
  d["sync.retries"] = static_cast<double>(w.counter(CounterId::kSyncRetries));
  d["sync.response_queries"] =
      static_cast<double>(w.counter(CounterId::kSyncResponseQueriesSent));

  d["mem.pbft.retained_kb"] = w.pbft_retained_kb;
  d["mem.sync.retained_kb"] = w.sync_retained_kb;
  d["mem.metadata.executed"] = w.metadata_executed;

  if (w.ops() == 0) out->Fail("no client op completed in the window");
  if (w.read_rejects != 0 || w.counter(CounterId::kReadsCertRejected) != 0 ||
      w.counter(CounterId::kReadsSessionViolationsDetected) != 0) {
    out->Fail("a fast-path read reply was rejected");
  }
}

/// The invariant sweep; every violation fails the run.
void CheckInvariants(Deployment& dep, bool with_witnesses, Output* out) {
  sim::InvariantChecker::Options opt;
  if (with_witnesses) opt.read_witnesses = dep.Witnesses();
  out->det["invariants.witnesses"] =
      static_cast<double>(opt.read_witnesses.size());
  sim::InvariantChecker checker(std::move(opt));
  std::vector<sim::InvariantViolation> v = checker.Check(dep.system());
  out->det["invariants.violations"] = static_cast<double>(v.size());
  if (!v.empty()) {
    out->Fail("invariant " + v.front().invariant + ": " + v.front().detail);
  }
}

void RunPlain(const WorkloadDef& def, std::uint64_t seed, Output* out) {
  auto t0 = Clock::now();
  Deployment dep(def, seed, /*record_witnesses=*/false);
  dep.Warmup();
  const double setup_s = Since(t0);
  const std::uint64_t allocs0 = Allocs();
  auto w0 = Clock::now();
  dep.RunWindow();
  const double window_s = Since(w0);
  const std::uint64_t allocs = Allocs() - allocs0;
  WindowStats w = dep.Collect();
  PutWindow(w, out);
  CheckInvariants(dep, /*with_witnesses=*/false, out);
  const double ops = static_cast<double>(w.ops());
  out->host["setup_s"] = setup_s;
  out->host["window_s"] = window_s;
  out->host["host_ops_per_s"] = Ratio(ops, window_s);
  out->host["allocs_per_op"] = Ratio(static_cast<double>(allocs), ops);
  out->host["peak_rss_mb"] = PeakRssMb();
  out->host["sim.queue_depth"] = w.mean_queue_depth;
}

void RunLayers(const WorkloadDef& def, std::uint64_t seed, Output* out) {
  Deployment dep(def, seed, /*record_witnesses=*/false);
  dep.Warmup();
  sim::Simulation& sim = dep.sim();
  const CounterSet& counters = sim.counters();
  const std::vector<sim::TraceEntry>& trace = sim.trace();
  sim.EnableTrace(true);

  std::array<std::uint64_t, kNumLayers> ns{};
  std::array<std::uint64_t, kNumLayers> allocs{};
  std::uint64_t drops = counters.Get(obs::CounterId::kNetMsgsDropped);
  const std::uint64_t allocs0 = Allocs();
  auto w0 = Clock::now();
  while (!dep.sentinel().fired()) {
    const std::size_t n0 = trace.size();
    const std::uint64_t a0 = Allocs();
    auto t0 = Clock::now();
    if (!sim.Step()) {
      out->Fail("event queue drained before the window end");
      return;
    }
    auto t1 = Clock::now();
    const std::uint64_t a1 = Allocs();
    if (dep.sentinel().fired()) break;
    Layer layer = Layer::kTimer;
    if (trace.size() != n0) {
      const sim::TraceEntry& e = trace.back();
      std::optional<Layer> l = LayerOf(e.type, dep.IsClient(e.to));
      if (!l) {
        out->Fail("unmapped message type " + std::to_string(e.type));
        return;
      }
      layer = *l;
    } else if (std::uint64_t d = counters.Get(obs::CounterId::kNetMsgsDropped);
               d != drops) {
      drops = d;
      layer = Layer::kDrop;
    }
    const auto i = static_cast<std::size_t>(layer);
    ns[i] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    allocs[i] += a1 - a0;
    if (trace.size() >= 4096) sim.ClearTrace();
  }
  const double window_s = Since(w0);
  const std::uint64_t total_allocs = Allocs() - allocs0;
  sim.EnableTrace(false);
  sim.ClearTrace();

  WindowStats w = dep.Collect();
  PutWindow(w, out);
  CheckInvariants(dep, /*with_witnesses=*/false, out);
  const double ops = static_cast<double>(w.ops());
  auto put_layer = [&](std::string_view name, std::uint64_t t, std::uint64_t a) {
    out->host["host." + std::string(name) + ".ns_per_op"] =
        Ratio(static_cast<double>(t), ops);
    out->host["alloc." + std::string(name) + ".per_op"] =
        Ratio(static_cast<double>(a), ops);
  };
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    auto layer = static_cast<Layer>(i);
    std::uint64_t t = ns[i], a = allocs[i];
    // Parents include their sub-layers (see Layer).
    auto add = [&](Layer sub) {
      t += ns[static_cast<std::size_t>(sub)];
      a += allocs[static_cast<std::size_t>(sub)];
    };
    if (layer == Layer::kPbft) add(Layer::kPbftCommit);
    if (layer == Layer::kSync) add(Layer::kSyncGlobalCommit);
    put_layer(LayerName(layer), t, a);
  }
  out->host["window_s"] = window_s;
  out->host["allocs_per_op"] = Ratio(static_cast<double>(total_allocs), ops);

  ProbeResults p;
  if (!RunProbes(static_cast<std::size_t>(std::llround(w.mean_queue_depth)),
                 dep.ZoneState(), seed, &p)) {
    out->Fail("a layer probe produced a wrong result");
  }
  out->host["probe.queue.ns_per_event"] = p.queue_ns_per_event;
  out->host["probe.kv.get_ns"] = p.kv_get_ns;
  out->host["probe.kv.snapshot_us"] = p.kv_snapshot_us;
  out->host["probe.merkle.build_us"] = p.merkle_build_us;
  out->host["probe.merkle.prove_verify_ns"] = p.merkle_prove_verify_ns;
}

void RunCrit(const WorkloadDef& def, std::uint64_t seed,
             std::uint64_t sample_every, Output* out) {
  Deployment dep(def, seed, /*record_witnesses=*/true);
  dep.Warmup();
  obs::Tracer& tracer = dep.sim().recorder().tracer();
  // Tracing starts at the window boundary; warmup traffic is never traced.
  tracer.set_enabled(true);
  tracer.set_sample_every(sample_every);
  dep.RunWindow();
  WindowStats w = dep.Collect();
  PutWindow(w, out);
  CheckInvariants(dep, /*with_witnesses=*/true, out);

  bool unmapped = false;
  auto labeler = [&](std::uint64_t type) -> std::string {
    std::optional<std::string_view> l = PhaseLabel(type);
    if (!l) {
      unmapped = true;
      return "unmapped";
    }
    return std::string(*l);
  };
  Duration total = 0, wan = 0, lan = 0, queue = 0, crypto = 0;
  std::map<std::string, Duration> phases;
  std::uint64_t n = 0;
  for (obs::TraceId t : tracer.CompletedTraces()) {
    obs::Tracer::Breakdown b = tracer.CriticalPath(t, labeler);
    if (!b.complete) continue;
    ++n;
    total += b.total_us;
    wan += b.wan_us;
    lan += b.lan_us;
    queue += b.queue_us;
    crypto += b.crypto_us;
    for (const auto& [label, us] : b.phase_us) phases[label] += us;
  }
  if (unmapped) out->Fail("critical path crossed an unmapped message type");
  if (n == 0) out->Fail("no traced op completed");
  const double per = n > 0 ? 1.0 / (1000.0 * static_cast<double>(n)) : 0.0;
  Metrics& d = out->det;
  d["crit.traces"] = static_cast<double>(n);
  d["crit.total_ms"] = static_cast<double>(total) * per;
  d["crit.wan_ms"] = static_cast<double>(wan) * per;
  d["crit.lan_ms"] = static_cast<double>(lan) * per;
  d["crit.queue_ms"] = static_cast<double>(queue) * per;
  d["crit.crypto_ms"] = static_cast<double>(crypto) * per;
  Duration other = 0;
  for (const auto& [label, us] : phases) {
    bool reported = false;
    for (std::string_view r : kReportedPhases) reported |= (r == label);
    if (!reported) other += us;
  }
  for (std::string_view r : kReportedPhases) {
    auto it = phases.find(std::string(r));
    d["crit.phase." + std::string(r) + "_ms"] =
        it == phases.end() ? 0.0 : static_cast<double>(it->second) * per;
  }
  d["crit.phase.other_ms"] = static_cast<double>(other) * per;
  const CounterSet& c = dep.sim().counters();
  d["obs.spans_dropped"] =
      static_cast<double>(c.Get(obs::CounterId::kObsSpansDropped));
  d["obs.spans_opened"] =
      static_cast<double>(c.Get(obs::CounterId::kObsSpansOpened));
  d["obs.traces_started"] =
      static_cast<double>(c.Get(obs::CounterId::kObsTracesStarted));
  d["crit.sample_every"] = static_cast<double>(sample_every);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --mode plain|layers|crit [--sample-every N]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, mode;
  std::uint64_t seed = 0, sample_every = 1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--mode") {
      mode = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return Usage("--seed is not a number");
      have_seed = true;
    } else if (a == "--sample-every") {
      sample_every = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0' || sample_every == 0) {
        return Usage("--sample-every must be a positive number");
      }
    } else {
      return Usage("unknown flag");
    }
  }
  const WorkloadDef* def = FindWorkload(workload);
  if (def == nullptr) return Usage("unknown --workload");
  if (!have_seed) return Usage("--seed is required");

  Output out;
  if (mode == "plain") {
    RunPlain(*def, seed, &out);
  } else if (mode == "layers") {
    RunLayers(*def, seed, &out);
  } else if (mode == "crit") {
    RunCrit(*def, seed, sample_every, &out);
  } else {
    return Usage("unknown --mode");
  }
  Print(out);
  return out.ok ? 0 : 1;
}
