#include "deployment.h"

#include <algorithm>

#include "app/bank.h"
#include "app/experiment.h"
#include "common/logging.h"
#include "sim/timer_tag.h"

namespace perfbench {
namespace {

using namespace ziziphus::sim;  // region ids

// Sized so each window holds tens of thousands of client ops (and at least
// a thousand global ops, the floor for a global p99 with ten samples past
// it). The warmups cover client start-up and the first checkpoints.
const WorkloadDef kWorkloads[] = {
    // The paper's headline mix (Fig. 4/5 cell): both protocol levels.
    {"paper-mix",
     {kCalifornia, kSydney, kParis, kLondon, kTokyo},
     /*f=*/1,
     /*clients_per_zone=*/200,
     {/*read=*/0.0, /*global=*/0.1, /*cross_cluster=*/0.0},
     /*crashed_backups_per_zone=*/0,
     /*checkpoint_interval=*/0,
     Millis(800),
     Seconds(2)},
    // Fig. 6 fault on a global-heavy mix: data sync, endorsement and
    // migration dominate; every quorum needs every live replica. 60%
    // rather than the paper's 50% global: at 50% the all-ops median sits
    // on the boundary between the local and the global latency modes and
    // jumps between them from seed to seed.
    {"global-heavy",
     {kCalifornia, kOhio, kQuebec},
     1,
     200,
     {0.0, 0.6, 0.0},
     1,
     0,
     Millis(800),
     Seconds(3)},
    // Verified single-replica reads beside writes. Non-read ops are split
    // evenly into local and global, i.e. 90% reads, 5% local, 5% global.
    // Interval 2 (batches) as in bench_reads, so reads find anchors.
    {"read-heavy",
     {kCalifornia, kOhio, kQuebec},
     1,
     50,
     {0.9, 0.5, 0.0},
     0,
     2,
     Millis(800),
     Seconds(3)},
};

storage::KvStore::Map SeedBalance(ClientId client) {
  return {{app::BankStateMachine::AccountKey(client), "1000"}};
}

}  // namespace

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void WindowSentinel::Arm(SimTime at) {
  SetTimer(at - Now(), sim::PackTimer(sim::TimerEngine::kHost, 1));
}

void WindowSentinel::OnTimer(std::uint64_t tag) {
  (void)tag;
  fired_ = true;
}

Deployment::Deployment(const WorkloadDef& def, std::uint64_t seed,
                       bool record_witnesses)
    : def_(def), sys_(seed, sim::LatencyModel::PaperGeoMatrix()) {
  for (RegionId region : def.regions) {
    sys_.AddZone(/*cluster=*/0, region, def.f, 3 * def.f + 1);
  }
  core::NodeConfig cfg = app::DefaultNodeConfig();
  if (def.checkpoint_interval != 0) {
    cfg.pbft.checkpoint_interval = def.checkpoint_interval;
  }
  sys_.Finalize(cfg, [](ZoneId) {
    return std::make_unique<app::BankStateMachine>();
  });

  // Registration hands out sequential ids, so every client's id (and its
  // same-zone peer list) is known before any client exists.
  const std::size_t zones = def.regions.size();
  first_client_ = static_cast<NodeId>(sim().num_processes());
  auto client_id = [&](std::size_t z, std::size_t i) {
    return static_cast<ClientId>(first_client_ + z * def.clients_per_zone + i);
  };
  for (std::size_t z = 0; z < zones; ++z) {
    for (std::size_t i = 0; i < def.clients_per_zone; ++i) {
      app::MobileClient::Config cc;
      cc.topology = &sys_.topology();
      cc.keys = &sys_.keys();
      cc.home = static_cast<ZoneId>(z);
      cc.mix = def.mix;
      cc.record_witnesses = record_witnesses;
      cc.stable_leader = cfg.sync.stable_leader;
      cc.retry_timeout = Seconds(8);
      for (std::size_t p = 0; p < def.clients_per_zone; ++p) {
        if (p != i) cc.peers.push_back(client_id(z, p));
      }
      auto client = std::make_unique<app::MobileClient>(std::move(cc));
      NodeId id = sim().Register(client.get(), def.regions[z]);
      ZCHECK(id == client_id(z, i));
      clients_.push_back(std::move(client));
    }
  }
  for (std::size_t z = 0; z < zones; ++z) {
    for (std::size_t i = 0; i < def.clients_per_zone; ++i) {
      sys_.BootstrapClient(client_id(z, i), static_cast<ZoneId>(z),
                           SeedBalance);
    }
  }
  for (auto& c : clients_) c->Start(sim().rng().NextBounded(2000));

  // Crash backups, never the initial primary (member 0).
  for (const auto& zone : sys_.topology().zones()) {
    std::size_t n = std::min(def.crashed_backups_per_zone, zone.f);
    for (std::size_t i = 0; i < n; ++i) sim().faults().Crash(zone.members[1 + i]);
  }

  sim().Register(&sentinel_, def.regions[0]);
  sentinel_.Arm(window_end() + 1);
}

CounterSnap Deployment::Snap(const CounterSet& c) {
  CounterSnap s{};
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    s[i] = c.Get(static_cast<obs::CounterId>(i));
  }
  return s;
}

void Deployment::Warmup() {
  sim().RunUntil(def_.warmup);
  for (auto& c : clients_) c->ResetStats();
  counters0_ = Snap(sim().counters());
  events0_ = sim().events_dispatched();
  const Histogram& depth =
      sim().recorder().histogram(obs::HistogramId::kSimQueueDepth);
  depth_count0_ = depth.count();
  depth_sum0_ = depth.Mean() * static_cast<double>(depth.count());
}

void Deployment::RunWindow() { sim().RunUntil(window_end()); }

WindowStats Deployment::Collect() {
  WindowStats w;
  w.measure = def_.measure;
  for (const auto& c : clients_) {
    const app::ClientStats& s = c->stats();
    w.all_latency_us.Merge(s.local_latency_us);
    w.all_latency_us.Merge(s.global_latency_us);
    w.all_latency_us.Merge(s.read_latency_us);
    w.global_latency_us.Merge(s.global_latency_us);
    w.local_ops += s.local_completed;
    w.global_ops += s.global_completed;
    w.read_ops += s.reads_completed;
    w.read_fallbacks += s.read_fallbacks;
    w.read_redirects += s.read_redirects;
    w.read_rejects += s.read_rejects;
    w.timeouts += s.timeouts;
    if (!c->idle()) ++w.in_flight_at_end;
  }
  CounterSnap now = Snap(sim().counters());
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    w.counters[i] = now[i] - counters0_[i];
  }
  // The sentinel's own dispatch (stepped runs only) is not protocol work.
  w.events = sim().events_dispatched() - events0_ - (sentinel_.fired() ? 1 : 0);
  const Histogram& depth =
      sim().recorder().histogram(obs::HistogramId::kSimQueueDepth);
  std::uint64_t n = depth.count() - depth_count0_;
  if (n > 0) {
    w.mean_queue_depth =
        (depth.Mean() * static_cast<double>(depth.count()) - depth_sum0_) /
        static_cast<double>(n);
  }
  std::size_t live = 0;
  for (const auto& node : sys_.nodes()) {
    if (sim().faults().IsCrashed(node->id())) continue;
    ++live;
    w.pbft_retained_kb += node->pbft().retention().ApproxBytes() / 1024.0;
    w.sync_retained_kb += node->sync().retention().approx_bytes / 1024.0;
    w.metadata_executed += static_cast<double>(node->metadata().executed_count());
  }
  if (live > 0) {
    w.pbft_retained_kb /= static_cast<double>(live);
    w.sync_retained_kb /= static_cast<double>(live);
    w.metadata_executed /= static_cast<double>(live);
  }
  return w;
}

std::vector<crypto::ReadWitness> Deployment::Witnesses() const {
  std::vector<crypto::ReadWitness> out;
  for (const auto& c : clients_) {
    const auto& w = c->read_witnesses();
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

storage::KvStore::Map Deployment::ZoneState() {
  for (NodeId id : sys_.topology().zone(0).members) {
    if (sys_.sim().faults().IsCrashed(id)) continue;
    return sys_.node(id)->app().Snapshot();
  }
  return {};
}

}  // namespace perfbench
