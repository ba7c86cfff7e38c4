#include "probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/random.h"
#include "crypto/merkle.h"
#include "sim/event_queue.h"

namespace perfbench {
namespace {

using namespace ziziphus;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

/// Median over kReps timings of `body`, each divided by `per`.
template <typename Body>
double MedianNs(double per, Body&& body) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    auto t0 = Clock::now();
    body();
    t.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count() /
                per);
  }
  std::sort(t.begin(), t.end());
  return t[kReps / 2];
}

/// Inter-event gap shaped like the deployment's schedule: intra-region
/// hops, a WAN tail, and protocol timers parked seconds out.
Duration HoldGap(Rng& rng) {
  std::uint64_t pick = rng.NextBounded(100);
  if (pick < 60) return rng.NextRange(200, 800);
  if (pick < 90) return rng.NextRange(30000, 150000);
  return Seconds(2) + rng.NextRange(0, Millis(500));
}

double QueueProbe(std::size_t depth, std::uint64_t seed) {
  constexpr std::uint64_t kOps = 400000;
  auto q = sim::EventQueue::Create(sim::EventQueueKind::kCalendar);
  Rng rng(seed);
  SimTime now = 0;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    q->Push(sim::SimEvent{now + HoldGap(rng), seq++, 0, nullptr, 0, 0, 0});
  }
  return MedianNs(kOps, [&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      sim::SimEvent e = q->Pop();
      now = e.time;
      q->Push(sim::SimEvent{now + HoldGap(rng), seq++, 0, nullptr, 0, 0, 0});
    }
  });
}

}  // namespace

bool RunProbes(std::size_t depth, const storage::KvStore::Map& zone_state,
               std::uint64_t seed, ProbeResults* out) {
  out->queue_ns_per_event = QueueProbe(depth, seed);

  storage::KvStore kv;
  kv.Restore(zone_state);
  std::vector<std::string> keys;
  for (const auto& [k, v] : zone_state) keys.push_back(k);
  if (keys.empty()) return false;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::size_t> order(200000);
  for (auto& i : order) i = rng.NextBounded(keys.size());

  std::size_t found = 0;
  out->kv_get_ns = MedianNs(static_cast<double>(order.size()), [&] {
    for (std::size_t i : order) found += kv.Get(keys[i]).has_value();
  });
  if (found != order.size() * kReps) return false;

  constexpr int kSnapshots = 50;
  std::size_t copied = 0;
  out->kv_snapshot_us = MedianNs(kSnapshots * 1000.0, [&] {
    for (int i = 0; i < kSnapshots; ++i) copied += kv.Snapshot().size();
  });

  constexpr int kBuilds = 20;
  crypto::Digest root = 0;
  out->merkle_build_us = MedianNs(kBuilds * 1000.0, [&] {
    for (int i = 0; i < kBuilds; ++i) root = crypto::MerkleTree(zone_state).root();
  });

  crypto::MerkleTree tree(zone_state);
  if (tree.root() != root || copied == 0) return false;
  constexpr std::size_t kProofs = 5000;
  bool ok = true;
  out->merkle_prove_verify_ns = MedianNs(kProofs, [&] {
    for (std::size_t i = 0; i < kProofs; ++i) {
      const std::string& key = keys[order[i]];
      bool present = false;
      std::string value;
      Status s = crypto::VerifyMerkleProof(tree.root(), key, tree.Prove(key),
                                           &present, &value);
      ok = ok && s.ok() && present && value == zone_state.at(key);
    }
  });
  return ok;
}

}  // namespace perfbench
