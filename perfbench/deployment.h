// One benchmark deployment: a Ziziphus system on the paper's geo latency
// matrix, closed-loop mobile clients, and a measurement window. Built only
// from the program's public APIs (core::ZiziphusSystem, app::MobileClient,
// app::BankStateMachine, sim::Simulation, obs::Recorder).
#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "app/client.h"
#include "app/workload.h"
#include "common/metrics.h"
#include "core/system.h"
#include "obs/metric_ids.h"
#include "sim/latency_model.h"

namespace perfbench {

using namespace ziziphus;

/// A named workload: deployment shape, client mix and window lengths.
struct WorkloadDef {
  std::string_view name;
  std::vector<RegionId> regions;  // one zone per entry
  std::size_t f = 1;
  std::size_t clients_per_zone = 0;
  app::WorkloadMix mix;
  std::size_t crashed_backups_per_zone = 0;
  /// PBFT checkpoint interval in batches; 0 keeps DefaultNodeConfig's.
  std::uint64_t checkpoint_interval = 0;
  Duration warmup = 0;
  Duration measure = 0;
};

/// The benchmark's workloads by name, or nullptr.
const WorkloadDef* FindWorkload(std::string_view name);

/// Counter totals at one instant; a window reports the difference.
using CounterSnap = std::array<std::uint64_t, obs::kNumCounters>;

/// Everything the window produced that is a pure function of the seed.
struct WindowStats {
  Duration measure = 0;
  std::uint64_t local_ops = 0;
  std::uint64_t global_ops = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t read_fallbacks = 0;
  std::uint64_t read_redirects = 0;
  std::uint64_t read_rejects = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t in_flight_at_end = 0;
  std::uint64_t events = 0;
  Histogram all_latency_us;
  Histogram global_latency_us;
  CounterSnap counters{};  // window deltas
  double mean_queue_depth = 0;
  // Retained protocol state at window end, mean per live replica.
  double pbft_retained_kb = 0;
  double sync_retained_kb = 0;
  double metadata_executed = 0;

  std::uint64_t ops() const { return local_ops + global_ops + read_ops; }
  std::uint64_t counter(obs::CounterId id) const {
    return counters[static_cast<std::size_t>(id)];
  }
};

/// Fires once at a fixed simulated time. Registered last, so it shifts no
/// replica or client id; armed one microsecond after the window end, so
/// stepping until it fires dispatches exactly the events RunUntil(end)
/// would.
class WindowSentinel : public sim::Process {
 public:
  void Arm(SimTime at);
  bool fired() const { return fired_; }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override { (void)msg; }
  void OnTimer(std::uint64_t tag) override;

 private:
  bool fired_ = false;
};

class Deployment {
 public:
  /// Builds the system and clients and starts the closed loop (nothing is
  /// dispatched yet). `record_witnesses` keeps every accepted fast-path
  /// read for the read-validity invariant (memory-heavy).
  Deployment(const WorkloadDef& def, std::uint64_t seed,
             bool record_witnesses);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Runs the warmup and opens the measurement window.
  void Warmup();
  /// Runs the whole window with Simulation::RunUntil.
  void RunWindow();
  /// Closes the window after the caller stepped the simulation past it.
  WindowStats Collect();

  sim::Simulation& sim() { return sys_.sim(); }
  core::ZiziphusSystem& system() { return sys_; }
  const WindowSentinel& sentinel() const { return sentinel_; }
  SimTime window_end() const { return def_.warmup + def_.measure; }
  /// Client processes are registered after every replica.
  bool IsClient(NodeId id) const { return id >= first_client_; }
  /// Every accepted fast-path read (only with record_witnesses).
  std::vector<crypto::ReadWitness> Witnesses() const;
  /// The application state of zone 0's first live replica.
  storage::KvStore::Map ZoneState();

 private:
  static CounterSnap Snap(const CounterSet& c);

  const WorkloadDef& def_;
  core::ZiziphusSystem sys_;
  std::vector<std::unique_ptr<app::MobileClient>> clients_;
  WindowSentinel sentinel_;
  NodeId first_client_ = 0;
  CounterSnap counters0_{};
  std::uint64_t events0_ = 0;
  std::uint64_t depth_count0_ = 0;
  double depth_sum0_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
