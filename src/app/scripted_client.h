#ifndef ZIZIPHUS_APP_SCRIPTED_CLIENT_H_
#define ZIZIPHUS_APP_SCRIPTED_CLIENT_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/workload.h"
#include "common/types.h"
#include "crypto/read_certificate.h"
#include "sim/invariants.h"
#include "sim/simulation.h"
#include "sim/soak.h"

namespace ziziphus::core {
class ZiziphusSystem;
}  // namespace ziziphus::core

namespace ziziphus::app {

/// What one ScriptedClient submits and how it paces itself, as a plain
/// value: an op kind, a bound, and a think pause.
struct OpScript {
  enum class Kind {
    kXfer,     // XFER of a fixed amount to `peer` (conserves the pair)
    kPut,      // PUT cycling over the client's first 64 data records
    kMigrate,  // zone hops home -> home+1 -> ... (mod `num_zones`)
  };
  Kind kind = Kind::kXfer;
  /// Home zone: where the account is bootstrapped and reads are served,
  /// and the first migration's source.
  ZoneId zone = 0;
  ClientId peer = kInvalidClient;
  std::size_t num_zones = 1;
  /// Submission stops after `count` ops or once `stop_at` has passed,
  /// whichever comes first.
  std::size_t count = std::numeric_limits<std::size_t>::max();
  SimTime stop_at = kSimTimeMax;
  /// Pause after each completed op. Without `load` it is fixed, and 0
  /// submits the next op at once; with `load` it is `think` divided by the
  /// schedule's LoadFactor, never below 5 ms.
  Duration think = 0;
  const sim::SoakSchedule* load = nullptr;
  /// Chase each completed op with one verified fast-path read of the
  /// client's own account.
  bool reads = false;
};

/// The paper's client model (Section V-A) for scripted runs: one
/// outstanding request, multicast to the retry group on timeout, f+1
/// matching replies (or MIGRATION-DONE votes) to complete. Optional reads
/// are deterministic and bounded: next zone replica round-robin, no rng,
/// abandoned after one circuit of the zone without an acceptable reply.
class ScriptedClient : public sim::Process {
 public:
  ScriptedClient(const crypto::KeyRegistry* keys, std::size_t f,
                 NodeId target, std::vector<NodeId> retry_group,
                 const OpScript& script,
                 std::vector<crypto::ReadWitness>* witnesses);

  void set_peer(ClientId peer) { script_.peer = peer; }
  const OpScript& script() const { return script_; }

  void Kick() { SubmitNext(); }

  /// Nothing left to submit and nothing in flight.
  bool done() const;
  std::uint64_t completed() const { return completed_; }
  std::uint64_t reads_ok() const { return reads_ok_; }
  std::uint64_t reads_rejected() const { return reads_rejected_; }
  std::uint64_t reads_abandoned() const { return reads_abandoned_; }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override;
  void OnTimer(std::uint64_t tag) override;

 private:
  void Vote(NodeId replica, RequestTimestamp ts, bool migration_done);
  void Complete();
  void Think();
  void StartRead();
  void SendReadAttempt();
  void NextReadAttempt();
  void HandleReadReply(const pbft::ReadReplyMsg& r);
  void FinishRead();
  void SubmitNext();

  const crypto::KeyRegistry* keys_;
  std::size_t f_;
  NodeId target_;
  std::vector<NodeId> retry_group_;
  OpScript script_;
  std::vector<crypto::ReadWitness>* witnesses_;

  ZoneId home_;
  ZoneId pending_dest_ = 0;
  std::size_t remaining_;
  bool in_flight_ = false;
  RequestTimestamp current_ts_ = 0;
  RequestTimestamp next_ts_ = 1;
  sim::MessagePtr request_;
  std::set<NodeId> votes_;
  std::uint64_t completed_ = 0;

  Session session_;
  bool read_in_flight_ = false;
  std::size_t read_attempts_ = 0;
  std::size_t read_rr_ = 0;
  SeqNum read_floor_before_ = 0;
  RequestTimestamp cur_read_nonce_ = 0;
  RequestTimestamp next_read_nonce_ = 1;
  std::uint64_t reads_ok_ = 0;
  std::uint64_t reads_rejected_ = 0;
  std::uint64_t reads_abandoned_ = 0;
};

/// Report fields every scripted run fills.
struct ScriptedRunReport {
  std::vector<sim::InvariantViolation> violations;
  std::uint64_t local_completed = 0;
  std::uint64_t global_completed = 0;
  /// Fast-path reads: verified accepts, replies rejected by certificate,
  /// inclusion or session checks, and reads abandoned after trying every
  /// zone replica. Abandoning is legal (reads are best-effort under
  /// faults); accepting a bad reply is not, and read-validity catches it.
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_rejected = 0;
  std::uint64_t reads_abandoned = 0;
  std::uint64_t events = 0;
  SimTime end_time = 0;
  /// Hash over the run's full counter set: two runs of one seed must
  /// produce identical fingerprints (determinism regression probe).
  std::uint64_t fingerprint = 0;
  /// Final snapshot of the simulation's counters ("faults.crashes",
  /// "byz.equivocations_emitted", "pbft.new_views_entered", ...).
  std::map<std::string, std::uint64_t> counters;
  /// Full Recorder::ExportJson of the run ("ziziphus.obs.v1"). Two runs of
  /// one seed must produce byte-identical exports on either event queue;
  /// the golden tables pin its digest.
  std::string obs_json;
};

/// The run skeleton the chaos, soak and rejoin drivers share: registers
/// scripted clients on a `System` (core::ZiziphusSystem or
/// baselines::TwoLevelSystem), keeps the balance-conservation bookkeeping,
/// bootstraps every account, runs until the clients are done, and fills
/// the common report fields.
template <class System>
class ScriptedRun {
 public:
  ScriptedRun(System* sys, std::size_t f) : sys_(sys), f_(f) {}

  /// `pairs` XFER pairs homed in `script.zone`, each client transferring
  /// to the other; their accounts are the zone's conserved load accounts.
  void AddPairs(std::size_t pairs, const OpScript& script);
  /// `count` migrators, the m-th homed in zone m % `script.num_zones`, each
  /// bootstrapped with `records` data records.
  void AddMigrators(std::size_t count, const OpScript& script,
                    std::size_t records = 0);
  /// One client homed in `script.zone` whose balance must stay fixed.
  /// Migrations are submitted to the leader zone 0, everything else to the
  /// home zone.
  void Add(const OpScript& script, std::size_t records = 0);

  /// Seeds every account (and its data records) in its home zone, in
  /// registration order.
  void Bootstrap();
  /// Kicks every client, runs to `until`, then in 1 s steps until every
  /// client is done or `deadline` passes. Returns whether all are done.
  bool RunUntilDone(SimTime until, SimTime deadline);
  /// Fills the completed counts, read outcomes, end time, fingerprint,
  /// counters and obs_json.
  void Finish(ScriptedRunReport* report) const;

  sim::InvariantChecker::Accounts& accounts() { return accounts_; }
  std::vector<crypto::ReadWitness>& witnesses() { return witnesses_; }
  const std::vector<std::unique_ptr<ScriptedClient>>& clients() const {
    return clients_;
  }

 private:
  ScriptedClient* Register(const OpScript& script, std::size_t records);
  bool AllDone() const;

  System* sys_;
  std::size_t f_;
  std::vector<std::unique_ptr<ScriptedClient>> clients_;
  std::vector<std::size_t> records_;  // per client, bootstrap data records
  sim::InvariantChecker::Accounts accounts_;
  // Every fast-path read an honest client accepts lands here and is
  // re-verified by the read-validity invariant after the run.
  std::vector<crypto::ReadWitness> witnesses_;
};

/// Sweeps the InvariantChecker over a Ziziphus deployment running the bank
/// workload of `run`, handing it the run's accounts and read witnesses
/// (moved out, so call it once, after the run).
std::vector<sim::InvariantViolation> CheckBankInvariants(
    core::ZiziphusSystem& sys, ScriptedRun<core::ZiziphusSystem>& run,
    std::set<NodeId> byzantine = {});

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_SCRIPTED_CLIENT_H_
