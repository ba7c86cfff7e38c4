#include "app/scripted_client.h"

#include <algorithm>
#include <utility>

#include "app/bank.h"
#include "baselines/two_level_system.h"
#include "common/hash.h"
#include "core/messages.h"
#include "core/system.h"
#include "pbft/messages.h"

namespace ziziphus::app {

namespace {

constexpr std::int64_t kXferAmount = 5;
// PUT writers cycle over this many records, so application state stays
// bounded while the op stream keeps flowing.
constexpr std::size_t kPutRecordWindow = 64;
constexpr Duration kRetryTimeout = Millis(1100);
// Payload of PUT writes and of bootstrapped data records.
const std::string& RecordPayload() {
  static const std::string payload(24, 'z');
  return payload;
}

// Timestamps start at 1, so 0 is free to tag the think-time timer.
constexpr std::uint64_t kThinkTag = 0;
// Read timers are tagged with the read nonce offset far above any write
// timestamp, so stale timers of either stream never cross-fire.
constexpr std::uint64_t kReadTagBase = std::uint64_t{1} << 32;

std::uint64_t FingerprintCounters(const CounterSet& counters) {
  Hasher h(0xf19e);
  for (const auto& [name, value] : counters.All()) {
    h.Add(name);
    h.Add(value);
  }
  return h.Finish();
}

}  // namespace

// ---- ScriptedClient ------------------------------------------------------

ScriptedClient::ScriptedClient(const crypto::KeyRegistry* keys, std::size_t f,
                               NodeId target, std::vector<NodeId> retry_group,
                               const OpScript& script,
                               std::vector<crypto::ReadWitness>* witnesses)
    : keys_(keys),
      f_(f),
      target_(target),
      retry_group_(std::move(retry_group)),
      script_(script),
      witnesses_(witnesses),
      home_(script.zone),
      remaining_(script.count) {}

bool ScriptedClient::done() const {
  return (remaining_ == 0 || Now() >= script_.stop_at) && !in_flight_ &&
         !read_in_flight_;
}

void ScriptedClient::OnMessage(const sim::MessagePtr& msg) {
  switch (msg->type()) {
    case pbft::kClientReply: {
      const auto& r = static_cast<const pbft::ClientReplyMsg&>(*msg);
      Vote(r.replica, r.timestamp, false);
      break;
    }
    case core::kMigrationDone: {
      const auto& r = static_cast<const core::MigrationReplyMsg&>(*msg);
      Vote(r.replica, r.timestamp, true);
      break;
    }
    case pbft::kReadReply:
      HandleReadReply(static_cast<const pbft::ReadReplyMsg&>(*msg));
      break;
    default:
      break;
  }
}

void ScriptedClient::OnTimer(std::uint64_t tag) {
  if (tag == kThinkTag) {
    SubmitNext();
    return;
  }
  if (tag >= kReadTagBase) {
    // A read attempt timed out (reply lost or replica crashed): count the
    // silent replica against the circuit and move on.
    if (read_in_flight_ && tag == kReadTagBase + cur_read_nonce_) {
      NextReadAttempt();
    }
    return;
  }
  if (!in_flight_ || tag != current_ts_) return;
  Multicast(retry_group_, request_);
  SetTimer(kRetryTimeout, tag);
}

void ScriptedClient::Vote(NodeId replica, RequestTimestamp ts,
                          bool migration_done) {
  if (!in_flight_ || ts != current_ts_) return;
  votes_.insert(replica);
  if (votes_.size() < f_ + 1) return;
  if (migration_done) home_ = pending_dest_;
  Complete();
}

void ScriptedClient::Complete() {
  in_flight_ = false;
  ++completed_;
  votes_.clear();
  // Every completed scripted operation mutates the client's records, so it
  // raises the session's read-your-writes watermark.
  session_.last_write_ts = current_ts_;
  if (script_.reads) {
    StartRead();
    return;
  }
  Think();
}

void ScriptedClient::Think() {
  // Paced submission: without a think gap a bounded workload completes
  // inside the first few hundred milliseconds and most of a fault window
  // hits an idle system.
  Duration pause = script_.think;
  if (script_.load != nullptr) {
    double factor = script_.load->LoadFactor(Now());
    if (factor <= 0) factor = 1.0;
    pause = std::max<Duration>(
        static_cast<Duration>(static_cast<double>(script_.think) / factor),
        Millis(5));
  }
  if (pause == 0) {
    SubmitNext();
  } else {
    SetTimer(pause, kThinkTag);
  }
}

void ScriptedClient::StartRead() {
  read_in_flight_ = true;
  read_attempts_ = 0;
  read_floor_before_ = session_.FloorFor(script_.zone);
  SendReadAttempt();
}

void ScriptedClient::SendReadAttempt() {
  cur_read_nonce_ = next_read_nonce_++;
  auto req = std::make_shared<pbft::ReadRequestMsg>();
  req->client = id();
  req->nonce = cur_read_nonce_;
  req->key = BankStateMachine::AccountKey(id());
  req->min_stable_seq = session_.FloorFor(script_.zone);
  req->min_write_ts = session_.last_write_ts;
  req->client_sig = keys_->Sign(id(), req->ComputeDigest());
  Send(retry_group_[read_rr_ % retry_group_.size()], req);
  SetTimer(kRetryTimeout, kReadTagBase + cur_read_nonce_);
}

void ScriptedClient::NextReadAttempt() {
  ++read_rr_;
  if (++read_attempts_ >= retry_group_.size()) {
    // One full circuit of the zone yielded no acceptable reply (replicas
    // behind, crashed, or lying). Abandoning is safe: only *accepting* a
    // bad reply would break the read guarantees.
    ++reads_abandoned_;
    FinishRead();
    return;
  }
  SendReadAttempt();
}

void ScriptedClient::HandleReadReply(const pbft::ReadReplyMsg& r) {
  if (!read_in_flight_ || r.nonce != cur_read_nonce_) return;
  const ZoneId zone = script_.zone;
  switch (VerifyReadReply(*keys_, retry_group_, f_, r, session_, zone)) {
    case ReadVerdict::kOk:
      session_.AdvanceFloor(zone, r.proof.anchor_seq);
      ++reads_ok_;
      scoped_counters().Inc(obs::CounterId::kReadsCertVerified);
      if (witnesses_ != nullptr) {
        witnesses_->push_back({id(), zone, r.key, r.value, r.found, r.proof,
                               read_floor_before_});
      }
      FinishRead();
      break;
    case ReadVerdict::kBehind:
      // Honest "cannot cover your session yet". The covering checkpoint
      // forms once the zone commits a few more ops, so let the armed retry
      // timer pace the next attempt instead of burning the whole circuit in
      // one round-trip burst.
      break;
    case ReadVerdict::kBadCertificate:
    case ReadVerdict::kBadInclusion:
    case ReadVerdict::kBadCoverage:
      ++reads_rejected_;
      scoped_counters().Inc(obs::CounterId::kReadsCertRejected);
      NextReadAttempt();
      break;
    case ReadVerdict::kStaleAnchor:
    case ReadVerdict::kStaleWrite:
      ++reads_rejected_;
      scoped_counters().Inc(obs::CounterId::kReadsSessionViolationsDetected);
      NextReadAttempt();
      break;
  }
}

void ScriptedClient::FinishRead() {
  read_in_flight_ = false;
  Think();
}

void ScriptedClient::SubmitNext() {
  if (remaining_ == 0 || Now() >= script_.stop_at) return;
  --remaining_;
  in_flight_ = true;
  current_ts_ = next_ts_++;
  if (script_.kind == OpScript::Kind::kMigrate) {
    core::MigrationOp op;
    op.client = id();
    op.timestamp = current_ts_;
    pending_dest_ = static_cast<ZoneId>((home_ + 1) % script_.num_zones);
    op.source = home_;
    op.destination = pending_dest_;
    auto req = std::make_shared<core::MigrationRequestMsg>();
    req->op = op;
    req->client_sig = keys_->Sign(id(), req->digest());
    request_ = req;
  } else {
    pbft::Operation op;
    op.client = id();
    op.timestamp = current_ts_;
    if (script_.kind == OpScript::Kind::kXfer) {
      op.command = "XFER " + std::to_string(script_.peer) + " " +
                   std::to_string(kXferAmount);
    } else {
      op.command = "PUT " +
                   std::to_string(completed_ % kPutRecordWindow) + " " +
                   RecordPayload();
    }
    auto req = std::make_shared<pbft::ClientRequestMsg>();
    req->op = op;
    req->client_sig = keys_->Sign(id(), req->ComputeDigest());
    request_ = req;
  }
  Send(target_, request_);
  SetTimer(kRetryTimeout, current_ts_);
}

// ---- ScriptedRun ---------------------------------------------------------

template <class System>
ScriptedClient* ScriptedRun<System>::Register(const OpScript& script,
                                              std::size_t records) {
  const ZoneId submit_to =
      script.kind == OpScript::Kind::kMigrate ? 0 : script.zone;
  clients_.push_back(std::make_unique<ScriptedClient>(
      &sys_->keys(), f_, sys_->PrimaryOf(submit_to)->id(),
      sys_->topology().zone(submit_to).members, script, &witnesses_));
  records_.push_back(records);
  ScriptedClient* c = clients_.back().get();
  sys_->sim().Register(c, static_cast<RegionId>(script.zone % 7));
  return c;
}

template <class System>
void ScriptedRun<System>::AddPairs(std::size_t pairs, const OpScript& script) {
  const ZoneId zone = script.zone;
  for (std::size_t p = 0; p < pairs; ++p) {
    ScriptedClient* a = Register(script, 0);
    ScriptedClient* b = Register(script, 0);
    a->set_peer(b->id());
    b->set_peer(a->id());
    accounts_.load_clients[zone].push_back(a->id());
    accounts_.load_clients[zone].push_back(b->id());
    accounts_.zone_load_totals[zone] += 2 * kInitialBalance;
  }
}

template <class System>
void ScriptedRun<System>::AddMigrators(std::size_t count,
                                       const OpScript& script,
                                       std::size_t records) {
  for (std::size_t m = 0; m < count; ++m) {
    OpScript s = script;
    s.kind = OpScript::Kind::kMigrate;
    s.zone = static_cast<ZoneId>(m % script.num_zones);
    Add(s, records);
  }
}

template <class System>
void ScriptedRun<System>::Add(const OpScript& script, std::size_t records) {
  accounts_.fixed_balance_clients[Register(script, records)->id()] =
      kInitialBalance;
}

template <class System>
void ScriptedRun<System>::Bootstrap() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const std::size_t records = records_[i];
    sys_->BootstrapClient(clients_[i]->id(), clients_[i]->script().zone,
                          [records](ClientId c) {
                            storage::KvStore::Map out = SeedBalance(c);
                            for (std::size_t n = 0; n < records; ++n) {
                              out[BankStateMachine::DataKey(c, n)] =
                                  RecordPayload();
                            }
                            return out;
                          });
  }
}

template <class System>
bool ScriptedRun<System>::AllDone() const {
  for (const auto& c : clients_) {
    if (!c->done()) return false;
  }
  return true;
}

template <class System>
bool ScriptedRun<System>::RunUntilDone(SimTime until, SimTime deadline) {
  for (auto& c : clients_) c->Kick();
  sys_->sim().RunUntil(until);
  while (!AllDone() && sys_->sim().Now() < deadline) {
    sys_->sim().RunFor(Seconds(1));
  }
  return AllDone();
}

template <class System>
void ScriptedRun<System>::Finish(ScriptedRunReport* report) const {
  for (const auto& c : clients_) {
    const bool global = c->script().kind == OpScript::Kind::kMigrate;
    (global ? report->global_completed : report->local_completed) +=
        c->completed();
    report->reads_ok += c->reads_ok();
    report->reads_rejected += c->reads_rejected();
    report->reads_abandoned += c->reads_abandoned();
  }
  sim::Simulation& sim = sys_->sim();
  report->end_time = sim.Now();
  report->fingerprint = FingerprintCounters(sim.counters());
  report->counters = sim.counters().All();
  report->obs_json = sim.recorder().ExportJson();
}

template class ScriptedRun<core::ZiziphusSystem>;
template class ScriptedRun<baselines::TwoLevelSystem>;

std::vector<sim::InvariantViolation> CheckBankInvariants(
    core::ZiziphusSystem& sys, ScriptedRun<core::ZiziphusSystem>& run,
    std::set<NodeId> byzantine) {
  sim::InvariantChecker::Options iopt;
  iopt.byzantine = std::move(byzantine);
  iopt.accounts = std::move(run.accounts());
  iopt.read_witnesses = std::move(run.witnesses());
  iopt.balance_of = [](const core::ZoneStateMachine& app, ClientId c) {
    return static_cast<const BankStateMachine&>(app).BalanceOf(c);
  };
  iopt.total_balance = [](const core::ZoneStateMachine& app) {
    return static_cast<const BankStateMachine&>(app).TotalBalance();
  };
  return sim::InvariantChecker(std::move(iopt)).Check(sys);
}

}  // namespace ziziphus::app
