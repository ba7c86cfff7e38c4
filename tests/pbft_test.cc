#include <set>

#include "gtest/gtest.h"
#include "pbft/engine.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using testutil::PbftCluster;

TEST(PbftTest, CommitsSingleRequest) {
  PbftCluster c(4, 1);
  c.client->SubmitLocal(c.members[0], "hello");
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.client->completed(), 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.app(i).applied(), 1u) << "replica " << i;
    EXPECT_EQ(c.engine(i).last_executed(), 1u);
  }
}

TEST(PbftTest, AllReplicasReachSameState) {
  PbftCluster c(4, 1);
  c.client->SubmitLocalSequence(c.members[0], 50, "op");
  c.sim.RunFor(Seconds(5));
  EXPECT_EQ(c.client->completed(), 50u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(PbftTest, BatchingCombinesRequests) {
  // 64 concurrent clients, one request each, landing within one batch
  // window: far fewer than 64 slots get used.
  pbft::PbftConfig base;
  base.batch_max = 16;
  PbftCluster c(4, 1, /*seed=*/1, /*one_way_us=*/1000, base);
  std::vector<std::unique_ptr<testutil::TestClient>> extra;
  for (int i = 0; i < 63; ++i) {
    extra.push_back(std::make_unique<testutil::TestClient>(&c.keys, 1));
    c.sim.Register(extra.back().get(), 0);
  }
  c.client->SubmitLocal(c.members[0], "op");
  for (auto& cl : extra) cl->SubmitLocal(c.members[0], "op");
  c.sim.RunFor(Seconds(1));
  std::size_t done = c.client->completed();
  for (auto& cl : extra) done += cl->completed();
  EXPECT_EQ(done, 64u);
  EXPECT_LE(c.engine(0).last_executed(), 10u);
  EXPECT_GE(c.engine(0).last_executed(), 4u);
}

TEST(PbftTest, RequestToBackupIsRelayed) {
  PbftCluster c(4, 1);
  c.client->SubmitLocal(c.members[2], "via-backup");
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.client->completed(), 1u);
}

TEST(PbftTest, DuplicateRequestExecutesOnce) {
  PbftCluster c(4, 1);
  pbft::Operation op;
  op.client = c.client->id();
  op.timestamp = 1;
  op.command = "only-once";
  auto req = std::make_shared<pbft::ClientRequestMsg>();
  req->op = op;
  req->client_sig = c.keys.Sign(c.client->id(), req->ComputeDigest());
  c.client->Send(c.members[0], req);
  c.sim.RunFor(Millis(300));
  c.client->Send(c.members[0], req);  // replay
  c.sim.RunFor(Millis(500));
  EXPECT_EQ(c.app(0).applied(), 1u);
}

TEST(PbftTest, BadClientSignatureRejected) {
  PbftCluster c(4, 1);
  pbft::Operation op;
  op.client = c.client->id();
  op.timestamp = 1;
  op.command = "forged";
  auto req = std::make_shared<pbft::ClientRequestMsg>();
  req->op = op;
  req->client_sig = crypto::Signature{c.client->id(), 0xbad};
  c.client->Send(c.members[0], req);
  c.sim.RunFor(Millis(500));
  EXPECT_EQ(c.app(0).applied(), 0u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftBadClientSig), 1u);
}

TEST(PbftTest, ToleratesBackupCrash) {
  PbftCluster c(4, 1);
  c.sim.faults().Crash(c.members[3]);
  c.client->SubmitLocalSequence(c.members[0], 10, "op");
  c.sim.RunFor(Seconds(2));
  EXPECT_EQ(c.client->completed(), 10u);
}

TEST(PbftTest, ViewChangeOnPrimaryCrash) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(200);
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->EnableRetry(c.members, Millis(400));
  c.sim.faults().Crash(c.members[0]);  // primary of view 0
  c.client->SubmitLocal(c.members[1], "survive");
  c.sim.RunFor(Seconds(3));
  EXPECT_EQ(c.client->completed(), 1u);
  EXPECT_GE(c.engine(1).view(), 1u);
  EXPECT_TRUE(c.engine(1).view_active());
  // All live replicas executed it.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).applied(), 1u);
}

TEST(PbftTest, ProgressAfterViewChange) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(200);
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->EnableRetry(c.members, Millis(400));
  c.sim.faults().Crash(c.members[0]);
  c.client->SubmitLocal(c.members[1], "first");
  c.sim.RunFor(Seconds(3));
  ASSERT_EQ(c.client->completed(), 1u);
  // New primary (member 1) serves subsequent requests quickly.
  c.client->SubmitLocal(c.members[1], "second");
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.client->completed(), 2u);
}

TEST(PbftTest, CheckpointAdvancesStableSeq) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->SubmitLocalSequence(c.members[0], 12, "op");
  c.sim.RunFor(Seconds(3));
  ASSERT_EQ(c.client->completed(), 12u);
  EXPECT_GE(c.engine(0).stable_seq(), 4u);
  EXPECT_EQ(c.engine(0).last_stable_checkpoint().seq,
            c.engine(0).stable_seq());
  EXPECT_GE(c.engine(0).last_stable_checkpoint().certificate.size(), 3u);
}

TEST(PbftTest, CommitLogTruncatedAtCheckpoint) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->SubmitLocalSequence(c.members[0], 20, "op");
  c.sim.RunFor(Seconds(4));
  ASSERT_EQ(c.client->completed(), 20u);
  EXPECT_LT(c.engine(0).commit_log().size(), 20u);
}

TEST(PbftTest, LaggingReplicaCatchesUpViaStateTransfer) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  PbftCluster c(4, 1, 1, 1000, base);
  // Isolate replica 3 from normal traffic for a while.
  for (int i = 0; i < 3; ++i) c.sim.faults().Partition(c.members[3], c.members[i]);
  c.client->SubmitLocalSequence(c.members[0], 12, "op");
  c.sim.RunFor(Seconds(3));
  EXPECT_EQ(c.app(3).applied(), 0u);
  for (int i = 0; i < 3; ++i) c.sim.faults().Heal(c.members[3], c.members[i]);
  // More traffic triggers checkpoints the lagging replica can fetch.
  c.client->SubmitLocalSequence(c.members[0], 12, "more");
  c.sim.RunFor(Seconds(4));
  EXPECT_GE(c.engine(3).last_executed(), c.engine(0).stable_seq());
}

TEST(PbftTest, StateTransferRotatesAwayFromUnreachablePeer) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  base.request_timeout_us = Millis(200);
  PbftCluster c(4, 1, 1, 1000, base);
  for (int i = 0; i < 3; ++i) {
    c.sim.faults().Partition(c.members[3], c.members[i]);
  }
  c.client->SubmitLocalSequence(c.members[0], 12, "op");
  c.sim.RunFor(Seconds(3));
  ASSERT_EQ(c.app(3).applied(), 0u);
  for (int i = 0; i < 3; ++i) c.sim.faults().Heal(c.members[3], c.members[i]);
  // The laggard asks the lowest-id checkpoint voter (member 0) first. Its
  // requests to 0 are blackholed one-way — checkpoint votes still arrive —
  // so only the retry timer's peer rotation can complete the catch-up (the
  // pre-retry protocol sent exactly one request and wedged forever here).
  c.sim.faults().CutOneWay(c.members[3], c.members[0]);
  c.client->SubmitLocalSequence(c.members[0], 12, "more");
  c.sim.RunFor(Seconds(6));
  EXPECT_GE(c.engine(3).last_executed(), c.engine(0).stable_seq());
  EXPECT_GE(
      c.sim.counters().Get(obs::CounterId::kRecoveryStateTransferRetries), 1u);
}

TEST(StateTransferBackoffTest, DoublesUntilCapAndStaysBounded) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(100);
  cfg.state_transfer_backoff_cap_us = Millis(800);
  const Duration base = cfg.request_timeout_us;
  const Duration cap = cfg.state_transfer_backoff_cap_us;

  Duration prev = 0;
  for (std::uint64_t attempt = 0; attempt < 40; ++attempt) {
    Duration d = pbft::PbftEngine::StateTransferBackoff(cfg, attempt, 1, 1);
    // Monotone non-decreasing: doubling outruns the <= 1/8 jitter.
    EXPECT_GE(d, prev) << "attempt " << attempt;
    // Never below the request timeout, never above the cap plus its jitter.
    EXPECT_GE(d, base);
    EXPECT_LE(d, cap + cap / 8) << "attempt " << attempt;
    prev = d;
  }
  // The cap binds: a huge attempt count lands at cap (+ jitter), not at
  // base << attempts.
  Duration capped = pbft::PbftEngine::StateTransferBackoff(cfg, 63, 1, 1);
  EXPECT_GE(capped, cap);
  EXPECT_LE(capped, cap + cap / 8);
}

TEST(StateTransferBackoffTest, JitterIsDeterministicAndDesynchronizes) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(100);
  cfg.state_transfer_backoff_cap_us = Millis(800);
  // Deterministic: same (attempt, replica, seq) gives the same delay.
  EXPECT_EQ(pbft::PbftEngine::StateTransferBackoff(cfg, 2, 3, 5),
            pbft::PbftEngine::StateTransferBackoff(cfg, 2, 3, 5));
  // Replicas retrying the same transfer spread out: at least two distinct
  // delays among a group of seven.
  std::set<Duration> delays;
  for (NodeId r = 0; r < 7; ++r) {
    delays.insert(pbft::PbftEngine::StateTransferBackoff(cfg, 2, r, 5));
  }
  EXPECT_GE(delays.size(), 2u);
}

TEST(StateTransferBackoffTest, CapBelowBaseClampsToBase) {
  // A misconfigured cap smaller than the request timeout must not shrink
  // the delay below the liveness-critical base.
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(500);
  cfg.state_transfer_backoff_cap_us = Millis(100);
  const Duration base = cfg.request_timeout_us;
  for (std::uint64_t attempt : {0u, 1u, 7u}) {
    Duration d = pbft::PbftEngine::StateTransferBackoff(cfg, attempt, 0, 1);
    EXPECT_GE(d, base);
    EXPECT_LE(d, base + base / 8);
  }
}

// A transport that drives one engine by hand: messages the engine sends to
// itself are looped back on Pump(), everything else is dropped, and armed
// timers are tracked but never fire.
class ScriptedTransport : public sim::Transport {
 public:
  explicit ScriptedTransport(NodeId self) : self_(self) {}
  void set_engine(pbft::PbftEngine* engine) { engine_ = engine; }

  NodeId self() const override { return self_; }
  SimTime Now() const override { return 0; }
  void Send(NodeId dst, sim::MessagePtr msg) override {
    if (dst == self_) loopback_.push_back(std::move(msg));
  }
  void Multicast(const std::vector<NodeId>& dsts,
                 sim::MessagePtr msg) override {
    for (NodeId d : dsts) Send(d, msg);
  }
  std::uint64_t SetTimer(Duration, std::uint64_t) override {
    return ++next_timer_;
  }
  void CancelTimer(std::uint64_t) override {}
  void ChargeCpu(Duration) override {}
  CounterSet& counters() override { return counters_; }

  /// Delivers `msg` as if sent by `from`, then drains the loopback queue.
  void Deliver(NodeId from, const std::shared_ptr<sim::Message>& msg) {
    msg->set_from(from);
    engine_->HandleMessage(msg);
    while (!loopback_.empty()) {
      sim::MessagePtr m = loopback_.front();
      loopback_.erase(loopback_.begin());
      std::const_pointer_cast<sim::Message>(m)->set_from(self_);
      engine_->HandleMessage(m);
    }
  }

 private:
  NodeId self_;
  pbft::PbftEngine* engine_ = nullptr;
  std::vector<sim::MessagePtr> loopback_;
  std::uint64_t next_timer_ = 0;
  CounterSet counters_;
};

// Backup replica 1 of a 4-replica view-0 group, fed hand-built messages
// from the primary (0) and replica 2.
struct ScriptedBackup {
  ScriptedBackup() : net(/*self=*/1), engine(&net, &keys, Config(), &app) {
    net.set_engine(&engine);
  }
  static pbft::PbftConfig Config() {
    pbft::PbftConfig config;
    config.members = {0, 1, 2, 3};
    config.f = 1;
    return config;
  }

  /// The primary pre-prepares a one-op batch at `seq`; returns its digest.
  crypto::Digest PrePrepare(SeqNum seq, ClientId client) {
    auto pp = std::make_shared<pbft::PrePrepareMsg>();
    pp->seq = seq;
    pbft::Operation op;
    op.client = client;
    op.timestamp = 1;
    op.command = "op" + std::to_string(seq);
    pp->batch.ops.push_back(op);
    pp->batch_digest = pp->batch.ComputeDigest();
    pp->sig = keys.Sign(0, pp->digest());
    net.Deliver(0, pp);
    return pp->batch_digest;
  }

  /// Replica 2's prepare plus commits from 0 and 2: with this replica's own
  /// votes that is a prepare and a commit quorum.
  void Certify(SeqNum seq, crypto::Digest d) {
    auto prepare = std::make_shared<pbft::PrepareMsg>();
    prepare->seq = seq;
    prepare->batch_digest = d;
    prepare->replica = 2;
    prepare->sig = keys.Sign(2, prepare->digest());
    net.Deliver(2, prepare);
    for (NodeId from : {0u, 2u}) {
      auto commit = std::make_shared<pbft::CommitMsg>();
      commit->seq = seq;
      commit->batch_digest = d;
      commit->replica = from;
      commit->sig = keys.Sign(from, commit->digest());
      net.Deliver(from, commit);
    }
  }

  crypto::KeyRegistry keys{7};
  ScriptedTransport net;
  pbft::EchoStateMachine app;
  pbft::PbftEngine engine;
};

// After executing a slot, the suspicion timer stays armed while a later slot
// is pre-prepared but unexecuted — even with no queued requests — and is
// disarmed once that slot executes. Pins the outstanding scan in
// ExecuteReady, which starts above the execution point.
TEST(PbftTest, ProgressTimerTracksOutstandingSlotsAboveExecution) {
  ScriptedBackup b;
  crypto::Digest d1 = b.PrePrepare(1, 10);
  crypto::Digest d2 = b.PrePrepare(2, 11);
  ASSERT_TRUE(b.engine.progress_timer_armed());
  b.Certify(1, d1);
  ASSERT_EQ(b.engine.last_executed(), 1u);
  // Slot 2 is pre-prepared above the execution point and nothing is queued
  // (this backup never saw the client requests): still outstanding.
  EXPECT_TRUE(b.engine.progress_timer_armed());
  b.Certify(2, d2);
  ASSERT_EQ(b.engine.last_executed(), 2u);
  EXPECT_FALSE(b.engine.progress_timer_armed());
  EXPECT_EQ(b.app.applied(), 2u);
}

// A client id the dense client table cannot hold is refused at the request
// boundary, and skipped at execution when a Byzantine primary proposes it,
// instead of aborting the replica.
TEST(PbftTest, OutOfRangeClientIdsAreScreened) {
  const ClientId bogus = kMaxTableClientId + 1;
  {
    PbftCluster c(4, 1);
    pbft::Operation op;
    op.client = bogus;
    op.timestamp = 1;
    op.command = "forged-id";
    auto req = std::make_shared<pbft::ClientRequestMsg>();
    req->op = op;
    req->client_sig = c.keys.Sign(c.client->id(), req->ComputeDigest());
    c.client->Send(c.members[0], req);
    c.sim.RunFor(Millis(500));
    EXPECT_EQ(c.app(0).applied(), 0u);
    EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftBadClientSig), 1u);
  }
  ScriptedBackup b;
  b.Certify(1, b.PrePrepare(1, bogus));
  EXPECT_EQ(b.engine.last_executed(), 1u);
  EXPECT_EQ(b.app.applied(), 0u);
  b.Certify(2, b.PrePrepare(2, 10));
  EXPECT_EQ(b.engine.last_executed(), 2u);
  EXPECT_EQ(b.app.applied(), 1u);
}

// A Byzantine primary that sends different batches to different replicas.
class EquivocatingEngine : public pbft::PbftEngine {
 public:
  using PbftEngine::PbftEngine;

 protected:
  void EmitPrePrepare(
      const std::shared_ptr<pbft::PrePrepareMsg>& msg) override {
    // Send the honest batch to half the replicas and a doctored one (same
    // seq, different contents) to the rest.
    auto forged = std::make_shared<pbft::PrePrepareMsg>();
    forged->view = msg->view;
    forged->seq = msg->seq;
    pbft::Batch other;
    pbft::Operation evil;
    evil.client = kInvalidClient;
    evil.timestamp = 999999;
    evil.command = "EVIL";
    other.ops.push_back(evil);
    forged->batch = other;
    forged->batch_digest = other.ComputeDigest();
    forged->sig = keys_->Sign(transport_->self(), forged->digest());
    const auto& members = config_.members;
    for (std::size_t i = 0; i < members.size(); ++i) {
      transport_->Send(members[i], i % 2 == 0 ? sim::MessagePtr(msg)
                                              : sim::MessagePtr(forged));
    }
  }
};

class EquivocatingReplica : public sim::Process, public sim::Transport {
 public:
  void Init(const crypto::KeyRegistry* keys, pbft::PbftConfig config) {
    app_ = std::make_unique<pbft::EchoStateMachine>();
    engine_ = std::make_unique<EquivocatingEngine>(this, keys,
                                                   std::move(config),
                                                   app_.get());
  }
  NodeId self() const override { return id(); }
  SimTime Now() const override { return Process::Now(); }
  void Send(NodeId dst, sim::MessagePtr msg) override {
    Process::Send(dst, std::move(msg));
  }
  void Multicast(const std::vector<NodeId>& dsts,
                 sim::MessagePtr msg) override {
    Process::Multicast(dsts, std::move(msg));
  }
  std::uint64_t SetTimer(Duration delay, std::uint64_t tag) override {
    return Process::SetTimer(delay, tag);
  }
  void CancelTimer(std::uint64_t t) override { Process::CancelTimer(t); }
  void ChargeCpu(Duration cost) override { Process::ChargeCpu(cost); }
  CounterSet& counters() override { return simulation()->counters(); }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override {
    engine_->HandleMessage(msg);
  }
  void OnTimer(std::uint64_t tag) override { engine_->HandleTimer(tag); }

 private:
  std::unique_ptr<pbft::EchoStateMachine> app_;
  std::unique_ptr<EquivocatingEngine> engine_;
};

TEST(PbftByzantineTest, EquivocatingPrimaryCannotSplitState) {
  crypto::KeyRegistry keys(1 ^ 0x5eedc0deULL);
  sim::Simulation sim(1, sim::LatencyModel::Uniform(1, 1000));

  EquivocatingReplica evil;
  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> honest;
  std::vector<NodeId> members;
  members.push_back(sim.Register(&evil, 0));  // member 0 = primary = evil
  for (int i = 0; i < 3; ++i) {
    auto rep = std::make_unique<baselines::PbftReplicaProcess>();
    members.push_back(sim.Register(rep.get(), 0));
    honest.push_back(std::move(rep));
  }
  pbft::PbftConfig cfg;
  cfg.members = members;
  cfg.f = 1;
  cfg.request_timeout_us = Millis(300);
  evil.Init(&keys, cfg);
  for (auto& rep : honest) {
    rep->Init(&keys, cfg, std::make_unique<pbft::EchoStateMachine>());
  }
  testutil::TestClient client(&keys, 1);
  sim.Register(&client, 0);
  client.SubmitLocal(members[0], "target");
  sim.RunFor(Seconds(4));

  // Safety: no two honest replicas diverge.
  std::set<std::uint64_t> digests;
  for (auto& rep : honest) {
    auto& app = static_cast<pbft::EchoStateMachine&>(rep->app());
    if (app.applied() > 0) digests.insert(app.StateDigest());
  }
  EXPECT_LE(digests.size(), 1u);
  // The doctored batch never executes anywhere.
  for (auto& rep : honest) {
    auto& app = static_cast<pbft::EchoStateMachine&>(rep->app());
    EXPECT_LE(app.applied(), 1u);
  }
}

}  // namespace
}  // namespace ziziphus
