// Pluggable-ordering consensus suite: the fault-adaptive timeout pure
// functions, the optimistic fast path (unanimous FastVotes committing in
// one round) with its certified fallback to the classic prepare/commit
// rounds, rotating primaries riding the view-change machinery, the
// fast-path adversaries (equivocating voter, vote withholder), and the
// cross-strategy differential: every ordering must converge the same
// scripted chaos workload to the same application state, deterministically
// and byte-identically on both event-queue implementations.

#include <optional>
#include <tuple>

#include "app/chaos.h"
#include "gtest/gtest.h"
#include "pbft/ordering.h"
#include "sim/byzantine.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::ChaosOptions;
using app::ChaosReport;
using pbft::Ordering;
using testutil::PbftCluster;

// ------------------------------------------------------- ordering parsing

TEST(OrderingTest, NamesRoundTripThroughParse) {
  for (Ordering o :
       {Ordering::kStable, Ordering::kRotating, Ordering::kFastPath}) {
    auto parsed = pbft::ParseOrdering(pbft::OrderingName(o));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, o);
  }
  EXPECT_FALSE(pbft::ParseOrdering("raft").has_value());
  EXPECT_FALSE(pbft::ParseOrdering("").has_value());
}

TEST(OrderingTest, StrategyFactoryMatchesKind) {
  for (Ordering o :
       {Ordering::kStable, Ordering::kRotating, Ordering::kFastPath}) {
    auto s = pbft::OrderingStrategy::Make(o);
    EXPECT_EQ(s->kind(), o);
    EXPECT_EQ(s->use_fast_votes(), o == Ordering::kFastPath);
  }
}

TEST(OrderingTest, RotationFiresEveryConfiguredCheckpoint) {
  pbft::PbftConfig cfg;
  cfg.rotation_checkpoints = 2;
  auto rot = pbft::OrderingStrategy::Make(Ordering::kRotating);
  EXPECT_FALSE(rot->RotateAt(1, cfg));
  EXPECT_TRUE(rot->RotateAt(2, cfg));
  EXPECT_FALSE(rot->RotateAt(3, cfg));
  EXPECT_TRUE(rot->RotateAt(4, cfg));
  cfg.rotation_checkpoints = 0;  // disabled
  EXPECT_FALSE(rot->RotateAt(2, cfg));
  auto stable = pbft::OrderingStrategy::Make(Ordering::kStable);
  EXPECT_FALSE(stable->RotateAt(2, cfg));
}

// ------------------------------------------------------ adaptive timeouts

TEST(AdaptiveTimeoutTest, EwmaSeedsOnFirstSampleThenSmooths) {
  pbft::CommitLatencyEwma ewma;
  EXPECT_EQ(ewma.value(), 0u);
  EXPECT_FALSE(ewma.seeded());
  ewma.Observe(8000);
  EXPECT_EQ(ewma.value(), 8000u);  // first sample seeds, no averaging
  ewma.Observe(16000);
  EXPECT_EQ(ewma.value(), 8000u + (16000u - 8000u) / 8);
  // Converges toward a sustained shift instead of jumping to it.
  for (int i = 0; i < 64; ++i) ewma.Observe(16000);
  EXPECT_GT(ewma.value(), 15000u);
  EXPECT_LE(ewma.value(), 16000u);
}

TEST(AdaptiveTimeoutTest, EwmaPullsDownOnSamplesBelowTheAverage) {
  // Duration is unsigned: a sample below the running average must move the
  // average down, not wrap the subtraction around to ~2^64 (which the
  // clamp in the timeout functions then pins to the cap — every abandon
  // timer jumps to the full request timeout and the pipeline crawls).
  pbft::CommitLatencyEwma ewma;
  ewma.Observe(8000);
  ewma.Observe(800);
  EXPECT_EQ(ewma.value(), 8000u - (8000u - 800u) / 8);
  for (int i = 0; i < 64; ++i) ewma.Observe(800);
  EXPECT_GE(ewma.value(), 800u);
  EXPECT_LT(ewma.value(), 1000u);
}

TEST(AdaptiveTimeoutTest, EwmaTracksSubAlphaDrifts) {
  // Fixed-point regression: with a plain integer ewma, a persistent +4us
  // drift truncates to a zero update (4 / 8 == 0) and the average stays
  // pinned below real latency forever, keeping the adaptive timers a
  // notch too tight. The scaled accumulator must converge onto the
  // drifted value instead.
  pbft::CommitLatencyEwma ewma;
  ewma.Observe(8000);
  for (int i = 0; i < 64; ++i) ewma.Observe(8004);
  EXPECT_EQ(ewma.value(), 8004u);
}

TEST(AdaptiveTimeoutTest, ProgressTimeoutClampsAndJittersDeterministically) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(600);
  cfg.adaptive_timeout_multiplier = 8;

  // Unseeded EWMA falls back to the fixed timeout, no jitter.
  EXPECT_EQ(pbft::AdaptiveProgressTimeout(cfg, 0, 1, 0),
            cfg.request_timeout_us);

  // A tiny EWMA clamps up to the floor (request_timeout/4); jitter adds at
  // most 1/8 of the clamped base on top.
  const Duration floor = cfg.request_timeout_us / 4;
  Duration lo = pbft::AdaptiveProgressTimeout(cfg, 1, 1, 0);
  EXPECT_GE(lo, floor);
  EXPECT_LE(lo, floor + floor / 8);

  // A huge EWMA clamps down to the cap (2x request_timeout by default).
  const Duration cap = cfg.request_timeout_us * 2;
  Duration hi = pbft::AdaptiveProgressTimeout(cfg, Seconds(60), 1, 0);
  EXPECT_GE(hi, cap);
  EXPECT_LE(hi, cap + cap / 8);

  // An explicit cap wins over the default.
  cfg.adaptive_timeout_cap_us = Millis(700);
  Duration capped = pbft::AdaptiveProgressTimeout(cfg, Seconds(60), 1, 0);
  EXPECT_GE(capped, Millis(700));
  EXPECT_LE(capped, Millis(700) + Millis(700) / 8);

  // Same (replica, view) -> same jitter; the timers are reproducible.
  cfg.adaptive_timeout_cap_us = 0;
  EXPECT_EQ(pbft::AdaptiveProgressTimeout(cfg, 20000, 3, 7),
            pbft::AdaptiveProgressTimeout(cfg, 20000, 3, 7));
}

TEST(AdaptiveTimeoutTest, FastAbandonStaysBetweenBatchAndRequestTimeout) {
  pbft::PbftConfig cfg;
  cfg.batch_timeout_us = Millis(2);
  cfg.request_timeout_us = Millis(600);

  // Unseeded: the round-trip-scale cold timeout (plus bounded jitter) —
  // NOT a fraction of the request timeout, which can be geo-scale (the
  // experiment harness runs zones with a 3 s request timeout; waiting
  // 1.5 s for one withheld intra-zone vote would stall the pipeline).
  Duration unseeded = pbft::FastPathAbandonTimeout(cfg, 0, 1, 1);
  EXPECT_GE(unseeded, pbft::kFastAbandonColdUs);
  EXPECT_LE(unseeded, pbft::kFastAbandonColdUs + pbft::kFastAbandonColdUs / 8);

  // Tracks 4x the EWMA but never dips below the batch window...
  Duration lo = pbft::FastPathAbandonTimeout(cfg, 10, 1, 1);
  EXPECT_GE(lo, cfg.batch_timeout_us);
  EXPECT_LE(lo, cfg.batch_timeout_us + cfg.batch_timeout_us / 8);

  // ...and never exceeds the full request timeout.
  Duration hi = pbft::FastPathAbandonTimeout(cfg, Seconds(10), 1, 1);
  EXPECT_GE(hi, cfg.request_timeout_us);
  EXPECT_LE(hi,
            cfg.request_timeout_us + cfg.request_timeout_us / 8);

  EXPECT_EQ(pbft::FastPathAbandonTimeout(cfg, 20000, 2, 5),
            pbft::FastPathAbandonTimeout(cfg, 20000, 2, 5));
}

// ----------------------------------------------------------- fast path

pbft::PbftConfig FastPathConfig() {
  pbft::PbftConfig base;
  base.ordering = Ordering::kFastPath;
  base.adaptive_timeouts = true;
  return base;
}

TEST(FastPathTest, UnanimousZoneCommitsOnFastVotes) {
  PbftCluster c(4, 1, /*seed=*/1, /*one_way_us=*/1000, FastPathConfig());
  c.client->SubmitLocalSequence(c.members[0], 20, "op");
  c.sim.RunFor(Seconds(5));
  EXPECT_EQ(c.client->completed(), 20u);
  // Every slot commits on the fast path; the classic rounds never fire and
  // no replica ever suspects the primary.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastCommits), 4u);
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftFastFallbacks), 0u);
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 0u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
  // The commit-latency EWMA actually observed the run.
  EXPECT_GT(c.engine(0).commit_latency_ewma(), 0u);
}

TEST(FastPathTest, WithholderDegradesToFallbackWithoutViewChanges) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteWithholdingBehavior byz(&c.sim, c.members[3]);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 8, "op");
  c.sim.RunFor(Seconds(15));
  EXPECT_EQ(c.client->completed(), 8u);
  EXPECT_GE(byz.suppressed(), 1u);
  // Unanimity is unreachable: every slot abandons to the classic rounds,
  // which commit on 3 of 4 votes.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastFallbacks), 1u);
  // Demand-amplification guard: the fallback itself must not escalate into
  // view changes — the primary is honest and making (slower) progress.
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 0u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, SustainedFallbacksSuppressFastArmingAtClassicCost) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteWithholdingBehavior byz(&c.sim, c.members[3]);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 40, "op");
  c.sim.RunFor(Seconds(40));
  EXPECT_EQ(c.client->completed(), 40u);
  // The fallback streak trips after fast_disable_after slots; from then on
  // only the thin re-probe schedule pays the abandon wait, and the bulk of
  // the run votes a classic Prepare immediately — degraded mode runs at
  // classic PBFT cost instead of one abandon timeout per slot.
  std::uint64_t suppressed =
      c.sim.counters().Get(obs::CounterId::kPbftFastSuppressed);
  std::uint64_t fallbacks =
      c.sim.counters().Get(obs::CounterId::kPbftFastFallbacks);
  EXPECT_GE(suppressed, 1u);
  EXPECT_GE(suppressed, fallbacks);
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 0u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, ProbeReenablesFastPathAfterWithholderHeals) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteWithholdingBehavior byz(&c.sim, c.members[3]);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 24, "op");
  c.sim.RunFor(Seconds(30));
  ASSERT_EQ(c.client->completed(), 24u);
  std::uint64_t fast_before =
      c.sim.counters().Get(obs::CounterId::kPbftFastCommits);
  // The withholder heals. The suppression is not permanent: the next
  // seq-keyed probe slot reaches unanimity, resets the streak, and the
  // remaining slots ride the fast path again.
  byz.Detach();
  c.client->SubmitLocalSequence(c.members[0], 40, "heal");
  c.sim.RunFor(Seconds(40));
  EXPECT_EQ(c.client->completed(), 64u);
  EXPECT_GT(c.sim.counters().Get(obs::CounterId::kPbftFastCommits),
            fast_before);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, EquivocatingVoterTripsConflictDetection) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteEquivocatingBehavior byz(&c.sim, c.members[2], &c.keys);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 8, "op");
  c.sim.RunFor(Seconds(15));
  EXPECT_EQ(c.client->completed(), 8u);
  EXPECT_GE(byz.equivocations(), 1u);
  // Odd-id victims see two digests from one replica, mark the slot
  // conflicted and fall back; the forged digest never reaches a quorum.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastConflicts), 1u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, FastCertificatesMatchCommittedDigests) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  c.client->SubmitLocalSequence(c.members[0], 6, "op");
  c.sim.RunFor(Seconds(5));
  ASSERT_EQ(c.client->completed(), 6u);
  // Every fast certificate a replica holds must agree with the committed
  // batch digest recorded by its peers (the chaos invariant, inline).
  for (int i = 0; i < 4; ++i) {
    for (const auto& [seq, digest] : c.engine(i).fast_certified()) {
      for (int j = 0; j < 4; ++j) {
        std::optional<storage::LogEntry> entry =
            c.engine(j).commit_log().Find(seq);
        if (!entry.has_value()) continue;
        EXPECT_EQ(entry->digest, digest)
            << "replica " << i << " fast-certified seq " << seq
            << " against a different digest than replica " << j;
      }
    }
  }
}

TEST(FastPathTest, ViewChangeReproposesFastCommittedSlot) {
  // The Zyzzyva view-change pitfall: the primary collects all 3f+1 fast
  // votes and commits seq 1 while the other replicas — partitioned from
  // each other, each holding only its own vote plus the primary's — never
  // assemble a 2f+1 prepare quorum. The view change that follows must
  // recover the committed digest from the fast votes carried in the
  // view-change messages (>= f+1 of the quorum report it); no-op-filling
  // the slot would diverge the zone from the state the primary executed.
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  // Votes flow only replica <-> primary: cut the links among 1, 2, 3.
  for (int i = 1; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      c.sim.faults().Partition(c.members[i], c.members[j]);
    }
  }
  c.client->SubmitLocal(c.members[0], "fast-committed");
  c.sim.RunFor(Millis(100));
  auto at_primary = c.engine(0).commit_log().Find(1);
  ASSERT_TRUE(at_primary.has_value());  // only the primary fast-committed
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastCommits), 1u);
  for (int i = 1; i < 4; ++i) {
    ASSERT_FALSE(c.engine(i).commit_log().Find(1).has_value());
  }
  // Isolate the fast-committed primary and let the rest regroup: progress
  // timeouts (one fallback grace cycle, then escalation) drive a view
  // change among 1, 2, 3.
  for (int i = 1; i < 4; ++i) {
    c.sim.faults().Partition(c.members[0], c.members[i]);
    for (int j = i + 1; j < 4; ++j) {
      c.sim.faults().Heal(c.members[i], c.members[j]);
    }
  }
  c.sim.RunFor(Seconds(20));
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 1u);
  // The new view reproposed the committed batch: same digest at seq 1
  // everywhere, same application state as the isolated fast-committer.
  for (int i = 1; i < 4; ++i) {
    auto entry = c.engine(i).commit_log().Find(1);
    ASSERT_TRUE(entry.has_value()) << "replica " << i;
    EXPECT_EQ(entry->digest, at_primary->digest) << "replica " << i;
    EXPECT_EQ(c.app(i).StateDigest(), c.app(0).StateDigest())
        << "replica " << i;
  }
}

// ----------------------------------------------------------- rotation

TEST(RotatingTest, PrimaryRotatesAtCheckpointsAndKeepsCommitting) {
  pbft::PbftConfig base;
  base.ordering = Ordering::kRotating;
  base.adaptive_timeouts = true;
  base.checkpoint_interval = 4;
  base.rotation_checkpoints = 1;
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->EnableRetry(c.members, Millis(400));
  c.client->SubmitLocalSequence(c.members[0], 30, "op");
  c.sim.RunFor(Seconds(20));
  EXPECT_EQ(c.client->completed(), 30u);
  // ~30 sequential slots at interval 4 crosses several checkpoints; each
  // hands the primary role to the next replica via a planned view change.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftRotations), 2u);
  EXPECT_GE(c.engine(1).view(), 2u);
  EXPECT_TRUE(c.engine(1).view_active());
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

// ------------------------------------------- cross-strategy differential

ChaosReport RunWithOrdering(std::uint64_t seed, Ordering o) {
  ChaosOptions opt;
  opt.seed = seed;
  opt.ordering = o;
  return app::RunZiziphusChaos(opt);
}

TEST(ConsensusDifferentialTest, AllStrategiesConvergeToTheSameState) {
  // One scripted chaos workload, three orderings: commit order and
  // batching differ, but every strategy must execute the same client
  // operations and land every zone on the same application state.
  for (std::uint64_t seed : {5u, 9u}) {
    ChaosReport stable = RunWithOrdering(seed, Ordering::kStable);
    ChaosReport rotating = RunWithOrdering(seed, Ordering::kRotating);
    ChaosReport fast = RunWithOrdering(seed, Ordering::kFastPath);
    ASSERT_TRUE(stable.ok()) << "seed " << seed << ": " << stable.Summary();
    ASSERT_TRUE(rotating.ok())
        << "seed " << seed << ": " << rotating.Summary();
    ASSERT_TRUE(fast.ok()) << "seed " << seed << ": " << fast.Summary();
    EXPECT_EQ(stable.final_state_digests.size(), 3u);
    EXPECT_EQ(stable.final_state_digests, rotating.final_state_digests)
        << "seed " << seed << ": rotating diverged from stable";
    EXPECT_EQ(stable.final_state_digests, fast.final_state_digests)
        << "seed " << seed << ": fast-path diverged from stable";
  }
}

TEST(ConsensusDifferentialTest, EachStrategyIsDeterministicPerSeed) {
  for (Ordering o :
       {Ordering::kStable, Ordering::kRotating, Ordering::kFastPath}) {
    ChaosReport a = RunWithOrdering(17, o);
    ChaosReport b = RunWithOrdering(17, o);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << pbft::OrderingName(o);
    EXPECT_EQ(a.counters, b.counters) << pbft::OrderingName(o);
    EXPECT_EQ(a.obs_json, b.obs_json) << pbft::OrderingName(o);
  }
}

// --------------------------------------------------------- chaos sweeps

class ConsensusChaosSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Ordering>> {
};

// Per ordering, seed -> {fingerprint, obs_json digest}; see
// testutil::RunGolden.
const std::map<std::uint64_t, testutil::RunGolden> kChaosRotatingGoldens = {
    {1, {0x51ac7d82123edd10ULL, 0x66f78135bf20bc0fULL}},
    {2, {0x4fba7c4700b3ea40ULL, 0x1e2ecb873de9b21dULL}},
    {3, {0xea0d797fea2af765ULL, 0xe4133406ba001413ULL}},
    {4, {0x229c0e5d33d0991dULL, 0xd67f1f54cb69bdd6ULL}},
    {5, {0x6cc1dafd8f370c15ULL, 0xb708aa0212f6d8c7ULL}},
    {6, {0x7f95c6b7477a3862ULL, 0x4a479ef3f2974b4cULL}},
    {7, {0x684e0af4fd373134ULL, 0x7c80a066351419ffULL}},
    {8, {0x94bd57475b971a88ULL, 0xa39aa04c0a3af5d6ULL}},
    {9, {0xd458c4a5911eaf10ULL, 0x60cf1b059a0595c4ULL}},
    {10, {0x90cf0e0e84355112ULL, 0x00a2528598d17ac5ULL}},
    {11, {0x1e0b8057d6ffcde0ULL, 0x0f23d786e242ea06ULL}},
    {12, {0xa28779696c2c733cULL, 0x29ea89f7b47c3947ULL}},
    {13, {0x9937d17aa437a295ULL, 0xb6cb24581e04c0bcULL}},
    {14, {0xfba0e740996bc47aULL, 0x5e7598cdd7d24f39ULL}},
    {15, {0x602d73ab0375c77cULL, 0x6f0f4ff4c4d8e9dcULL}},
    {16, {0x8d04ff846077a37cULL, 0xe400cc6a83063c2dULL}},
    {17, {0xa41e4778fde4b532ULL, 0xd5026755dac87606ULL}},
    {18, {0x40c65d1581211ac9ULL, 0xad70432da3d7682aULL}},
    {19, {0xe2b4846924976e6fULL, 0xa633584c20e18ebaULL}},
    {20, {0x261c74ae19a3a25aULL, 0x0a3cc5453e1f8be3ULL}},
    {21, {0x809552a88f0e51ebULL, 0x6a1a0d20643a218fULL}},
    {22, {0x0c750252b3d41f0dULL, 0xeaf08c94d8d175d3ULL}},
};
const std::map<std::uint64_t, testutil::RunGolden> kChaosFastPathGoldens = {
    {1, {0x89895de186fb6ca1ULL, 0xb844798ac6474e8bULL}},
    {2, {0xde9c04dea343980aULL, 0xef0b5f19e2b28b1eULL}},
    {3, {0xa663052c26066055ULL, 0x2064f37b5a65624bULL}},
    {4, {0xc359e071dc9348a1ULL, 0x70eb2b4d5edb02aaULL}},
    {5, {0x53107e98e7489525ULL, 0xc20cf480489374edULL}},
    {6, {0x6564b381cb68e53bULL, 0xf656e8c9f9e1b695ULL}},
    {7, {0xead634c61a2ece14ULL, 0x38e52fb3c82d312aULL}},
    {8, {0x55fd4e90128dd4d5ULL, 0x7b61acae64696bcaULL}},
    {9, {0xe2a8351d4d6d6b11ULL, 0x0889f0a9e1d20217ULL}},
    {10, {0x25b454ae6c757200ULL, 0x7a8af28b8a8c49f3ULL}},
    {11, {0x0ce47cf1b43861f5ULL, 0x6fcb0da7c5d30416ULL}},
    {12, {0x87174050ff74c64bULL, 0x90d27bbb407e7b8fULL}},
    {13, {0x3911a90585e8d20dULL, 0x9e02b6c0a7af11fcULL}},
    {14, {0x48218b6710ea0ac9ULL, 0x659322c040ba13f3ULL}},
    {15, {0x667abe721dc1bf05ULL, 0x9005b35ad622b8d8ULL}},
    {16, {0xb5f13157deb4465cULL, 0x2a70b58f8446db22ULL}},
    {17, {0x5dbbd6336d51550bULL, 0x406d676e7e4eea2fULL}},
    {18, {0xf60d5c92d35f37d2ULL, 0x565782f0f12898acULL}},
    {19, {0x9ca4cf4e41e0b722ULL, 0xdd90b9e75dcff009ULL}},
    {20, {0x8adda0891ae9a75eULL, 0x0ef94d1e88725b89ULL}},
    {21, {0x43acea2c5b761c1fULL, 0x43a1e7abb490d114ULL}},
    {22, {0xd1f735dccda85a0dULL, 0x463f212408db120eULL}},
};

TEST_P(ConsensusChaosSweep, HoldsInvariantsByteIdenticalOnBothQueues) {
  ChaosOptions opt;
  opt.seed = std::get<0>(GetParam());
  opt.ordering = std::get<1>(GetParam());
  ChaosReport cal = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(cal.violations.empty()) << cal.Summary();
  EXPECT_TRUE(cal.all_done) << cal.Summary();

  opt.queue = sim::EventQueueKind::kBinaryHeap;
  ChaosReport heap = app::RunZiziphusChaos(opt);
  EXPECT_EQ(cal.fingerprint, heap.fingerprint);
  EXPECT_EQ(cal.counters, heap.counters);
  EXPECT_EQ(cal.obs_json, heap.obs_json);
  EXPECT_TRUE(testutil::MatchesGolden(opt.ordering == Ordering::kRotating
                                          ? kChaosRotatingGoldens
                                          : kChaosFastPathGoldens,
                                      opt.seed, cal.fingerprint,
                                      cal.obs_json));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsensusChaosSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 23),
                       ::testing::Values(Ordering::kRotating,
                                         Ordering::kFastPath)));

class ConsensusAmnesiaSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Ordering>> {
};

// Per ordering, seed -> {fingerprint, obs_json digest}; see
// testutil::RunGolden.
const std::map<std::uint64_t, testutil::RunGolden> kAmnesiaRotatingGoldens = {
    {1, {0x4ec6dc85964ec233ULL, 0xf8dffc38be4a052eULL}},
    {2, {0x2dcfce39951a6b5fULL, 0xa60a1b233713f539ULL}},
    {3, {0x28fc9d40c7d61ca8ULL, 0xb481460216de50a1ULL}},
    {4, {0x8c6b8e5b45c19778ULL, 0x1e2605aead6080e7ULL}},
    {5, {0xa01723dea552b4bcULL, 0xfc6e190d8382972eULL}},
    {6, {0x195f9ea89dac8e74ULL, 0x87106f13f077aa35ULL}},
    {7, {0x04848625db910731ULL, 0x4018f4001102b651ULL}},
    {8, {0xdb2cda5b3c7beef1ULL, 0xf821fe6d8a33da73ULL}},
    {9, {0x964c7e4069885701ULL, 0xbb2542a2c08e1fd4ULL}},
    {10, {0x3e04b72da4909082ULL, 0xadb99d8196045523ULL}},
    {11, {0x4dd179c2676b0375ULL, 0xdd5fdfa70d826f94ULL}},
    {12, {0xd302c9a34b25faf2ULL, 0x70855334909d6281ULL}},
    {13, {0x6afb4135d11e1e59ULL, 0x3a5334296a321dcfULL}},
    {14, {0xad59048eca72ea78ULL, 0xa95040f58b42c1caULL}},
    {15, {0x4b04492a57a68dfaULL, 0x7b5b560d1097b83eULL}},
    {16, {0x441b03ec55954c88ULL, 0xed7a307e61323d95ULL}},
    {17, {0x120113369c25ce86ULL, 0xcf22ade84eaae2b2ULL}},
    {18, {0xacc5f24654c799d2ULL, 0xb2f16fb3894b0a8eULL}},
    {19, {0xce47a5e0f81f50a0ULL, 0xdc103059259bc2c8ULL}},
    {20, {0x7b0e26edc13f8568ULL, 0xa22755aadf90d550ULL}},
};
const std::map<std::uint64_t, testutil::RunGolden> kAmnesiaFastPathGoldens = {
    {1, {0x144e8547c3263af3ULL, 0x83df1d860cea810dULL}},
    {2, {0x67b27af5d908d26eULL, 0x6c8f8ca668855d77ULL}},
    {3, {0x59ff8f6b50a4b07aULL, 0xe834d851d567030aULL}},
    {4, {0xd2fe586bbbc4bddeULL, 0x060983973b5f5a04ULL}},
    {5, {0x4c3ced81d2a8aa8dULL, 0x6a841204526f060fULL}},
    {6, {0x6eb6be8be12f7e5bULL, 0x1e7e3a18ffb31ff7ULL}},
    {7, {0xd4e45f063019ade7ULL, 0xf846f9f3b6e854caULL}},
    {8, {0xa04f511d33922063ULL, 0x74bd3ab787433e0cULL}},
    {9, {0x8c3d697bf4820871ULL, 0x45c6156d3f16ad81ULL}},
    {10, {0xb9d42b4016fa964bULL, 0x7c9c272e51fede51ULL}},
    {11, {0x3da1ffa650796ceaULL, 0xe506172759b2dd1eULL}},
    {12, {0xbb59555f6dd48a05ULL, 0xad67be2455152faeULL}},
    {13, {0x3262d6a25fdedf13ULL, 0x46c76d7be48ba5acULL}},
    {14, {0xde785c28a5147f16ULL, 0x12db236123e23a82ULL}},
    {15, {0xa607066c3d303872ULL, 0x8676dbea4c20ace8ULL}},
    {16, {0x7c70a348e5895424ULL, 0x6b64b0344b76b80cULL}},
    {17, {0xef56837dd18bd651ULL, 0x634ef82f0bcb6fccULL}},
    {18, {0x467a582602d19da8ULL, 0x1ddcf6e6ac79a45cULL}},
    {19, {0xc98348c2f8f6d5dbULL, 0xba37f69914e0c572ULL}},
    {20, {0xc7f0b477aaa7fd1aULL, 0xd4416895d980d4b1ULL}},
};

TEST_P(ConsensusAmnesiaSweep, AmnesiaRejoinStaysGreenOnBothQueues) {
  ChaosOptions opt;
  opt.seed = std::get<0>(GetParam());
  opt.ordering = std::get<1>(GetParam());
  opt.amnesia_crashes = 2;
  ChaosReport cal = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(cal.violations.empty()) << cal.Summary();
  EXPECT_TRUE(cal.all_done) << cal.Summary();

  opt.queue = sim::EventQueueKind::kBinaryHeap;
  ChaosReport heap = app::RunZiziphusChaos(opt);
  EXPECT_EQ(cal.fingerprint, heap.fingerprint);
  EXPECT_EQ(cal.counters, heap.counters);
  EXPECT_EQ(cal.obs_json, heap.obs_json);
  EXPECT_TRUE(testutil::MatchesGolden(opt.ordering == Ordering::kRotating
                                          ? kAmnesiaRotatingGoldens
                                          : kAmnesiaFastPathGoldens,
                                      opt.seed, cal.fingerprint,
                                      cal.obs_json));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsensusAmnesiaSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Values(Ordering::kRotating,
                                         Ordering::kFastPath)));

class ConsensusReadsSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Ordering>> {
};

// Per ordering, seed -> {fingerprint, obs_json digest}; see
// testutil::RunGolden.
const std::map<std::uint64_t, testutil::RunGolden> kReadsRotatingGoldens = {
    {3, {0x9510e8950d9db271ULL, 0x168080a7531a659cULL}},
    {7, {0xcc756749c6ebe9d3ULL, 0xb8874ca8409c59c1ULL}},
    {11, {0x59f7dc7071930893ULL, 0xee7c4d88a1d98e76ULL}},
};
const std::map<std::uint64_t, testutil::RunGolden> kReadsFastPathGoldens = {
    {3, {0x1d7ee8ba3c237f36ULL, 0xd1472c1f5822e3c7ULL}},
    {7, {0xb16ae5261a73f618ULL, 0x3ff2d37e2b8bd3b4ULL}},
    {11, {0x92a249bdd5ba6012ULL, 0xcc6b452dca61d75aULL}},
};

TEST_P(ConsensusReadsSweep, VerifiedReadsStayGreenOnBothQueues) {
  ChaosOptions opt;
  opt.seed = std::get<0>(GetParam());
  opt.ordering = std::get<1>(GetParam());
  opt.mix.read_fraction = 1.0;  // scripted: one read per completed op
  ChaosReport cal = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(cal.ok()) << cal.Summary();
  EXPECT_GT(cal.reads_ok + cal.reads_abandoned, 0u) << "no reads issued";

  opt.queue = sim::EventQueueKind::kBinaryHeap;
  ChaosReport heap = app::RunZiziphusChaos(opt);
  EXPECT_EQ(cal.fingerprint, heap.fingerprint);
  EXPECT_EQ(cal.obs_json, heap.obs_json);
  EXPECT_TRUE(testutil::MatchesGolden(opt.ordering == Ordering::kRotating
                                          ? kReadsRotatingGoldens
                                          : kReadsFastPathGoldens,
                                      opt.seed, cal.fingerprint,
                                      cal.obs_json));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsensusReadsSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 7, 11),
                       ::testing::Values(Ordering::kRotating,
                                         Ordering::kFastPath)));

// ------------------------------------------------- adversarial options

// seed -> {fingerprint, obs_json digest}; see testutil::RunGolden.
const std::map<std::uint64_t, testutil::RunGolden> kForgeReadsGoldens = {
    {2, {0x070e451feb36dd5cULL, 0x9a6e84479c2eee20ULL}},
    {6, {0x2142d091a00fb046ULL, 0xbcf81a8625a6ccc5ULL}},
    {10, {0x4ca6a9e972bb1036ULL, 0x623474a224ea7a3fULL}},
};

TEST(ConsensusChaosTest, ForgedReadRepliesFoldIntoTheRosterSafely) {
  // byz_forge_reads flips an appended-stream coin per rostered replica, so
  // across a few seeds at least one forger must appear — and every reply
  // it forges must be caught by the clients' certificate checks.
  std::size_t forgers = 0;
  for (std::uint64_t seed : {2u, 6u, 10u}) {
    ChaosOptions opt;
    opt.seed = seed;
    opt.mix.read_fraction = 1.0;
    opt.byz_forge_reads = true;
    ChaosReport r = app::RunZiziphusChaos(opt);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.Summary();
    EXPECT_TRUE(testutil::MatchesGolden(kForgeReadsGoldens, seed,
                                        r.fingerprint, r.obs_json));
    for (const std::string& entry : r.byzantine_roster) {
      if (entry.find("forging-read-responder") != std::string::npos) {
        ++forgers;
      }
    }
  }
  EXPECT_GE(forgers, 1u);
}

// seed -> {fingerprint, obs_json digest}; see testutil::RunGolden.
const std::map<std::uint64_t, testutil::RunGolden> kLatencyFlapsGoldens = {
    {14, {0x4b03863d01720a0eULL, 0xbb515f7d2097e63cULL}},
};

TEST(ConsensusChaosTest, LatencyFlapsDoNotWedgeAdaptiveTimeouts) {
  // Flapping link latency is the pathological input for EWMA-driven
  // timers: spikes inflate the estimate, heals deflate it. The run must
  // stay green and deterministic on both queues.
  ChaosOptions opt;
  opt.seed = 14;
  opt.ordering = Ordering::kFastPath;
  opt.latency_flaps = 4;
  ChaosReport cal = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(cal.violations.empty()) << cal.Summary();
  EXPECT_TRUE(cal.all_done) << cal.Summary();
  EXPECT_TRUE(testutil::MatchesGolden(kLatencyFlapsGoldens, opt.seed,
                                      cal.fingerprint, cal.obs_json));

  opt.queue = sim::EventQueueKind::kBinaryHeap;
  ChaosReport heap = app::RunZiziphusChaos(opt);
  EXPECT_EQ(cal.fingerprint, heap.fingerprint);
  EXPECT_EQ(cal.obs_json, heap.obs_json);
}

TEST(ConsensusChaosTest, ForgeReadsOffKeepsExistingSeedsByteIdentical) {
  // The roster coin stream is appended: leaving the knob off must draw
  // nothing from it, so a default run and an explicit-off run are the same
  // run. (The cross-PR guarantee — pre-knob seeds stay byte-identical —
  // falls out of the same property.)
  ChaosOptions base;
  base.seed = 12;
  ChaosOptions off = base;
  off.byz_forge_reads = false;
  ChaosReport a = app::RunZiziphusChaos(base);
  ChaosReport b = app::RunZiziphusChaos(off);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.obs_json, b.obs_json);
}

}  // namespace
}  // namespace ziziphus
