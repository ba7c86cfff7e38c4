#include "core/lock_table.h"
#include "core/metadata.h"
#include "core/topology.h"
#include "gtest/gtest.h"

namespace ziziphus::core {
namespace {

MigrationOp Op(ClientId c, ZoneId src, ZoneId dst, RequestTimestamp ts) {
  MigrationOp op;
  op.client = c;
  op.source = src;
  op.destination = dst;
  op.timestamp = ts;
  return op;
}

TEST(GlobalMetadataTest, RegisterAndCounts) {
  GlobalMetadata md;
  md.RegisterClient(1, 0);
  md.RegisterClient(2, 0);
  md.RegisterClient(3, 1);
  EXPECT_EQ(md.ClientsInZone(0), 2u);
  EXPECT_EQ(md.ClientsInZone(1), 1u);
  EXPECT_EQ(md.HomeOf(1), 0u);
  EXPECT_EQ(md.HomeOf(99), kInvalidZone);
}

TEST(GlobalMetadataTest, ExecuteMovesClient) {
  GlobalMetadata md;
  md.RegisterClient(1, 0);
  EXPECT_EQ(md.Execute(Op(1, 0, 1, 5)), "ok");
  EXPECT_EQ(md.HomeOf(1), 1u);
  EXPECT_EQ(md.ClientsInZone(0), 0u);
  EXPECT_EQ(md.ClientsInZone(1), 1u);
  EXPECT_EQ(md.MigrationsOf(1), 1u);
}

TEST(GlobalMetadataTest, ExactlyOncePerTimestamp) {
  GlobalMetadata md;
  md.RegisterClient(1, 0);
  EXPECT_EQ(md.Execute(Op(1, 0, 1, 5)), "ok");
  EXPECT_EQ(md.Execute(Op(1, 0, 1, 5)), "dup");  // redelivery
  EXPECT_EQ(md.MigrationsOf(1), 1u);
  // A different timestamp is a different request.
  EXPECT_EQ(md.Execute(Op(1, 1, 2, 6)), "ok");
  EXPECT_EQ(md.MigrationsOf(1), 2u);
  EXPECT_EQ(md.executed_count(), 2u);  // two distinct (client, ts) keys
}

TEST(GlobalMetadataTest, MigrationQuotaEnforced) {
  PolicyConfig policy;
  policy.max_migrations_per_client = 2;
  GlobalMetadata md(policy);
  md.RegisterClient(1, 0);
  EXPECT_EQ(md.Execute(Op(1, 0, 1, 1)), "ok");
  EXPECT_EQ(md.Execute(Op(1, 1, 2, 2)), "ok");
  std::string third = md.Execute(Op(1, 2, 0, 3));
  EXPECT_EQ(third.rfind("rejected", 0), 0u) << third;
  EXPECT_EQ(md.HomeOf(1), 2u);
}

TEST(GlobalMetadataTest, ZoneCapacityEnforced) {
  PolicyConfig policy;
  policy.max_clients_per_zone = 1;
  GlobalMetadata md(policy);
  md.RegisterClient(1, 0);
  md.RegisterClient(2, 1);
  std::string res = md.Execute(Op(1, 0, 1, 1));
  EXPECT_EQ(res.rfind("rejected", 0), 0u) << res;
  EXPECT_EQ(md.HomeOf(1), 0u);
  // Zone 2 has room.
  EXPECT_EQ(md.Execute(Op(1, 0, 2, 2)), "ok");
}

TEST(GlobalMetadataTest, ValidateRejectsMalformed) {
  GlobalMetadata md;
  EXPECT_FALSE(md.ValidateMigration(Op(kInvalidClient, 0, 1, 1)).ok());
  EXPECT_FALSE(md.ValidateMigration(Op(1, 0, 0, 1)).ok());
  EXPECT_FALSE(md.ValidateMigration(Op(1, kInvalidZone, 1, 1)).ok());
  // An id beyond the dense client tables is malformed too, and executing
  // it is a policy rejection, not an abort.
  const ClientId bogus = kMaxTableClientId + 1;
  EXPECT_FALSE(md.ValidateMigration(Op(bogus, 0, 1, 1)).ok());
  EXPECT_EQ(md.Execute(Op(bogus, 0, 1, 1)).rfind("rejected", 0), 0u);
  EXPECT_EQ(md.HomeOf(bogus), kInvalidZone);
}

TEST(GlobalMetadataTest, DigestTracksState) {
  GlobalMetadata a, b;
  a.RegisterClient(1, 0);
  b.RegisterClient(1, 0);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  a.Execute(Op(1, 0, 1, 1));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Execute(Op(1, 0, 1, 1));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(MigrationOpTest, RequestIdStableAndDistinct) {
  MigrationOp a = Op(1, 0, 1, 5);
  MigrationOp b = Op(1, 2, 0, 5);  // same client+ts: same request
  MigrationOp c = Op(1, 0, 1, 6);
  EXPECT_EQ(a.RequestId(), b.RequestId());
  EXPECT_NE(a.RequestId(), c.RequestId());
  EXPECT_TRUE(a.IsMigration());
  a.command = "DEP 1";
  EXPECT_FALSE(a.IsMigration());
}

TEST(LockTableTest, Lifecycle) {
  LockTable locks;
  EXPECT_FALSE(locks.IsLocked(7));
  EXPECT_FALSE(locks.Knows(7));
  locks.SetLocked(7, true);
  EXPECT_TRUE(locks.IsLocked(7));
  locks.SetLocked(7, false);
  EXPECT_FALSE(locks.IsLocked(7));
  EXPECT_TRUE(locks.Knows(7));  // still tracked, just frozen
}

TEST(TopologyTest, ZonesClustersAndLookups) {
  Topology topo;
  topo.AddZone(/*cluster=*/0, /*region=*/0, /*f=*/1, {0, 1, 2, 3});
  topo.AddZone(0, 1, 1, {4, 5, 6, 7});
  topo.AddZone(1, 2, 1, {8, 9, 10, 11});
  EXPECT_EQ(topo.num_zones(), 3u);
  EXPECT_EQ(topo.num_clusters(), 2u);
  EXPECT_EQ(topo.ZoneOf(5), 1u);
  EXPECT_TRUE(topo.IsReplica(5));
  EXPECT_FALSE(topo.IsReplica(99));
  EXPECT_EQ(topo.ZonesInCluster(0).size(), 2u);
  EXPECT_EQ(topo.ZoneMajority(0), 2u);
  EXPECT_EQ(topo.ZoneMajority(1), 1u);
  EXPECT_EQ(topo.AllNodesInCluster(0).size(), 8u);
  EXPECT_EQ(topo.AllNodes().size(), 12u);
  EXPECT_EQ(topo.zone(2).quorum(), 3u);
}

TEST(TopologyTest, WitnessZoneAllowed) {
  Topology topo;
  topo.AddZone(0, 0, /*f=*/0, {0});  // single-node f=0 witness
  EXPECT_EQ(topo.zone(0).quorum(), 1u);
}

}  // namespace
}  // namespace ziziphus::core
