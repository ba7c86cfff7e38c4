#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/client_table.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "gtest/gtest.h"

namespace ziziphus {
namespace {

TEST(BallotTest, Ordering) {
  Ballot a{1, 0}, b{1, 1}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (Ballot{1, 0}));
  EXPECT_NE(a, b);
  EXPECT_LT(kNullBallot, a);
}

TEST(BallotTest, ToString) {
  EXPECT_EQ(ToString(Ballot{7, 3}), "<7,z3>");
  EXPECT_EQ(ToString(kNullBallot), "<null>");
}

TEST(BallotTest, HashDistinct) {
  std::unordered_set<std::size_t> hashes;
  std::hash<Ballot> h;
  for (std::uint64_t n = 0; n < 100; ++n) {
    for (ZoneId z = 0; z < 10; ++z) {
      hashes.insert(h(Ballot{n, z}));
    }
  }
  EXPECT_GT(hashes.size(), 990u);  // near-perfect distinctness
}

TEST(DurationTest, Conversions) {
  EXPECT_EQ(Millis(3), 3000u);
  EXPECT_EQ(Seconds(2), 2000000u);
  EXPECT_DOUBLE_EQ(ToMillis(1500), 1.5);
  EXPECT_DOUBLE_EQ(ToSeconds(2500000), 2.5);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidCertificate("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidCertificate);
  EXPECT_EQ(s.ToString(), "INVALID_CERTIFICATE: bad");
}

TEST(StatusTest, StatusOr) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = Status::NotFound("x");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
    std::uint64_t v = r.NextRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng r(11);
  EXPECT_FALSE(r.NextBool(0.0));
  EXPECT_TRUE(r.NextBool(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.NextBool(0.3);
  EXPECT_NEAR(heads, 3000, 300);
}

TEST(RngTest, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += r.NextExponential(50.0);
  EXPECT_NEAR(sum / 20000, 50.0, 3.0);
}

TEST(RngTest, ForkIndependentOfConsumption) {
  Rng a(55);
  Rng fork_before = a.Fork(1);
  a.Next();
  a.Next();
  Rng fork_after = a.Fork(1);
  EXPECT_EQ(fork_before.Next(), fork_after.Next());
}

TEST(HashTest, Fnv1aKnownProperties) {
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64(""), 0u);
}

TEST(HashTest, Mix64Bijective) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 1000; ++i) out.insert(Mix64(i));
  EXPECT_EQ(out.size(), 1000u);
}

TEST(HashTest, HasherOrderSensitive) {
  std::uint64_t ab = Hasher().Add(1).Add(2).Finish();
  std::uint64_t ba = Hasher().Add(2).Add(1).Finish();
  EXPECT_NE(ab, ba);
}

TEST(HashTest, HasherStringsAndInts) {
  std::uint64_t a = Hasher().Add("x").Add(7).Finish();
  std::uint64_t b = Hasher().Add("x").Add(7).Finish();
  std::uint64_t c = Hasher().Add("y").Add(7).Finish();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.Record(v * 10);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 505.0);
  EXPECT_NEAR(h.Quantile(0.5), 505, 120);
  EXPECT_NEAR(h.Quantile(0.99), 990, 150);
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a, b;
  a.Record(100);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 200.0);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.Mean(), 0.0);
}

TEST(HistogramTest, EmptyQuantiles) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0u);
}

TEST(CounterSetTest, IncAndGet) {
  CounterSet c;
  c.Inc(obs::CounterId::kNetMsgsSent);
  c.Inc(obs::CounterId::kNetMsgsSent, 4);
  EXPECT_EQ(c.Get(obs::CounterId::kNetMsgsSent), 5u);
  EXPECT_EQ(c.Get(obs::CounterId::kNetMsgsDropped), 0u);
  c.Reset();
  EXPECT_EQ(c.Get(obs::CounterId::kNetMsgsSent), 0u);
}

TEST(CounterSetTest, ParentRollupAndAll) {
  CounterSet root, child;
  child.set_parent(&root);
  child.Inc(obs::CounterId::kNetMsgsSent, 2);
  EXPECT_EQ(root.Get(obs::CounterId::kNetMsgsSent), 2u);
  auto all = child.All();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.at("net.msgs_sent"), 2u);
}

// ---- ClientTable --------------------------------------------------------

template <typename V>
std::vector<std::pair<ClientId, V>> Entries(const ClientTable<V>& t) {
  std::vector<std::pair<ClientId, V>> out;
  for (const auto& [id, v] : t) out.emplace_back(id, v);
  return out;
}

template <typename V>
std::vector<std::pair<ClientId, V>> Entries(const std::map<ClientId, V>& m) {
  return {m.begin(), m.end()};
}

TEST(ClientTableTest, MatchesOrderedMapOnRandomInserts) {
  Rng rng(2024);
  ClientTable<std::uint64_t> table;
  std::map<ClientId, std::uint64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    // Mostly small dense ids, some repeats, and the invalid-client slot.
    ClientId id = rng.NextBool(0.05)
                      ? kInvalidClient
                      : static_cast<ClientId>(rng.NextBounded(700));
    std::uint64_t v = rng.Next();
    if (rng.NextBool(0.3)) {
      table[id];  // default insert, value untouched if present
      ref[id];
    } else {
      table[id] = v;
      ref[id] = v;
    }
  }
  EXPECT_EQ(table.size(), ref.size());
  EXPECT_EQ(Entries(table), Entries(ref));
  EXPECT_EQ(table.ToMap(), ref);
  for (ClientId id = 0; id < 800; ++id) {
    const std::uint64_t* v = table.find(id);
    auto it = ref.find(id);
    ASSERT_EQ(v != nullptr, it != ref.end()) << id;
    if (v != nullptr) {
      EXPECT_EQ(*v, it->second);
    }
  }
}

TEST(ClientTableTest, InvalidClientSlotIteratesLast) {
  ClientTable<int> table;
  table[kInvalidClient] = 1;
  table[5] = 2;
  table[0] = 3;
  std::vector<std::pair<ClientId, int>> want = {
      {0, 3}, {5, 2}, {kInvalidClient, 1}};
  EXPECT_EQ(Entries(table), want);
  ASSERT_NE(table.find(kInvalidClient), nullptr);
  EXPECT_EQ(*table.find(kInvalidClient), 1);
}

TEST(ClientTableTest, FindNeverGrowsTheTable) {
  ClientTable<int> table;
  EXPECT_EQ(table.find(3), nullptr);
  EXPECT_EQ(table.find(kInvalidClient), nullptr);
  EXPECT_EQ(table.find(kMaxTableClientId + 1), nullptr);  // beyond
  EXPECT_EQ(table.find(0x7fffffffu), nullptr);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.begin(), table.end());
  table[2] = 7;
  EXPECT_EQ(table.find(1), nullptr);  // a hole below a present id
  EXPECT_EQ(table.find(9), nullptr);  // past the dense end
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(Entries(table), (std::vector<std::pair<ClientId, int>>{{2, 7}}));
}

TEST(ClientTableTest, ClearResetsSize) {
  ClientTable<int> table;
  table[1] = 1;
  table[kInvalidClient] = 2;
  ASSERT_EQ(table.size(), 2u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_EQ(table.find(kInvalidClient), nullptr);
  EXPECT_EQ(table.begin(), table.end());
  table[4] = 5;
  EXPECT_EQ(table.size(), 1u);
}

TEST(ClientTableTest, CopiesAreIndependent) {
  ClientTable<int> a;
  a[1] = 1;
  ClientTable<int> b = a;
  b[2] = 2;
  a = b;
  a[1] = 9;
  using Want = std::vector<std::pair<ClientId, int>>;
  EXPECT_EQ(Entries(a), (Want{{1, 9}, {2, 2}}));
  EXPECT_EQ(Entries(b), (Want{{1, 1}, {2, 2}}));
  b[kInvalidClient] = 3;
  ClientTable<int> c = std::move(b);
  EXPECT_EQ(c.size(), 3u);
  // A moved-from table is empty, not merely valid.
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.find(kInvalidClient), nullptr);
}

TEST(ClientTableTest, HoldsScreensIds) {
  EXPECT_TRUE(ClientTableHolds(0));
  EXPECT_TRUE(ClientTableHolds(kMaxTableClientId));
  EXPECT_TRUE(ClientTableHolds(kInvalidClient));
  EXPECT_FALSE(ClientTableHolds(kMaxTableClientId + 1));
  EXPECT_FALSE(ClientTableHolds(kInvalidClient - 1));
}

TEST(ClientTableDeathTest, AbsurdIdDies) {
  ClientTable<int> table;
  EXPECT_DEATH(table[kInvalidClient - 1] = 1, "ZCHECK failed");
  EXPECT_DEATH(table[kMaxTableClientId + 1] = 1, "ZCHECK failed");
}

}  // namespace
}  // namespace ziziphus
