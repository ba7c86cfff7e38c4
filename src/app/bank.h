#ifndef ZIZIPHUS_APP_BANK_H_
#define ZIZIPHUS_APP_BANK_H_

#include <cstdint>
#include <string>

#include "core/zone_app.h"
#include "storage/kv_store.h"

namespace ziziphus::app {

/// The paper's evaluation application: "a simple banking application ...
/// where the client data is stored in a key-value store replicated on the
/// nodes in each zone. Each client initiates local transactions to transfer
/// money from its account to another client's account within the same
/// zone."
///
/// Commands (whitespace-separated):
///   OPEN <amount>        — open the issuing client's account
///   DEP <amount>         — deposit into the issuing client's account
///   XFER <to> <amount>   — transfer from the issuing client to client <to>
///   XZFER <to> <amount>  — cross-zone transfer (Section IV-B3 extension):
///                          executed at both involved zones, each applying
///                          the half it holds (debit where the sender's
///                          account lives, credit where the receiver's
///                          does). Overdraft is not re-validated across
///                          zones — a demo of the cross-zone machinery,
///                          not a full distributed-validation protocol.
///   PUT <n> <value>      — write the issuing client's n-th data record
///                          (arbitrary payload owned by the client; rides
///                          along in migrations, so clients can carry
///                          arbitrarily large state between zones)
///   GET <n>              — read the issuing client's n-th data record
///   BAL                  — read the issuing client's balance
class BankStateMachine : public core::ZoneStateMachine {
 public:
  std::string Apply(const pbft::Operation& op) override;
  std::uint64_t StateDigest() const override { return store_.StateDigest(); }
  storage::KvStore::Map Snapshot() const override { return store_.Snapshot(); }
  void Restore(const storage::KvStore::Map& snapshot) override {
    store_.Restore(snapshot);
  }

  storage::KvStore::Map ClientRecords(ClientId client) const override;
  void InstallClientRecords(ClientId client,
                            const storage::KvStore::Map& records) override;
  void EvictClientRecords(ClientId client) override;

  /// Direct account access for tests and bootstrap.
  void OpenAccount(ClientId client, std::int64_t balance);
  std::int64_t BalanceOf(ClientId client) const;
  bool HasAccount(ClientId client) const;

  /// Sum of every balance in this zone's store (conservation checks).
  std::int64_t TotalBalance() const;

  static std::string AccountKey(ClientId client) {
    return "acct/" + std::to_string(client);
  }
  static std::string DataPrefix(ClientId client) {
    return "data/" + std::to_string(client) + "/";
  }
  static std::string DataKey(ClientId client, std::uint64_t n) {
    return DataPrefix(client) + std::to_string(n);
  }

  /// Number of data records the client owns (tests / soak probes).
  std::size_t DataRecordCount(ClientId client) const;

 private:
  storage::KvStore store_;
};

/// Opening balance of every workload client's account.
inline constexpr std::int64_t kInitialBalance = 1000;

/// Bootstrap records of a workload client: its account at kInitialBalance.
storage::KvStore::Map SeedBalance(ClientId client);

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_BANK_H_
