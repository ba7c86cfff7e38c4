#ifndef ZIZIPHUS_CORE_METADATA_H_
#define ZIZIPHUS_CORE_METADATA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/client_table.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"

namespace ziziphus::core {

/// Network-wide policies enforced through the global system meta-data
/// (Section II/III-B: "a zone cannot host more than 10000 clients", "a
/// client can migrate at most 10 times a year").
struct PolicyConfig {
  std::uint64_t max_clients_per_zone = 10000;
  std::uint32_t max_migrations_per_client = 1000000;
};

/// The global operation `o` executed once a global transaction commits.
/// For client migrations (the paper's common case) `command` is empty and
/// the op updates the system meta-data. When `command` is non-empty the op
/// is a generic globally-replicated application command — used by the
/// Steward baseline (every transaction is global) and by cross-zone
/// transactions (Section IV-B3).
struct MigrationOp {
  ClientId client = kInvalidClient;
  ZoneId source = kInvalidZone;
  ZoneId destination = kInvalidZone;
  RequestTimestamp timestamp = 0;
  std::string command;
  /// Cross-zone transaction (Section IV-B3): `command` executes on the
  /// *local* data of the involved zones (source and destination) only; the
  /// destination zone acts as the primary, no election, and messages go
  /// only to the involved zones.
  bool cross_zone = false;

  bool IsMigration() const { return command.empty(); }

  std::uint64_t RequestId() const {
    return Hasher(0x317).Add(client).Add(timestamp).Finish();
  }
};

/// Global (or, with zone clusters, regional) system meta-data, replicated on
/// every node of every zone in scope: client counts per zone, migration
/// counts per client, and each client's current home zone.
///
/// Execution is idempotent per (client, timestamp) so that at-least-once
/// delivery of commit messages is safe.
class GlobalMetadata {
 public:
  explicit GlobalMetadata(PolicyConfig policy = {}) : policy_(policy) {}

  /// Registers a client's initial home zone (bootstrap; not a transaction).
  void RegisterClient(ClientId client, ZoneId home);

  /// Policy check used when validating a migration request. Does not
  /// modify state.
  Status ValidateMigration(const MigrationOp& op) const;

  /// Executes the migration op. Returns the result string sent to the
  /// client ("ok" / error). Deduplicates on (client, timestamp).
  std::string Execute(const MigrationOp& op);

  ZoneId HomeOf(ClientId client) const;
  std::uint64_t ClientsInZone(ZoneId zone) const;
  std::uint32_t MigrationsOf(ClientId client) const;

  /// Order-insensitive digest over the meta-data, for cross-node equality
  /// checks in tests.
  std::uint64_t StateDigest() const;

  std::uint64_t executed_count() const { return executed_.size(); }

 private:
  struct ExecutedHash {
    std::size_t operator()(
        const std::pair<ClientId, RequestTimestamp>& k) const {
      return HashCombine(k.first, k.second);
    }
  };

  PolicyConfig policy_;
  std::unordered_map<ZoneId, std::uint64_t> clients_per_zone_;
  ClientTable<std::uint32_t> migrations_;
  ClientTable<ZoneId> home_;
  // Dedup set: only ever probed and sized, so hashed.
  std::unordered_set<std::pair<ClientId, RequestTimestamp>, ExecutedHash>
      executed_;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_METADATA_H_
