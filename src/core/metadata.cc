#include "core/metadata.h"

namespace ziziphus::core {

void GlobalMetadata::RegisterClient(ClientId client, ZoneId home) {
  if (const ZoneId* prev = home_.find(client)) clients_per_zone_[*prev]--;
  home_[client] = home;
  clients_per_zone_[home]++;
}

Status GlobalMetadata::ValidateMigration(const MigrationOp& op) const {
  if (op.client == kInvalidClient || !ClientTableHolds(op.client) ||
      op.source == kInvalidZone || op.destination == kInvalidZone) {
    return Status::InvalidArgument("malformed migration op");
  }
  if (op.source == op.destination) {
    return Status::InvalidArgument("source equals destination");
  }
  const std::uint32_t* migrations = migrations_.find(op.client);
  if (migrations != nullptr &&
      *migrations >= policy_.max_migrations_per_client) {
    return Status::PermissionDenied("migration quota exhausted");
  }
  auto cit = clients_per_zone_.find(op.destination);
  if (cit != clients_per_zone_.end() &&
      cit->second >= policy_.max_clients_per_zone) {
    return Status::PermissionDenied("destination zone full");
  }
  return Status::Ok();
}

std::string GlobalMetadata::Execute(const MigrationOp& op) {
  if (!executed_.insert({op.client, op.timestamp}).second) {
    return "dup";
  }
  Status s = ValidateMigration(op);
  if (!s.ok()) return "rejected:" + s.ToString();
  const ZoneId* home = home_.find(op.client);
  ZoneId prev = home != nullptr ? *home : op.source;
  if (clients_per_zone_[prev] > 0) clients_per_zone_[prev]--;
  clients_per_zone_[op.destination]++;
  home_[op.client] = op.destination;
  migrations_[op.client]++;
  return "ok";
}

ZoneId GlobalMetadata::HomeOf(ClientId client) const {
  const ZoneId* home = home_.find(client);
  return home == nullptr ? kInvalidZone : *home;
}

std::uint64_t GlobalMetadata::ClientsInZone(ZoneId zone) const {
  auto it = clients_per_zone_.find(zone);
  return it == clients_per_zone_.end() ? 0 : it->second;
}

std::uint32_t GlobalMetadata::MigrationsOf(ClientId client) const {
  const std::uint32_t* migrations = migrations_.find(client);
  return migrations == nullptr ? 0 : *migrations;
}

std::uint64_t GlobalMetadata::StateDigest() const {
  std::uint64_t d = 0;
  for (const auto& [zone, count] : clients_per_zone_) {
    if (count > 0) d += Hasher(0x51).Add(zone).Add(count).Finish();
  }
  for (const auto& [client, count] : migrations_) {
    if (count > 0) d += Hasher(0x52).Add(client).Add(count).Finish();
  }
  for (const auto& [client, home] : home_) {
    d += Hasher(0x53).Add(client).Add(home).Finish();
  }
  return d;
}

}  // namespace ziziphus::core
