#include "app/bank.h"

#include <charconv>
#include <sstream>
#include <vector>

namespace ziziphus::app {

namespace {
std::vector<std::string> Tokenize(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

bool ParseInt(const std::string& s, std::int64_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}
}  // namespace

std::string BankStateMachine::Apply(const pbft::Operation& op) {
  std::vector<std::string> tok = Tokenize(op.command);
  if (tok.empty()) return "err:empty";
  const std::string& verb = tok[0];

  if (verb == "OPEN" && tok.size() == 2) {
    std::int64_t amount = 0;
    if (!ParseInt(tok[1], &amount) || amount < 0) return "err:amount";
    store_.Put(AccountKey(op.client), std::to_string(amount));
    return "ok";
  }
  if (verb == "DEP" && tok.size() == 2) {
    std::int64_t amount = 0;
    if (!ParseInt(tok[1], &amount) || amount < 0) return "err:amount";
    auto cur = store_.Get(AccountKey(op.client));
    if (!cur) return "err:noacct";
    std::int64_t bal = 0;
    ParseInt(*cur, &bal);
    store_.Put(AccountKey(op.client), std::to_string(bal + amount));
    return "ok";
  }
  if (verb == "XFER" && tok.size() == 3) {
    std::int64_t to = 0, amount = 0;
    if (!ParseInt(tok[1], &to) || !ParseInt(tok[2], &amount) || amount < 0) {
      return "err:args";
    }
    auto from_bal = store_.Get(AccountKey(op.client));
    auto to_bal = store_.Get(AccountKey(static_cast<ClientId>(to)));
    if (!from_bal || !to_bal) return "err:noacct";
    std::int64_t fb = 0, tb = 0;
    ParseInt(*from_bal, &fb);
    ParseInt(*to_bal, &tb);
    if (fb < amount) return "err:funds";
    store_.Put(AccountKey(op.client), std::to_string(fb - amount));
    store_.Put(AccountKey(static_cast<ClientId>(to)),
               std::to_string(tb + amount));
    return "ok";
  }
  if (verb == "XZFER" && tok.size() == 3) {
    std::int64_t to = 0, amount = 0;
    if (!ParseInt(tok[1], &to) || !ParseInt(tok[2], &amount) || amount < 0) {
      return "err:args";
    }
    std::string applied;
    auto from_bal = store_.Get(AccountKey(op.client));
    if (from_bal) {
      std::int64_t fb = 0;
      ParseInt(*from_bal, &fb);
      store_.Put(AccountKey(op.client), std::to_string(fb - amount));
      applied += "debit ";
    }
    auto to_bal = store_.Get(AccountKey(static_cast<ClientId>(to)));
    if (to_bal) {
      std::int64_t tb = 0;
      ParseInt(*to_bal, &tb);
      store_.Put(AccountKey(static_cast<ClientId>(to)),
                 std::to_string(tb + amount));
      applied += "credit";
    }
    return applied.empty() ? "noop" : "ok:" + applied;
  }
  if (verb == "PUT" && tok.size() == 3) {
    std::int64_t idx = 0;
    if (!ParseInt(tok[1], &idx) || idx < 0) return "err:args";
    store_.Put(DataKey(op.client, static_cast<std::uint64_t>(idx)), tok[2]);
    return "ok";
  }
  if (verb == "GET" && tok.size() == 2) {
    std::int64_t idx = 0;
    if (!ParseInt(tok[1], &idx) || idx < 0) return "err:args";
    auto cur = store_.Get(DataKey(op.client, static_cast<std::uint64_t>(idx)));
    return cur ? *cur : "err:nokey";
  }
  if (verb == "BAL" && tok.size() == 1) {
    auto cur = store_.Get(AccountKey(op.client));
    return cur ? *cur : "err:noacct";
  }
  return "err:verb";
}

storage::KvStore::Map BankStateMachine::ClientRecords(ClientId client) const {
  storage::KvStore::Map out;
  auto bal = store_.Get(AccountKey(client));
  if (bal) out[AccountKey(client)] = *bal;
  const std::string prefix = DataPrefix(client);
  for (auto it = store_.contents().lower_bound(prefix);
       it != store_.contents().end() && it->first.rfind(prefix, 0) == 0;
       ++it) {
    out[it->first] = it->second;
  }
  return out;
}

void BankStateMachine::InstallClientRecords(
    ClientId client, const storage::KvStore::Map& records) {
  (void)client;
  for (const auto& [k, v] : records) store_.Put(k, v);
}

void BankStateMachine::EvictClientRecords(ClientId client) {
  store_.Delete(AccountKey(client));
  const std::string prefix = DataPrefix(client);
  std::vector<std::string> doomed;
  for (auto it = store_.contents().lower_bound(prefix);
       it != store_.contents().end() && it->first.rfind(prefix, 0) == 0;
       ++it) {
    doomed.push_back(it->first);
  }
  for (const std::string& k : doomed) store_.Delete(k);
}

std::size_t BankStateMachine::DataRecordCount(ClientId client) const {
  const std::string prefix = DataPrefix(client);
  std::size_t n = 0;
  for (auto it = store_.contents().lower_bound(prefix);
       it != store_.contents().end() && it->first.rfind(prefix, 0) == 0;
       ++it) {
    ++n;
  }
  return n;
}

void BankStateMachine::OpenAccount(ClientId client, std::int64_t balance) {
  store_.Put(AccountKey(client), std::to_string(balance));
}

std::int64_t BankStateMachine::BalanceOf(ClientId client) const {
  auto bal = store_.Get(AccountKey(client));
  if (!bal) return -1;
  std::int64_t out = 0;
  ParseInt(*bal, &out);
  return out;
}

bool BankStateMachine::HasAccount(ClientId client) const {
  return store_.Contains(AccountKey(client));
}

std::int64_t BankStateMachine::TotalBalance() const {
  std::int64_t total = 0;
  for (const auto& [k, v] : store_.contents()) {
    std::int64_t bal = 0;
    if (k.rfind("acct/", 0) == 0 && ParseInt(v, &bal)) total += bal;
  }
  return total;
}

storage::KvStore::Map SeedBalance(ClientId client) {
  return {{BankStateMachine::AccountKey(client),
           std::to_string(kInitialBalance)}};
}

}  // namespace ziziphus::app
