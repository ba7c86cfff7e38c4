#ifndef ZIZIPHUS_CORE_ENDORSEMENT_H_
#define ZIZIPHUS_CORE_ENDORSEMENT_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/costs.h"
#include "core/messages.h"
#include "core/topology.h"
#include "crypto/certificate.h"
#include "sim/transport.h"

namespace ziziphus::core {

/// Identifies one endorsement instance: a (global request, phase) pair.
struct EndorseKey {
  std::uint64_t request_id = 0;
  EndorsePhase phase = EndorsePhase::kPropose;

  friend bool operator==(const EndorseKey&, const EndorseKey&) = default;

  struct Hash {
    std::size_t operator()(const EndorseKey& k) const {
      return HashCombine(k.request_id, static_cast<std::uint64_t>(k.phase));
    }
  };
};

/// Runs intra-zone endorsement consensus: the zone primary pre-prepares a
/// top-level message's content digest; nodes optionally run a prepare round
/// (full PBFT — used where the ballot is being *assigned*, Alg. 1 lines
/// 6-15), then multicast signature votes; 2f+1 matching votes form the
/// certificate attached to the outgoing top-level message.
///
/// Votes are multicast to the whole zone, so every node — primary, proxies
/// (Section VI), and the append finalizers of Alg. 2 — can assemble the
/// certificate locally.
class ZoneEndorser {
 public:
  struct Callbacks {
    /// Validates the payload (top-level message checks, ballot checks) and
    /// applies voting-time side effects (e.g., lock(c)=FALSE in the source
    /// zone). Return false to refuse to vote.
    std::function<bool(const EndorsePrePrepareMsg&)> validate;
    /// Fires exactly once per key at every node once the certificate is
    /// complete locally.
    std::function<void(const EndorseKey&, const EndorsePrePrepareMsg&,
                       const crypto::Certificate&)>
        on_quorum;
  };

  ZoneEndorser(sim::Transport* transport, const crypto::KeyRegistry* keys,
               const ZoneInfo* zone, NodeCosts costs, Callbacks callbacks);

  ViewId view() const { return view_; }
  NodeId primary() const {
    return zone_->members[view_ % zone_->members.size()];
  }
  bool IsPrimary() const { return primary() == transport_->self(); }

  /// Installs a new view; clears in-flight endorsements from older views
  /// (the new primary re-initiates pending work).
  void OnViewChange(ViewId view);

  /// Primary API: starts endorsing `content_digest`. `full_prepare` selects
  /// three-phase (pre-prepare/prepare/vote) vs two-phase (pre-prepare/vote).
  void Start(EndorsePhase phase, std::uint64_t request_id, Ballot ballot,
             Ballot prev, crypto::Digest content_digest,
             sim::MessagePtr payload, const MigrationOp& op,
             std::vector<MigrationOp> ops, storage::KvStore::Map records,
             bool full_prepare);

  /// Routes endorsement messages; returns true if consumed.
  bool HandleMessage(const sim::MessagePtr& msg);

  /// True once this node has observed a quorum for the key.
  bool IsDone(const EndorseKey& key) const;

  /// The pre-prepare observed for a key (nullptr if none yet).
  const EndorsePrePrepareMsg* PrePrepareFor(const EndorseKey& key) const;

  /// The completed certificate for a key (nullptr until IsDone).
  const crypto::Certificate* CertFor(const EndorseKey& key) const;

  /// Endorsement instances held, finished ones included. Nothing trims
  /// finished instances (the data-sync engine re-reads CertFor on retries),
  /// so this grows with every endorsed global request, each instance
  /// keeping its pre-prepare (payload, ops, migration records) alive.
  std::size_t retained_states() const { return states_.size(); }

 private:
  struct State {
    std::shared_ptr<const EndorsePrePrepareMsg> pre_prepare;
    std::set<NodeId> prepares;
    bool voted = false;
    crypto::CertificateBuilder builder;
    /// Votes that arrived before the pre-prepare fixed the digest.
    std::vector<std::pair<crypto::Signature, crypto::Digest>> early_votes;
    bool done = false;
    /// Trace spans (0 when untraced): the endorsement round as seen by this
    /// node (pre-prepare accepted -> certificate complete) and the
    /// certificate assembly (own vote cast -> certificate complete).
    obs::SpanId round_span = 0;
    obs::SpanId build_span = 0;
  };

  bool IsMember(NodeId n) const;
  void HandlePrePrepare(const std::shared_ptr<const EndorsePrePrepareMsg>& m);
  void HandlePrepare(const std::shared_ptr<const EndorsePrepareMsg>& m);
  void HandleVote(const std::shared_ptr<const EndorseVoteMsg>& m);
  void CastVote(const EndorseKey& key, State& st);
  void MulticastPrepare(const EndorsePrePrepareMsg& m);
  void MaybeFinish(const EndorseKey& key, State& st);

  sim::Transport* transport_;
  const crypto::KeyRegistry* keys_;
  const ZoneInfo* zone_;
  NodeCosts costs_;
  Callbacks callbacks_;
  ViewId view_ = 0;
  // Probed per message; iterated only by OnViewChange's order-free erase.
  std::unordered_map<EndorseKey, State, EndorseKey::Hash> states_;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_ENDORSEMENT_H_
