#ifndef ZIZIPHUS_PBFT_CONFIG_H_
#define ZIZIPHUS_PBFT_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/costs.h"
#include "common/types.h"

namespace ziziphus::pbft {

/// How the zone orders requests (selected via PbftConfig::ordering and the
/// app-level --ordering=stable|rotating|fast-path flag).
///
///   kStable   — classic fixed-primary PBFT: the primary changes only when a
///               view change deposes it. The default; all timers are the
///               fixed constants below.
///   kRotating — round-robin primaries: every `rotation_checkpoints` stable
///               checkpoints the zone performs a *planned* view change, so a
///               slow or muted leader is a bounded-latency event (one
///               rotation window) instead of a view-change storm.
///   kFastPath — optimistic fast path: replicas broadcast FastVote instead
///               of Prepare and commit without a commit round when all 3f+1
///               votes match; a missing vote, conflicting vote, or abandon
///               timer falls the slot back to the classic prepare/commit
///               path (idempotent, safe mid-slot).
enum class Ordering {
  kStable = 0,
  kRotating = 1,
  kFastPath = 2,
};

/// Static configuration of one PBFT group (3f+1 replicas).
struct PbftConfig {
  /// Replica node ids; position in this vector is the replica index used for
  /// primary rotation (primary of view v is members[v % members.size()]).
  std::vector<NodeId> members;

  /// Maximum simultaneous Byzantine replicas tolerated. members.size() must
  /// be >= 3f+1.
  std::size_t f = 1;

  /// Request batching at the primary.
  std::size_t batch_max = 64;
  Duration batch_timeout_us = Millis(2);

  /// Progress timeout before suspecting the primary (local transactions; the
  /// paper notes global transactions use longer timers — the global engines
  /// configure their own).
  Duration request_timeout_us = Millis(600);

  /// Hard ceiling on the view-change retransmission backoff. The classic
  /// doubling rule alone lets a lossy zone inflate the timeout without
  /// bound; the cap bounds recovery time once the network heals. A small
  /// deterministic per-replica jitter (up to 1/8 of the backoff) is added
  /// on top to de-synchronize concurrent view changes.
  Duration view_change_backoff_cap_us = Seconds(8);

  /// State-transfer retry policy: an unanswered StateRequest is re-sent to
  /// a rotated peer after a capped, deterministically jittered backoff
  /// (PbftEngine::StateTransferBackoff); after `state_transfer_max_attempts`
  /// retries the transfer is abandoned so a later, larger target can start.
  Duration state_transfer_backoff_cap_us = Seconds(4);
  std::size_t state_transfer_max_attempts = 8;

  /// Checkpoint every this many sequence numbers.
  SeqNum checkpoint_interval = 128;

  /// High-watermark window above the last stable checkpoint.
  SeqNum watermark_window = 2048;

  /// Checkpoint-anchored retention: at every stable checkpoint, trim the
  /// commit log / WAL / prepared proofs below the low-water mark and evict
  /// reply-cache entries superseded by the checkpointed client table.
  /// Disabling keeps every log entry forever — only useful as the control
  /// arm of the soak benchmark's memory-bound experiment.
  bool trim_at_checkpoint = true;

  /// Serve delta state transfers (committed ops since the requester's
  /// anchor) when the responder still holds the needed batches; off forces
  /// every transfer onto the full-snapshot path (bench control arm).
  bool delta_state_transfer = true;

  /// Ordering strategy for this group (see enum Ordering above). kStable
  /// keeps every existing timer and message flow byte-identical.
  Ordering ordering = Ordering::kStable;

  /// kRotating: hand the primary role to the next replica every this many
  /// stable checkpoints (a planned view change per rotation window).
  std::uint64_t rotation_checkpoints = 1;

  /// Fault-adaptive timeouts: when set, the progress timer and the
  /// fast-path abandon timer derive from an EWMA of observed commit latency
  /// (clamped, deterministically jittered — see pbft/ordering.h) instead of
  /// the fixed request_timeout_us. Off by default so kStable runs keep the
  /// exact legacy schedule.
  bool adaptive_timeouts = false;

  /// Multiplier applied to the commit-latency EWMA to form the adaptive
  /// progress timeout; the result is clamped to
  /// [request_timeout_us / 4, adaptive_timeout_cap_us].
  std::uint64_t adaptive_timeout_multiplier = 8;

  /// Cap on the adaptive progress timeout. 0 = 2 * request_timeout_us.
  Duration adaptive_timeout_cap_us = 0;

  /// Fast-path hysteresis: after this many consecutive fallbacks, stop
  /// arming the optimistic round (vote a classic Prepare immediately) and
  /// only re-probe unanimity every fast_reprobe_slots sequence numbers.
  /// Without it a single crashed or withholding replica makes every slot
  /// pay the abandon wait, and the commit-latency EWMA then learns its own
  /// abandon delay — a feedback loop that ratchets the timeout to its cap.
  /// 0 disables the hysteresis (every slot arms the fast path).
  std::uint64_t fast_disable_after = 3;

  /// While the fast path is suppressed, re-arm it on sequence numbers
  /// divisible by this, so recovery is self-detecting: the first probe
  /// that reaches unanimity resets the fallback streak and re-enables the
  /// optimistic path for every following slot. seq-keyed so replicas
  /// probe the same slots without coordination.
  std::uint64_t fast_reprobe_slots = 16;

  /// CPU cost model.
  NodeCosts costs;

  std::size_t quorum() const { return 2 * f + 1; }
  std::size_t n() const { return members.size(); }
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_CONFIG_H_
