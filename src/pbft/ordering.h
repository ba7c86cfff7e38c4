#ifndef ZIZIPHUS_PBFT_ORDERING_H_
#define ZIZIPHUS_PBFT_ORDERING_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/types.h"
#include "pbft/config.h"

namespace ziziphus::pbft {

/// Canonical flag spelling of an ordering ("stable", "rotating",
/// "fast-path") and its inverse; ParseOrdering returns nullopt on anything
/// unrecognized so callers can report the bad flag value.
const char* OrderingName(Ordering o);
std::optional<Ordering> ParseOrdering(std::string_view name);

/// Exponentially weighted moving average of observed commit latency
/// (pre-prepare accept -> commit), the input signal for the fault-adaptive
/// timers. alpha = 1/8: ewma += (sample - ewma) / 8, seeded by the first
/// sample. Integer microseconds end to end, so same-seed runs stay
/// byte-identical. Kept in fixed point (accumulator = 8 * ewma) so the
/// sub-alpha residue carries between samples: with a plain integer ewma,
/// a persistent drift under 8us per sample truncates to a zero update and
/// the average stays pinned below real latency forever.
class CommitLatencyEwma {
 public:
  void Observe(Duration sample_us) {
    if (!seeded_) {
      scaled_ = static_cast<std::int64_t>(sample_us) * 8;
      seeded_ = true;
      return;
    }
    // scaled' = scaled + (sample - scaled/8) is the same recurrence as
    // ewma += (sample - ewma) / 8 scaled by 8, except the division happens
    // once (on read-back) instead of on every delta, so small deltas
    // accumulate instead of truncating to zero. Signed throughout: a
    // sample below the average must pull it down, not wrap.
    scaled_ += static_cast<std::int64_t>(sample_us) - scaled_ / 8;
  }

  /// Current estimate; 0 until the first sample (callers fall back to the
  /// configured fixed timeout while unseeded).
  Duration value() const {
    return seeded_ ? static_cast<Duration>(scaled_ / 8) : 0;
  }
  bool seeded() const { return seeded_; }

 private:
  std::int64_t scaled_ = 0;  // 8x the estimate, in microseconds.
  bool seeded_ = false;
};

/// Adaptive progress timeout (the timer whose expiry suspects the primary):
/// clamp(multiplier * ewma, request_timeout/4, cap) plus a deterministic
/// per-(replica, view) jitter of up to 1/8 of the clamped value — the same
/// shape as the PR 1 view-change/state-transfer backoffs, so the bounds are
/// unit-testable as a pure function. An unseeded EWMA (0) falls back to the
/// fixed request_timeout_us.
Duration AdaptiveProgressTimeout(const PbftConfig& config, Duration ewma_us,
                                 NodeId replica, ViewId view);

/// Fast-path abandon wait before the commit-latency EWMA has a sample. The
/// unanimity wait is one intra-zone round, so it is scaled to the message
/// round-trip regime, not the (possibly geo-scale) request_timeout_us.
inline constexpr Duration kFastAbandonColdUs = Millis(25);

/// Fast-path abandon timeout: how long a replica waits for unanimity before
/// falling the slot back to the classic prepare/commit path. Much tighter
/// than the progress timeout — clamp(4 * ewma, batch_timeout,
/// request_timeout) with per-(replica, seq) jitter; an unseeded EWMA uses
/// kFastAbandonColdUs.
Duration FastPathAbandonTimeout(const PbftConfig& config, Duration ewma_us,
                                NodeId replica, SeqNum seq);

/// Pluggable zone-ordering strategy. The engine owns one instance, built
/// from PbftConfig::ordering, and consults it at the two points where the
/// strategies diverge: which vote message the replica broadcasts on
/// accepting a pre-prepare, and whether crossing a stable checkpoint should
/// hand the primary role to the next replica. Everything else — view
/// change, state transfer, durable proofs — is strategy-agnostic by
/// construction (fast votes double as prepares; rotation rides the view
/// change machinery).
class OrderingStrategy {
 public:
  virtual ~OrderingStrategy() = default;

  virtual Ordering kind() const = 0;
  const char* name() const { return OrderingName(kind()); }

  /// True when replicas vote with FastVote (optimistic single-round path)
  /// instead of Prepare.
  virtual bool use_fast_votes() const { return false; }

  /// Called with the zone-global checkpoint ordinal of the stable
  /// checkpoint just installed (stable seq / checkpoint interval — NOT a
  /// boot-relative counter, which would desynchronize a replica's rotation
  /// phase from the zone after an amnesia restart); true asks the engine to
  /// rotate the primary (a planned view change to view+1).
  virtual bool RotateAt(std::uint64_t checkpoint_ordinal,
                        const PbftConfig& config) const {
    (void)checkpoint_ordinal;
    (void)config;
    return false;
  }

  static std::unique_ptr<OrderingStrategy> Make(Ordering o);
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_ORDERING_H_
