#include "pbft/ordering.h"

#include <algorithm>

#include "common/hash.h"

namespace ziziphus::pbft {

const char* OrderingName(Ordering o) {
  switch (o) {
    case Ordering::kStable:
      return "stable";
    case Ordering::kRotating:
      return "rotating";
    case Ordering::kFastPath:
      return "fast-path";
  }
  return "unknown";
}

std::optional<Ordering> ParseOrdering(std::string_view name) {
  if (name == "stable") return Ordering::kStable;
  if (name == "rotating") return Ordering::kRotating;
  if (name == "fast-path") return Ordering::kFastPath;
  return std::nullopt;
}

namespace {

Duration Jittered(Duration base, std::uint64_t domain, std::uint64_t a,
                  std::uint64_t b) {
  Duration jitter_span = base / 8;
  Duration jitter =
      jitter_span == 0
          ? 0
          : Hasher(domain).Add(a).Add(b).Finish() % (jitter_span + 1);
  return base + jitter;
}

}  // namespace

Duration AdaptiveProgressTimeout(const PbftConfig& config, Duration ewma_us,
                                 NodeId replica, ViewId view) {
  if (ewma_us == 0) return config.request_timeout_us;
  const Duration floor = std::max<Duration>(config.request_timeout_us / 4, 1);
  const Duration cap =
      std::max(config.adaptive_timeout_cap_us != 0
                   ? config.adaptive_timeout_cap_us
                   : config.request_timeout_us * 2,
               floor);
  Duration base = std::clamp<Duration>(
      ewma_us * static_cast<Duration>(config.adaptive_timeout_multiplier),
      floor, cap);
  return Jittered(base, 0xada7, replica, view);
}

Duration FastPathAbandonTimeout(const PbftConfig& config, Duration ewma_us,
                                NodeId replica, SeqNum seq) {
  const Duration floor = std::max<Duration>(config.batch_timeout_us, 1);
  const Duration cap = std::max(config.request_timeout_us, floor);
  Duration base = ewma_us == 0 ? kFastAbandonColdUs : ewma_us * 4;
  base = std::clamp(base, floor, cap);
  return Jittered(base, 0xfa57, replica, seq);
}

namespace {

class StableOrdering : public OrderingStrategy {
 public:
  Ordering kind() const override { return Ordering::kStable; }
};

class RotatingOrdering : public OrderingStrategy {
 public:
  Ordering kind() const override { return Ordering::kRotating; }
  bool RotateAt(std::uint64_t checkpoint_ordinal,
                const PbftConfig& config) const override {
    // Keyed to the zone-global ordinal, every replica — including one that
    // restarted mid-epoch — picks the same rotation checkpoints.
    return config.rotation_checkpoints != 0 &&
           checkpoint_ordinal % config.rotation_checkpoints == 0;
  }
};

class FastPathOrdering : public OrderingStrategy {
 public:
  Ordering kind() const override { return Ordering::kFastPath; }
  bool use_fast_votes() const override { return true; }
};

}  // namespace

std::unique_ptr<OrderingStrategy> OrderingStrategy::Make(Ordering o) {
  switch (o) {
    case Ordering::kRotating:
      return std::make_unique<RotatingOrdering>();
    case Ordering::kFastPath:
      return std::make_unique<FastPathOrdering>();
    case Ordering::kStable:
      break;
  }
  return std::make_unique<StableOrdering>();
}

}  // namespace ziziphus::pbft
