// The benchmark's map from a delivered message (type + receiver kind) to
// the program layer whose handler the delivery enters, and the phase
// labels the critical-path decomposition uses. Both are built from the
// public message enums (pbft/messages.h, core/messages.h,
// core/lazy_sync.h); a type outside them is reported as unmapped.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/message.h"

namespace perfbench {

/// Host-time layers of one Simulation::Step. kPbftCommit is the commit
/// handling part of PBFT and kSyncGlobalCommit the global-commit part of
/// data sync; each is reported both on its own and inside its parent.
enum class Layer : std::uint8_t {
  kPbft,              // zone PBFT: requests, ordering, view change, transfer
  kPbftCommit,        // PBFT commit votes, incl. execution in the app
  kCheckpoint,        // pbft.checkpoint + lazy zone-checkpoint sharing
  kEndorse,           // intra-zone endorsement of global messages
  kSync,              // data sync: propose/promise/accept/accepted/...
  kSyncGlobalCommit,  // data-sync global commit, incl. global execution
  kMig,               // migration STATE transfer, manifests and chunks
  kRead,              // replica-side verified read serving
  kClient,            // every delivery to a client process
  kTimer,             // timer expiries (any process)
  kDrop,              // deliveries dropped at a crashed receiver
  kCount
};

inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

/// Metric-name stem of a layer ("pbft.commit", ...).
std::string_view LayerName(Layer layer);

/// Layer of a message delivery, or nullopt for a type the map lacks.
std::optional<Layer> LayerOf(ziziphus::sim::MessageType type, bool to_client);

/// Critical-path phase label of a message type ("pbft.prepare", ...), or
/// nullopt for a type the map lacks. Unlike app::PhaseLabeler it names the
/// lazy zone checkpoint and the chunked migration messages.
std::optional<std::string_view> PhaseLabel(std::uint64_t type);

/// Labels that carry critical-path time on some workload and are reported
/// one by one; the remaining labels are summed into "other". "client" is
/// the tracer's own label for time spent inside the client process.
inline constexpr std::array<std::string_view, 14> kReportedPhases = {
    "pbft.request",        "pbft.pre-prepare",       "pbft.prepare",
    "pbft.commit",         "read.request",           "sync.migration-request",
    "endorse.pre-prepare", "endorse.prepare",        "endorse.vote",
    "sync.accept",         "sync.accepted",          "sync.global-commit",
    "mig.state-transfer",  "client",
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
