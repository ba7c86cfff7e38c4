#include "layers.h"

#include "core/lazy_sync.h"
#include "core/messages.h"
#include "pbft/messages.h"

namespace perfbench {

using namespace ziziphus;

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPbft:
      return "pbft";
    case Layer::kPbftCommit:
      return "pbft.commit";
    case Layer::kCheckpoint:
      return "checkpoint";
    case Layer::kEndorse:
      return "endorse";
    case Layer::kSync:
      return "sync";
    case Layer::kSyncGlobalCommit:
      return "sync.global-commit";
    case Layer::kMig:
      return "mig";
    case Layer::kRead:
      return "read";
    case Layer::kClient:
      return "client";
    case Layer::kTimer:
      return "timer";
    case Layer::kDrop:
      return "drop";
    case Layer::kCount:
      break;
  }
  return "?";
}

namespace {

/// Replica-side layer of every message type a Ziziphus deployment carries.
std::optional<Layer> ReplicaLayer(sim::MessageType type) {
  switch (type) {
    case pbft::kClientRequest:
    case pbft::kClientReply:
    case pbft::kPrePrepare:
    case pbft::kPrepare:
    case pbft::kFastVote:
    case pbft::kViewChange:
    case pbft::kNewView:
    case pbft::kStateRequest:
    case pbft::kStateResponse:
      return Layer::kPbft;
    case pbft::kCommit:
      return Layer::kPbftCommit;
    case pbft::kCheckpoint:
    case core::kZoneCheckpoint:
      return Layer::kCheckpoint;
    case pbft::kReadRequest:
    case pbft::kReadReply:
      return Layer::kRead;
    case core::kEndorsePrePrepare:
    case core::kEndorsePrepare:
    case core::kEndorseVote:
      return Layer::kEndorse;
    // A migration request is a global transaction entering data sync.
    case core::kMigrationRequest:
    case core::kMigrationReply:
    case core::kMigrationDone:
    case core::kPropose:
    case core::kPromise:
    case core::kAccept:
    case core::kAccepted:
    case core::kResponseQuery:
    case core::kCrossPropose:
    case core::kPrepared:
      return Layer::kSync;
    case core::kGlobalCommit:
      return Layer::kSyncGlobalCommit;
    case core::kStateTransfer:
    case core::kMigrationManifest:
    case core::kMigrationChunk:
      return Layer::kMig;
    default:
      return std::nullopt;
  }
}

}  // namespace

std::optional<Layer> LayerOf(sim::MessageType type, bool to_client) {
  std::optional<Layer> layer = ReplicaLayer(type);
  if (layer && to_client) return Layer::kClient;
  return layer;
}

std::optional<std::string_view> PhaseLabel(std::uint64_t type) {
  switch (type) {
    case pbft::kClientRequest:
      return "pbft.request";
    case pbft::kClientReply:
      return "pbft.reply";
    case pbft::kPrePrepare:
      return "pbft.pre-prepare";
    case pbft::kPrepare:
      return "pbft.prepare";
    case pbft::kCommit:
      return "pbft.commit";
    case pbft::kFastVote:
      return "pbft.fast-vote";
    case pbft::kCheckpoint:
      return "pbft.checkpoint";
    case pbft::kViewChange:
      return "pbft.view-change";
    case pbft::kNewView:
      return "pbft.new-view";
    case pbft::kStateRequest:
      return "pbft.state-request";
    case pbft::kStateResponse:
      return "pbft.state-response";
    case pbft::kReadRequest:
      return "read.request";
    case pbft::kReadReply:
      return "read.reply";
    case core::kMigrationRequest:
      return "sync.migration-request";
    case core::kMigrationReply:
      return "sync.migration-reply";
    case core::kMigrationDone:
      return "sync.migration-done";
    case core::kEndorsePrePrepare:
      return "endorse.pre-prepare";
    case core::kEndorsePrepare:
      return "endorse.prepare";
    case core::kEndorseVote:
      return "endorse.vote";
    case core::kPropose:
      return "sync.propose";
    case core::kPromise:
      return "sync.promise";
    case core::kAccept:
      return "sync.accept";
    case core::kAccepted:
      return "sync.accepted";
    case core::kGlobalCommit:
      return "sync.global-commit";
    case core::kStateTransfer:
      return "mig.state-transfer";
    case core::kResponseQuery:
      return "sync.response-query";
    case core::kCrossPropose:
      return "sync.cross-propose";
    case core::kPrepared:
      return "sync.prepared";
    case core::kZoneCheckpoint:
      return "lazy.zone-checkpoint";
    case core::kMigrationManifest:
      return "mig.manifest";
    case core::kMigrationChunk:
      return "mig.chunk";
    default:
      return std::nullopt;
  }
}

}  // namespace perfbench
