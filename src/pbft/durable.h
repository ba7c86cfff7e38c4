#ifndef ZIZIPHUS_PBFT_DURABLE_H_
#define ZIZIPHUS_PBFT_DURABLE_H_

#include <map>

#include "common/types.h"
#include "pbft/messages.h"
#include "storage/checkpoint.h"
#include "storage/log.h"

namespace ziziphus::pbft {

/// The slice of a PBFT replica that survives an amnesia crash — what a real
/// deployment would fsync. The engine keeps these fields only here and
/// reads and writes them in place; everything else (slots, vote sets,
/// pending batches, timers, reply cache) is volatile and reconstructed by
/// the rejoin protocol via WAL replay and state transfer.
///
/// Durable:
///  - `view`: the last view this replica *entered* (a formed view). A view
///    it only demanded is deliberately not recorded: restoring into a view
///    the zone never installed would let the rejoiner's solo view changes
///    run away from the zone. The live view is therefore a separate field.
///  - `stable_checkpoint`: last 2f+1-certified snapshot; the recovery
///    baseline installed before WAL replay, and the one fast-path reads and
///    lazy sync serve from.
///  - `wal`: committed entries above the stable checkpoint, truncated at
///    every checkpoint. It stays separate from the engine's commit log,
///    which restarts at the replayed prefix: after a replay gap the WAL
///    still holds the entries past the gap.
///  - `prepared_proofs`: prepared certificates above the stable checkpoint,
///    which view-change messages carry. Slot state cannot serve this role:
///    entering a new view resets `prepared` so the slot re-runs the prepare
///    phase, and a second view change before re-preparation would lose the
///    certificate and let the new primary no-op-fill a committed sequence
///    number. The proofs carry the full batches, which doubles as the WAL's
///    payload: replay pairs each WAL digest with its proof's batch.
///  - `fast_votes`: the fast-path votes this replica cast above the stable
///    checkpoint (view, seq, digest, batch). Fast-commit safety across view
///    changes rests on every honest voter reporting its vote in its
///    view-change message (>= f+1 reports in any quorum); an amnesiac that
///    forgot a cast vote could silently drop the count below threshold.
///  - `checkpoint_client_ts`: the executed-timestamp client table, recorded
///    at each stable checkpoint. WAL replay seeds the live table from this
///    and rebuilds forward, so the replayed execution reproduces the
///    original per-op duplicate decisions. It is not the checkpoint's
///    read coverage map, which also counts migration installs.
///
/// A snapshot state transfer trims nothing here: proofs and votes at or
/// below the installed sequence wait for the next stable checkpoint,
/// because a crash before then replays the WAL from the older checkpoint.
struct DurableState {
  ViewId view = 0;
  storage::Checkpoint stable_checkpoint;
  storage::CommitLog wal;
  std::map<SeqNum, PreparedProof> prepared_proofs;
  std::map<SeqNum, PreparedProof> fast_votes;
  std::map<ClientId, RequestTimestamp> checkpoint_client_ts;
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_DURABLE_H_
