// Layer probes: public program functions timed in isolation on inputs
// taken from the workload that just ran (its queue depth and one zone's
// application state).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "storage/kv_store.h"

namespace perfbench {

struct ProbeResults {
  double queue_ns_per_event = 0;  // sim::EventQueue hold model
  double kv_get_ns = 0;           // storage::KvStore::Get
  double kv_snapshot_us = 0;      // storage::KvStore::Snapshot
  double merkle_build_us = 0;     // crypto::MerkleTree construction
  double merkle_prove_verify_ns = 0;  // Prove + VerifyMerkleProof
};

/// Runs every probe. `depth` is the workload's mean event-queue depth and
/// `zone_state` one zone's key-value contents; `seed` drives the probe's
/// own gap and key choices. Returns false if a proof fails to verify.
bool RunProbes(std::size_t depth, const ziziphus::storage::KvStore::Map& zone_state,
               std::uint64_t seed, ProbeResults* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
