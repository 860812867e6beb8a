// Key-sensitization attack (Rajendran et al., DAC'12 — the paper's [18]).
//
// For each key bit the attacker searches for a *golden pattern*: an input x
// and an output o where that bit propagates to o regardless of every other
// key bit (no interference/muting needed). One oracle query at x then reads
// the bit directly — no SAT attack loop, and only |K| queries in the best
// case.
//
// Primitive schemes (RLL) leave most key gates individually sensitizable
// and fall to this; Full-Lock's CLN entangles every key with its
// neighbours, leaving (almost) nothing golden — which the tests assert.
#pragma once

#include <cstdint>

#include "attacks/engine.h"
#include "attacks/oracle.h"

namespace fl::attacks {

struct SensitizationOptions {
  int attempts_per_key = 6;  // candidate patterns tried per key bit
  double timeout_s = 0.0;    // 0 = unlimited (whole attack)
  // Cooperative cancellation, same contract as AttackOptions::interrupt.
  const std::atomic<bool>* interrupt = nullptr;
};

struct SensitizationResult {
  // kSuccess when the peeling loop ran to its fixpoint (even if some bits
  // stayed unresolved — that is the scheme resisting, not a budget);
  // kTimeout / kInterrupted when a budget cut the sweep short, with the
  // same mapping every engine-based attack uses.
  AttackStatus status = AttackStatus::kSuccess;
  // Per key bit: -1 unknown, 0/1 recovered value.
  std::vector<int> resolved;
  int num_resolved = 0;
  bool complete = false;  // every key bit recovered
  // Recovered bits verified-correct count (filled by tests via the real
  // key; the attack itself has no ground truth).
  std::uint64_t oracle_queries = 0;
  double seconds = 0.0;
};

// Requires an acyclic locked netlist.
SensitizationResult sensitization_attack(
    const netlist::Netlist& locked, const Oracle& oracle,
    const SensitizationOptions& options = {});

}  // namespace fl::attacks
