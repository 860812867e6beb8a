// Double DIP (Shen & Zhou, GLSVLSI'17) — the 2-DIP attack the paper cites
// among the approximate-attack family ([22]).
//
// Each query is chosen so that two key candidates agree with each other
// while a third disagrees: whatever the oracle answers, at least one key is
// eliminated, and when the oracle contradicts the consensus at least *two*
// are — doubling the worst-case pruning rate against point-function schemes
// (SARLock's "one key per DIP" floor). The four-copy 2-DIP miter plugs into
// the shared engine (attacks/engine.h) as a custom encoder; when no 2-DIP
// remains, the attack falls back to the standard SAT attack to finish.
#pragma once

#include "attacks/registry.h"

namespace fl::attacks {

// The registry's "double-dip" entry (run it by name through attacks::run;
// it resolves to CycSAT on cyclic locks). `iterations` counts 2-DIP
// queries; the detail's `fallback_iterations` counts the mop-up's DIPs.
RunResult double_dip_attack(const netlist::Netlist& locked,
                            const Oracle& oracle,
                            const AttackOptions& options);

}  // namespace fl::attacks
