// AppSAT (Shamsi et al., HOST'17): approximate SAT attack.
//
// Runs the standard DIP loop (via the shared engine, attacks/engine.h), but
// every kSettleEvery (4) iterations extracts the current key candidate and
// estimates its error rate against the oracle on random queries. If the
// error drops to kErrorThreshold (0.5%) or below, the attack settles for the
// approximate key with status kApproximate (this is what defeats
// point-function schemes like SARLock/Anti-SAT, whose wrong keys err on ~one
// input). Failing random queries are fed back as additional I/O
// constraints. When no DIP remains first, the attack ends exact, as the SAT
// attack does.
#pragma once

#include "attacks/registry.h"

namespace fl::attacks {

// The registry's "appsat" entry (run it by name through attacks::run). Its
// detail carries `estimated_error`, the key's sampled error rate.
RunResult appsat_attack(const netlist::Netlist& locked, const Oracle& oracle,
                        const AttackOptions& options);

}  // namespace fl::attacks
