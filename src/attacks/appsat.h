// AppSAT (Shamsi et al., HOST'17): approximate SAT attack.
//
// Runs the standard DIP loop (via the shared engine, attacks/engine.h), but
// every `settle_every` iterations extracts the current key candidate and
// estimates its error rate against the oracle on random queries. If the
// error drops below `error_threshold` the attack settles for the
// approximate key (this is what defeats point-function schemes like
// SARLock/Anti-SAT, whose wrong keys err on ~one input). Failing random
// queries are fed back as additional I/O constraints.
#pragma once

#include "attacks/engine.h"

namespace fl::attacks {

struct AppSatOptions {
  AttackOptions base;
  int settle_every = 4;         // DIP iterations between settlement checks
  double error_threshold = 0.005;
};

// Everything AttackResult reports (iterations, budgets, per-iteration
// means, solver stats) plus the approximation verdict.
struct AppSatResult : AttackResult {
  bool approximate = false;      // true if settled below the threshold
  double estimated_error = 1.0;  // error rate of `key` vs the oracle
};

class AppSat {
 public:
  explicit AppSat(AppSatOptions options = {}) : options_(options) {}

  AppSatResult run(const core::LockedCircuit& locked,
                   const Oracle& oracle) const;

 private:
  AppSatOptions options_;
};

}  // namespace fl::attacks
