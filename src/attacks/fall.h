// FALL-style structural/functional attack on SFLL (Sirone & Subramanyan,
// DATE'19, adapted to SFLL-HD's functional model).
//
// SFLL's weakness is the seam it cannot hide: the locked output is
// XOR(stripped_function, restore_unit), where the stripped cone is key-free
// and the restore cone carries every key bit. The attack
//   1. locates that seam structurally and strips the restore unit,
//   2. maps each key bit to its protected primary input through the
//      restore unit's x XOR k comparator layer,
//   3. collects input patterns where the stripped function disagrees with
//      the oracle (each lies at Hamming distance exactly h from K*), and
//   4. solves the system "HD(pattern_t, K) == h for every t" over (h, K)
//      with the SAT solver, validating candidates against the oracle until
//      one unlocks the circuit exactly.
// Removal alone (step 1) is *not* enough — the stripped function errs on
// the whole h-shell of K*, which is what stripped_error_rate reports.
#pragma once

#include <cstdint>
#include <vector>

#include "attacks/oracle.h"
#include "core/locked_circuit.h"

namespace fl::attacks {

struct FallResult {
  // Step 1: a stripped-function / restore-unit seam was found.
  bool restore_identified = false;
  // Step 4: a key passing full verification was recovered.
  bool key_recovered = false;
  std::vector<bool> key;       // valid when key_recovered
  int hd = -1;                 // inferred Hamming distance h
  int protected_bits = 0;      // key bits mapped to primary inputs
  int error_patterns = 0;      // disagreement patterns collected
  int candidates_tested = 0;   // (h, K) candidates checked on the oracle
  // Error rate of the stripped function alone vs the oracle — the residual
  // a pure removal attacker is left with.
  double stripped_error_rate = 0.0;
};

// Runs the attack (the registry's "fall" entry maps the result onto an
// AttackResult). Returns early (restore_identified == false) when the
// locked netlist has no key-cone/key-free XOR seam on any output — the
// attack is SFLL-specific by design.
FallResult fall_attack(const netlist::Netlist& locked, const Oracle& oracle);

// Kept for keybench, which compiles against this signature until it calls
// attacks::run.
inline FallResult fall_attack(const core::LockedCircuit& locked,
                              const Oracle& oracle) {
  return fall_attack(locked.netlist, oracle);
}

}  // namespace fl::attacks
