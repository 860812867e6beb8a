#include "attacks/fall.h"

#include <string>

#include "cnf/miter.h"
#include "cnf/tseytin.h"
#include "core/verify.h"
#include "locking/sfll_hd.h"
#include "netlist/netlist.h"
#include "netlist/structure.h"
#include "sat/solver.h"

namespace fl::attacks {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

constexpr int kMaxPatterns = 64;    // error patterns to collect
constexpr int kMaxCandidates = 64;  // key candidates per Hamming distance
constexpr int kVerifyRounds = 32;   // simulation rounds per candidate
constexpr std::uint64_t kVerifySeed = 1;

bool model_bit(const sat::Solver& solver, sat::Var v) {
  return v != sat::kNullVar && solver.value_of(v);
}

}  // namespace

FallResult fall_attack(const Netlist& net, const Oracle& oracle) {
  FallResult result;
  const std::size_t num_keys = net.num_keys();
  if (num_keys == 0 || net.is_cyclic()) return result;
  const std::vector<bool> tainted = net.fanout_cone(net.keys());

  // 1. Locate the stripped-function / restore-unit seam: an output XOR
  // whose fanins split into one key-free and one key-bearing cone.
  GateId fsc_root = netlist::kNullGate;
  std::size_t seam_output = 0;
  bool seam_xnor = false;
  for (std::size_t oi = 0; oi < net.num_outputs(); ++oi) {
    const GateId g = net.outputs()[oi].gate;
    const netlist::GateView gate = net.gate(g);
    if ((gate.type != GateType::kXor && gate.type != GateType::kXnor) ||
        gate.fanin.size() != 2) {
      continue;
    }
    const GateId a = gate.fanin[0];
    const GateId b = gate.fanin[1];
    if (tainted[a] == tainted[b]) continue;
    fsc_root = tainted[a] ? b : a;
    seam_output = oi;
    seam_xnor = gate.type == GateType::kXnor;
    break;
  }
  if (fsc_root == netlist::kNullGate) return result;
  result.restore_identified = true;

  // Strip the restore unit: the removal attacker's circuit.
  Netlist stripped = net;
  GateId strip_root = fsc_root;
  if (seam_xnor) strip_root = stripped.add_gate(GateType::kNot, {fsc_root});
  stripped.set_output_gate(seam_output, strip_root);
  const std::vector<bool> zero_key(num_keys, false);
  result.stripped_error_rate =
      core::error_rate(oracle.circuit(), stripped, zero_key,
                       kVerifyRounds, kVerifySeed);

  // 2. Map key bits to protected inputs through the restore unit's
  // x XOR k comparator layer.
  std::vector<int> input_of_key(num_keys, -1);
  for (GateId g = 0; g < net.num_gates(); ++g) {
    const netlist::GateView gate = net.gate(g);
    if (gate.type != GateType::kXor || gate.fanin.size() != 2) continue;
    for (int pin = 0; pin < 2; ++pin) {
      const int ki = net.key_index(gate.fanin[pin]);
      const int xi = net.input_index(gate.fanin[1 - pin]);
      if (ki >= 0 && xi >= 0 && input_of_key[ki] < 0) {
        input_of_key[ki] = xi;
      }
    }
  }
  std::vector<int> protected_keys;  // key indices with an input mapping
  for (std::size_t i = 0; i < num_keys; ++i) {
    if (input_of_key[i] >= 0) protected_keys.push_back(static_cast<int>(i));
  }
  result.protected_bits = static_cast<int>(protected_keys.size());
  if (protected_keys.empty()) return result;
  const int k = result.protected_bits;

  // 3. SAT-enumerate disagreement patterns between the stripped function
  // and the oracle, blocking each pattern's projection onto the protected
  // inputs. Every projection lies at HD exactly h from K*.
  std::vector<std::vector<bool>> patterns;  // projected onto protected bits
  {
    sat::Solver solver;
    cnf::SolverSink sink(solver);
    const cnf::EncodedCircuit enc_oracle =
        cnf::encode(oracle.circuit(), sink);
    // Reuse the oracle's input variables; the difference literal then
    // ranges over shared inputs only.
    std::vector<sat::Var> shared(enc_oracle.input_vars.begin(),
                                 enc_oracle.input_vars.end());
    for (sat::Var& v : shared) {
      if (v == sat::kNullVar) v = solver.new_var();
    }
    cnf::EncodeOptions enc_options;
    enc_options.shared_input_vars = shared;
    const cnf::EncodedCircuit enc_stripped =
        cnf::encode(stripped, sink, enc_options);
    const cnf::NetLit diff = cnf::encode_difference(
        enc_oracle.outputs, enc_stripped.outputs, sink);
    cnf::assert_true(sink, diff);

    while (static_cast<int>(patterns.size()) < kMaxPatterns) {
      if (solver.solve() != sat::LBool::kTrue) break;
      std::vector<bool> projected(k);
      sat::Clause block;
      for (int i = 0; i < k; ++i) {
        const sat::Var v = shared[input_of_key[protected_keys[i]]];
        projected[i] = model_bit(solver, v);
        block.push_back(projected[i] ? sat::neg(v) : sat::pos(v));
      }
      patterns.push_back(std::move(projected));
      if (!solver.add_clause(std::move(block))) break;
    }
  }
  result.error_patterns = static_cast<int>(patterns.size());
  if (patterns.empty()) return result;

  // 4. Solve "HD(pattern_t, K) == h for every t" over the protected key
  // bits for each candidate h, and test candidates against the oracle. The
  // final verification is complete (SAT equivalence on acyclic locks), so
  // a surviving candidate is the real key.
  for (int h = 0; h <= k && !result.key_recovered; ++h) {
    Netlist constraints("fall_keys");
    std::vector<GateId> key_bits(k);
    for (int i = 0; i < k; ++i) {
      key_bits[i] = constraints.add_input("k" + std::to_string(i));
    }
    std::vector<GateId> terms;
    for (const std::vector<bool>& pattern : patterns) {
      std::vector<GateId> diff_bits(k);
      for (int i = 0; i < k; ++i) {
        diff_bits[i] = constraints.add_gate(
            pattern[i] ? GateType::kNot : GateType::kBuf, {key_bits[i]});
      }
      terms.push_back(lock::build_hd_equals(constraints, diff_bits, h));
    }
    constraints.mark_output(
        netlist::balanced_tree(constraints, std::move(terms), GateType::kAnd),
        "consistent");

    sat::Solver solver;
    cnf::SolverSink sink(solver);
    const cnf::EncodedCircuit enc = cnf::encode(constraints, sink);
    cnf::assert_true(sink, enc.outputs[0]);
    for (int c = 0; c < kMaxCandidates; ++c) {
      if (solver.solve() != sat::LBool::kTrue) break;
      std::vector<bool> candidate(num_keys, false);
      sat::Clause block;
      for (int i = 0; i < k; ++i) {
        const sat::Var v = enc.input_vars[i];
        const bool bit = model_bit(solver, v);
        candidate[protected_keys[i]] = bit;
        if (v != sat::kNullVar) {
          block.push_back(bit ? sat::neg(v) : sat::pos(v));
        }
      }
      ++result.candidates_tested;
      // Simulation filters the candidate; the proof decides.
      if (core::verify_unlocks(oracle.circuit(), net, candidate,
                               kVerifyRounds, kVerifySeed) &&
          cnf::check_equivalence(oracle.circuit(), {}, net, candidate)) {
        result.key_recovered = true;
        result.key = std::move(candidate);
        result.hd = h;
        break;
      }
      if (block.empty() || !solver.add_clause(std::move(block))) break;
    }
  }
  return result;
}

}  // namespace fl::attacks
