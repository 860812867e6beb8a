#include "locking/sarlock.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "netlist/structure.h"

namespace fl::lock {

using netlist::GateId;
using netlist::GateType;

core::LockedCircuit sarlock_lock(const netlist::Netlist& original,
                                 const SarLockConfig& config) {
  if (original.num_outputs() == 0 || original.num_inputs() == 0) {
    throw std::invalid_argument("sarlock: circuit needs inputs and outputs");
  }
  std::mt19937_64 rng(config.seed);
  core::LockedCircuit locked;
  locked.scheme = "sarlock";
  locked.netlist = original;
  locked.netlist.set_name(original.name() + "_sarlock");
  netlist::Netlist& net = locked.netlist;

  const int k = std::min<int>(config.num_keys,
                              static_cast<int>(net.num_inputs()));
  std::uniform_int_distribution<int> coin(0, 1);

  // Correct key K*.
  std::vector<bool> kstar(k);
  for (int i = 0; i < k; ++i) kstar[i] = coin(rng) == 1;

  std::vector<GateId> keys(k);
  for (int i = 0; i < k; ++i) {
    keys[i] = net.add_key("keyinput_sar" + std::to_string(i));
    locked.correct_key.push_back(kstar[i]);
  }

  // match = AND_i (x_i XNOR k_i): input equals the key guess.
  std::vector<GateId> eq_bits(k);
  for (int i = 0; i < k; ++i) {
    eq_bits[i] =
        net.add_gate(GateType::kXnor, {net.inputs()[i], keys[i]});
  }
  // differs = OR_i (k_i XOR kstar_i): guess differs from the hard-coded K*.
  // kstar_i constant: k XOR 1 = NOT k, k XOR 0 = k (as BUF).
  std::vector<GateId> ne_bits(k);
  for (int i = 0; i < k; ++i) {
    ne_bits[i] = net.add_gate(kstar[i] ? GateType::kNot : GateType::kBuf,
                              {keys[i]});
  }
  const GateId match = netlist::balanced_tree(net, eq_bits, GateType::kAnd);
  const GateId differs = netlist::balanced_tree(net, ne_bits, GateType::kOr);
  const GateId flip = net.add_gate(GateType::kAnd, {match, differs});

  // Flip the first output.
  const GateId old_out = net.outputs()[0].gate;
  const GateId new_out = net.add_gate(GateType::kXor, {old_out, flip});
  net.set_output_gate(0, new_out);
  return locked;
}

}  // namespace fl::lock
