#include "locking/sfll_hd.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/structure.h"

namespace fl::lock {

using netlist::GateId;
using netlist::GateType;

namespace {

// Bits needed to hold a population count in [0, k].
int popcount_width(int k) {
  int w = 1;
  while ((1 << w) <= k) ++w;
  return w;
}

// Serial-increment popcount network: returns the sum bits, LSB first.
std::vector<GateId> popcount(netlist::Netlist& net,
                             const std::vector<GateId>& bits) {
  const int w = popcount_width(static_cast<int>(bits.size()));
  std::vector<GateId> sum{bits[0]};
  for (std::size_t i = 1; i < bits.size(); ++i) {
    GateId carry = bits[i];
    for (std::size_t j = 0; j < sum.size(); ++j) {
      const GateId t = sum[j];
      sum[j] = net.add_gate(GateType::kXor, {t, carry});
      carry = net.add_gate(GateType::kAnd, {t, carry});
    }
    // The final carry only matters while the counter can still grow.
    if (static_cast<int>(sum.size()) < w) sum.push_back(carry);
  }
  return sum;
}

}  // namespace

// eq_h = [popcount(bits) == h]: comparator against the constant h.
GateId build_hd_equals(netlist::Netlist& net, const std::vector<GateId>& bits,
                       int h) {
  std::vector<GateId> sum = popcount(net, bits);
  std::vector<GateId> eq(sum.size());
  for (std::size_t j = 0; j < sum.size(); ++j) {
    const bool h_bit = ((h >> j) & 1) != 0;
    eq[j] = net.add_gate(h_bit ? GateType::kBuf : GateType::kNot, {sum[j]});
  }
  return netlist::balanced_tree(net, std::move(eq), GateType::kAnd);
}

core::LockedCircuit sfll_hd_lock(const netlist::Netlist& original,
                                 const SfllHdConfig& config) {
  if (original.num_outputs() == 0 || original.num_inputs() == 0) {
    throw std::invalid_argument("sfll-hd: circuit needs inputs and outputs");
  }
  if (config.num_keys < 1) {
    throw std::invalid_argument("sfll-hd: num_keys must be >= 1");
  }
  std::mt19937_64 rng(config.seed);
  core::LockedCircuit locked;
  locked.scheme = "sfll-hd";
  locked.netlist = original;
  locked.netlist.set_name(original.name() + "_sfll_hd");
  netlist::Netlist& net = locked.netlist;

  const int k = std::min<int>(config.num_keys,
                              static_cast<int>(net.num_inputs()));
  if (config.hd < 0 || config.hd > k) {
    throw std::invalid_argument("sfll-hd: hd must be in [0, num_keys]");
  }
  std::uniform_int_distribution<int> coin(0, 1);

  // Hard-coded secret K*.
  std::vector<bool> kstar(k);
  for (int i = 0; i < k; ++i) kstar[i] = coin(rng) == 1;

  // Perturb unit (key-free): flip = [HD(X_k, K*) == h]. The constant K*
  // folds into the diff bits: x XOR 1 = NOT x, x XOR 0 = BUF x.
  std::vector<GateId> perturb_diff(k);
  for (int i = 0; i < k; ++i) {
    perturb_diff[i] = net.add_gate(kstar[i] ? GateType::kNot : GateType::kBuf,
                                   {net.inputs()[i]});
  }
  const GateId flip = build_hd_equals(net, perturb_diff, config.hd);

  // Functionally stripped circuit: the shipped function differs from the
  // original on the whole h-shell around K*.
  const GateId old_out = net.outputs()[0].gate;
  const GateId stripped = net.add_gate(GateType::kXor, {old_out, flip});

  // Restore unit (key-bearing): restore = [HD(X_k, K) == h]; under K == K*
  // it tracks the perturb unit on every input and the two flips cancel.
  std::vector<GateId> keys(k);
  for (int i = 0; i < k; ++i) {
    keys[i] = net.add_key("keyinput_sfll" + std::to_string(i));
    locked.correct_key.push_back(kstar[i]);
  }
  std::vector<GateId> restore_diff(k);
  for (int i = 0; i < k; ++i) {
    restore_diff[i] =
        net.add_gate(GateType::kXor, {net.inputs()[i], keys[i]});
  }
  const GateId restore = build_hd_equals(net, restore_diff, config.hd);

  const GateId restored = net.add_gate(GateType::kXor, {stripped, restore});
  net.set_output_gate(0, restored);
  return locked;
}

}  // namespace fl::lock
