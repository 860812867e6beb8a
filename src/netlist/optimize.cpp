#include "netlist/optimize.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "netlist/structure.h"

namespace fl::netlist {

namespace {

// A net with an optional complement — lets double negations, NOT-chains and
// XOR input polarities fold without materializing inverters.
struct SigLit {
  GateId gate = kNullGate;
  bool neg = false;

  SigLit operator~() const { return SigLit{gate, !neg}; }
  bool operator==(const SigLit&) const = default;
  auto operator<=>(const SigLit&) const = default;
};

// Hash-consing key: canonical (type, sorted operand list).
using StrashKey = std::pair<GateType, std::vector<SigLit>>;

struct StrashKeyHash {
  std::size_t operator()(const StrashKey& k) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(k.first));
    for (const SigLit s : k.second) {
      mix((static_cast<std::uint64_t>(s.gate) << 1) | (s.neg ? 1u : 0u));
    }
    return static_cast<std::size_t>(h);
  }
};

class Optimizer {
 public:
  explicit Optimizer(const Netlist& in, OptimizeStats& stats)
      : in_(in), stats_(stats) {}

  Netlist run() {
    if (in_.is_cyclic()) {
      throw std::invalid_argument("optimize: cyclic netlist");
    }
    map_.assign(in_.num_gates(), SigLit{});
    for (const GateId g : in_.inputs()) {
      map_[g] = SigLit{out_.add_input(in_.gate(g).name)};
    }
    for (const GateId g : in_.keys()) {
      map_[g] = SigLit{out_.add_key(in_.gate(g).name)};
    }
    for (const GateId g : in_.topo_span()) {
      const GateType type = in_.gate_type(g);
      if (is_source(type)) {
        if (type == GateType::kConst0) map_[g] = constant(false);
        if (type == GateType::kConst1) map_[g] = constant(true);
        continue;
      }
      const std::span<const GateId> fanin = in_.fanin(g);
      std::vector<SigLit> fan;
      fan.reserve(fanin.size());
      for (const GateId f : fanin) fan.push_back(map_[f]);
      map_[g] = build(type, std::move(fan));
    }
    for (const OutputPort& o : in_.outputs()) {
      out_.mark_output(materialize(map_[o.gate]), o.name);
    }
    return compact(out_);
  }

 private:
  SigLit constant(bool value) {
    GateId& slot = value ? const1_ : const0_;
    if (slot == kNullGate) slot = out_.add_const(value);
    return SigLit{slot};
  }
  bool is_const(SigLit s, bool value) const {
    if (const0_ != kNullGate && s.gate == const0_) return s.neg == value;
    if (const1_ != kNullGate && s.gate == const1_) return s.neg != value;
    return false;
  }
  bool is_any_const(SigLit s) const {
    return (s.gate == const0_ && const0_ != kNullGate) ||
           (s.gate == const1_ && const1_ != kNullGate);
  }

  // Emits (or reuses) a NOT gate when a complemented literal must become a
  // real net (gate fanins have no polarity in the Netlist model).
  GateId materialize(SigLit s) {
    if (!s.neg) return s.gate;
    if (s.gate == const0_ && const0_ != kNullGate) {
      return constant(true).gate;
    }
    if (s.gate == const1_ && const1_ != kNullGate) {
      return constant(false).gate;
    }
    const StrashKey key{GateType::kNot, std::vector<SigLit>{SigLit{s.gate}}};
    const auto hit = hash_.find(key);
    if (hit != hash_.end()) return hit->second;
    const GateId inv = out_.add_gate(GateType::kNot, {s.gate});
    hash_.emplace(key, inv);
    return inv;
  }

  // Canonical definition of an emitted gate, for one-level rewrites.
  const std::vector<SigLit>* leaves_of(SigLit s, GateType type) const {
    if (s.neg) return nullptr;
    const auto d = def_.find(s.gate);
    if (d == def_.end() || d->second.first != type) return nullptr;
    return &d->second.second;
  }

  SigLit emit(GateType type, std::vector<SigLit> fan) {
    // Canonicalize commutative operands.
    if (type == GateType::kAnd || type == GateType::kOr ||
        type == GateType::kXor) {
      std::sort(fan.begin(), fan.end());
    }
    StrashKey key{type, std::move(fan)};
    const auto hit = hash_.find(key);
    if (hit != hash_.end()) {
      ++stats_.subexpressions_merged;
      return SigLit{hit->second};
    }
    std::vector<GateId> fanin;
    fanin.reserve(key.second.size());
    for (const SigLit s : key.second) fanin.push_back(materialize(s));
    const GateId g = out_.add_gate(type, std::move(fanin));
    hash_.emplace(key, g);
    def_.emplace(g, std::move(key));
    return SigLit{g};
  }

  SigLit build_and(std::vector<SigLit> fan, bool negate_out) {
    std::vector<SigLit> lits;
    for (const SigLit s : fan) {
      if (is_const(s, false)) {
        ++stats_.constants_folded;
        return constant(negate_out);
      }
      if (is_const(s, true)) {
        ++stats_.constants_folded;
        continue;
      }
      lits.push_back(s);
    }
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
      if (lits[i].gate == lits[i + 1].gate) {  // x & ~x
        ++stats_.identities_applied;
        return constant(negate_out);
      }
    }
    // One-level absorption against operands that are already-hashed AND
    // gates: if t is a leaf of s then AND(s, t) = s, and if ~t is a leaf of
    // s then s implies ~t, so AND(s, t) = 0. (OR absorption arrives here
    // too, through build_or's De Morgan mapping.)
    if (lits.size() >= 2) {
      std::vector<bool> drop(lits.size(), false);
      for (std::size_t i = 0; i < lits.size(); ++i) {
        if (drop[i]) continue;
        const std::vector<SigLit>* leaves = leaves_of(lits[i], GateType::kAnd);
        if (leaves == nullptr) continue;
        for (std::size_t j = 0; j < lits.size(); ++j) {
          if (j == i || drop[j]) continue;
          if (std::find(leaves->begin(), leaves->end(), lits[j]) !=
              leaves->end()) {
            drop[j] = true;
            ++stats_.absorptions_applied;
          } else if (std::find(leaves->begin(), leaves->end(), ~lits[j]) !=
                     leaves->end()) {
            ++stats_.absorptions_applied;
            return constant(negate_out);
          }
        }
      }
      std::size_t keep = 0;
      for (std::size_t i = 0; i < lits.size(); ++i) {
        if (!drop[i]) lits[keep++] = lits[i];
      }
      lits.resize(keep);
    }
    if (lits.empty()) return constant(!negate_out);
    if (lits.size() == 1) {
      ++stats_.identities_applied;
      return negate_out ? ~lits[0] : lits[0];
    }
    const SigLit g = emit(GateType::kAnd, std::move(lits));
    return negate_out ? ~g : g;
  }

  SigLit build_or(std::vector<SigLit> fan, bool negate_out) {
    for (SigLit& s : fan) s = ~s;
    return ~build_and(std::move(fan), negate_out);
  }

  SigLit build_xor(std::vector<SigLit> fan, bool negate_out) {
    bool parity = negate_out;
    std::vector<SigLit> lits;
    for (SigLit s : fan) {
      if (is_any_const(s)) {
        parity ^= is_const(s, true);
        ++stats_.constants_folded;
        continue;
      }
      parity ^= s.neg;  // polarity folds into the output parity
      lits.push_back(SigLit{s.gate});
    }
    // x ^ x cancels pairwise.
    std::vector<SigLit> reduced = cancel_pairs(std::move(lits), false);
    // One-level flatten: an operand that is itself a hashed XOR gate whose
    // leaves overlap another operand is replaced by its leaves, so the
    // shared nets cancel (XOR(XOR(a,b), b) = a). Newly exposed leaves are
    // not flattened further.
    if (reduced.size() >= 2) {
      std::vector<SigLit> flat;
      bool flattened = false;
      for (std::size_t i = 0; i < reduced.size(); ++i) {
        const std::vector<SigLit>* leaves =
            leaves_of(reduced[i], GateType::kXor);
        bool overlap = false;
        if (leaves != nullptr) {
          for (std::size_t j = 0; j < reduced.size() && !overlap; ++j) {
            if (j == i) continue;
            overlap = std::find(leaves->begin(), leaves->end(), reduced[j]) !=
                      leaves->end();
          }
        }
        if (overlap) {
          flat.insert(flat.end(), leaves->begin(), leaves->end());
          flattened = true;
        } else {
          flat.push_back(reduced[i]);
        }
      }
      if (flattened) reduced = cancel_pairs(std::move(flat), true);
    }
    if (reduced.empty()) return constant(parity);
    if (reduced.size() == 1) return parity ? ~reduced[0] : reduced[0];
    const SigLit g = emit(GateType::kXor, std::move(reduced));
    return parity ? ~g : g;
  }

  // Sorts and removes equal pairs (x ^ x = 0) from a XOR operand list.
  std::vector<SigLit> cancel_pairs(std::vector<SigLit> lits,
                                   bool from_flatten) {
    std::sort(lits.begin(), lits.end());
    std::vector<SigLit> reduced;
    for (std::size_t i = 0; i < lits.size();) {
      if (i + 1 < lits.size() && lits[i] == lits[i + 1]) {
        ++(from_flatten ? stats_.xor_pairs_cancelled
                        : stats_.identities_applied);
        i += 2;
      } else {
        reduced.push_back(lits[i]);
        ++i;
      }
    }
    return reduced;
  }

  SigLit build_mux(SigLit sel, SigLit a, SigLit b) {
    if (is_const(sel, false)) {
      ++stats_.constants_folded;
      return a;
    }
    if (is_const(sel, true)) {
      ++stats_.constants_folded;
      return b;
    }
    if (sel.neg) {
      std::swap(a, b);
      sel = ~sel;
    }
    if (a == b) {
      ++stats_.identities_applied;
      return a;
    }
    if (a == ~b) {  // sel ? b : ~b  ==  sel XNOR b
      ++stats_.identities_applied;
      return build_xor({sel, b}, true);
    }
    if (is_any_const(a) || is_any_const(b)) {
      ++stats_.constants_folded;
      if (is_const(a, false)) return build_and({sel, b}, false);
      if (is_const(a, true)) return build_or({~sel, b}, false);
      if (is_const(b, false)) return build_and({~sel, a}, false);
      return build_or({sel, a}, false);  // b == 1
    }
    return emit(GateType::kMux, {sel, a, b});
  }

  SigLit build(GateType type, std::vector<SigLit> fan) {
    switch (type) {
      case GateType::kBuf: return fan[0];
      case GateType::kNot: return ~fan[0];
      case GateType::kAnd: return build_and(std::move(fan), false);
      case GateType::kNand: return build_and(std::move(fan), true);
      case GateType::kOr: return build_or(std::move(fan), false);
      case GateType::kNor: return build_or(std::move(fan), true);
      case GateType::kXor: return build_xor(std::move(fan), false);
      case GateType::kXnor: return build_xor(std::move(fan), true);
      case GateType::kMux: return build_mux(fan[0], fan[1], fan[2]);
      default:
        throw std::logic_error("optimize: unexpected source gate");
    }
  }

  const Netlist& in_;
  OptimizeStats& stats_;
  Netlist out_{in_.name()};
  std::vector<SigLit> map_;
  GateId const0_ = kNullGate;
  GateId const1_ = kNullGate;
  std::unordered_map<StrashKey, GateId, StrashKeyHash> hash_;
  // Reverse map: emitted gate -> its canonical definition, for one-level
  // absorption / flattening rewrites.
  std::unordered_map<GateId, StrashKey> def_;
};

}  // namespace

Netlist optimize(const Netlist& netlist, OptimizeStats* stats) {
  OptimizeStats local;
  Optimizer optimizer(netlist, local);
  Netlist out = optimizer.run();
  local.gates_before = netlist.num_logic_gates();
  local.gates_after = out.num_logic_gates();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace fl::netlist
