// Pluggable lock-scheme registry: every locking transform in this library
// (Full-Lock and the comparison schemes of §4) behind one interface, keyed
// by name. The CLI (`lock --scheme NAME`), the serve daemon's JobSpec, the
// sweep drivers, and the bench grids all resolve schemes here instead of
// hardcoding core::full_lock.
//
// A scheme is configured by a SchemeOptions: a seed, a generic integer
// `sizes` axis (the per-scheme "main knob" — PLR/CLN widths for the routing
// schemes, key/LUT counts for the logic schemes), and free-form key=value
// parameters. Each scheme is one table entry: whether it is a point
// function (a constant of the scheme; the `schemes` listing prints it and
// the property tests check it) and one parse that range-checks its own
// parameters and yields its lock; the resolved parameters are stamped into
// LockedCircuit.params. Facts that depend on what a lock turned out to be
// are read from the lock: netlist.is_cyclic(), routing_blocks, and the
// removal attack's result.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/locked_circuit.h"

namespace fl::lock {

struct SchemeOptions {
  std::uint64_t seed = 1;
  // Generic size axis (sweep grids): scheme-specific meaning, documented in
  // params_help(). Explicit key=value parameters win over sizes.
  std::vector<int> sizes;
  std::map<std::string, std::string> params;
};

// Merges "key=value[,key=value...]" into options.params (later wins).
// Throws std::invalid_argument on entries without '='.
void parse_params_into(SchemeOptions& options, std::string_view text);

inline SchemeOptions make_options(std::uint64_t seed,
                                  std::vector<int> sizes = {},
                                  std::string_view params_text = {}) {
  SchemeOptions options;
  options.seed = seed;
  options.sizes = std::move(sizes);
  parse_params_into(options, params_text);
  return options;
}

class ParamReader;  // scheme.cpp: strict typed access to SchemeOptions

// One registered scheme: a name, its help text, whether it is a point
// function and one strict parse of its parameters, which yields its lock.
class LockScheme {
 public:
  using Lock = std::function<core::LockedCircuit(const netlist::Netlist&)>;
  // Reads this scheme's parameters from `reader` (failing through it on a
  // bad value) and configures a lock at `seed`.
  using Parse = Lock (*)(ParamReader& reader, std::uint64_t seed);

  constexpr LockScheme(std::string_view name, std::string_view description,
                       std::string_view params_help, bool point_function,
                       Parse parse)
      : name_(name),
        description_(description),
        params_help_(params_help),
        point_function_(point_function),
        parse_(parse) {}

  std::string_view name() const { return name_; }
  std::string_view description() const { return description_; }
  // One-line "key=value" summary of the accepted parameters and defaults.
  std::string_view params_help() const { return params_help_; }
  // Point-function corruption: every wrong key errs on a vanishing fraction
  // of the inputs (SAT-iteration bomb; AppSAT's target), whatever the
  // parameters. The property suite checks low corruption for these and a
  // provably wrong flipped key for the rest.
  bool point_function() const { return point_function_; }

  // Strict parameter parsing without locking anything: throws
  // std::invalid_argument naming the offending parameter. Used by the CLI
  // at flag-parse time and by the serve daemon at admission.
  void validate(const SchemeOptions& options) const;

  // Locks a copy of `original`. The result carries this scheme's canonical
  // name and parameter string (LockedCircuit.scheme / .params). Throws
  // std::invalid_argument on bad parameters or an unsuitable circuit.
  core::LockedCircuit lock(const netlist::Netlist& original,
                           const SchemeOptions& options) const;

 private:
  // Runs parse_ and rejects parameters it did not read; `canonical`
  // (optional) receives the resolved parameter string.
  Lock parse(const SchemeOptions& options, std::string* canonical) const;

  std::string_view name_;
  std::string_view description_;
  std::string_view params_help_;
  bool point_function_;
  Parse parse_;
};

// All registered schemes, sorted by name. Never empty; pointers live for
// the program's lifetime.
const std::vector<const LockScheme*>& registry();
// nullptr when unknown.
const LockScheme* find_scheme(std::string_view name);
// "antisat, cross-lock, ..." — for error messages and usage text.
std::string scheme_names();

// Convenience: find + lock. Throws std::invalid_argument on unknown names.
core::LockedCircuit lock_with(std::string_view scheme,
                              const netlist::Netlist& original,
                              const SchemeOptions& options);

// ---- Attack-side helpers driven by the registry ----------------------

// The one "auto" rule: cycsat on cyclic locks, sat otherwise; double-dip
// (acyclic-only) degrades to cycsat on cyclic netlists. attacks::run
// (attacks/registry.h, which also owns the attack names) applies it.
std::string resolve_attack(std::string_view requested, bool cyclic);

// ---- Locked-circuit provenance I/O -----------------------------------

// Writes `path` (.bench with "# lock-scheme:"/"# lock-params:" header
// comments), `path`.key (same header + one "name bit" line per key) and
// `path`.v (structural Verilog). Throws std::runtime_error when a write
// fails.
void write_locked_circuit(const core::LockedCircuit& locked,
                          const std::string& path);

// Reads a locked .bench, recovering scheme/params from the header comments
// written by write_locked_circuit. Files from other tools load fine and
// fall back to scheme "file". correct_key stays empty (the attacker's
// view); read the .key file separately if the key is needed.
core::LockedCircuit read_locked_circuit(const std::string& path);

}  // namespace fl::lock
