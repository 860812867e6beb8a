// The lock-and-attack sweep: one grid of scheme × size × replica cells,
// shared by `fulllock sweep` and the serve daemon's sweep jobs.
//
// Every cell locks the circuit with one registry scheme at one size under
// the seed derive_seed(seed, {size, replica}) — the same for every scheme
// of the list — builds the oracle, runs attacks::run under the cell's
// timeout, the sweep's interrupt, the job deadline and the memory budget,
// and writes one record:
//
//   cell, bench, circuit, scheme, plr_size, replica, seed, key_bits,
//   cyclic, then attacks::to_json(run)
//
// The grid runs inside a runtime::SweepSession, so the JSONL checkpoint,
// --resume, retries, cell budgets, fault injection and signals behave as in
// every other sweep driver. A cell whose attack was interrupted writes no
// record (--resume re-runs it); a cell that threw on every attempt gets the
// session's failure record.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attacks/registry.h"
#include "netlist/netlist.h"
#include "runtime/runner.h"
#include "runtime/sweep.h"

namespace fl::attacks {

struct SweepSpec {
  std::string bench = "sweep";  // manifest label, stamped on every record
  std::vector<std::string> schemes = {"full-lock"};
  std::string scheme_params;    // "K=V,..." for every scheme of the list
  std::vector<int> sizes;       // empty: {4, 8, 16}
  int replicas = 1;             // lock seeds per (scheme, size)
  std::uint64_t seed = 17;      // base of every cell's seed
  std::string attack = "auto";
  double timeout_s = 60.0;      // per-attack budget; 0 = unlimited
  // Wall deadline of an enclosing job: caps every cell's attack.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

// Checks every (scheme, size) pair's lock parameters (empty `sizes`: the
// sweep's default axis), so a bad sweep fails before its first cell.
// Throws std::invalid_argument naming an unknown scheme or carrying the
// scheme's own message.
void validate_sweep(const std::vector<std::string>& schemes,
                    const std::vector<int>& sizes,
                    const std::string& scheme_params);

struct SweepCell {
  std::string scheme;
  int size = 0;
  int replica = 0;
  std::uint64_t seed = 0;
  RunResult run;  // empty unless report.cells[i] is kOk
};

struct SweepResult {
  std::vector<SweepCell> cells;  // grid order
  runtime::GridReport report;    // report.skipped: cells already resumed
  int exit_code = 0;             // runtime::SweepSession::finish
};

// Runs `spec` on `original`; callers run validate_sweep first. `args`
// carries the runner flags: jobs, the JSONL checkpoint, --resume, retries,
// the cell budget, the memory budget and the --trace file, whose records
// are stamped with their cell index. `on_record` receives each cell's
// record, on the cell's worker, once the cell has handed it to the
// checkpoint.
SweepResult run_sweep(
    const netlist::Netlist& original, const SweepSpec& spec,
    const runtime::RunnerArgs& args,
    const runtime::SweepSessionOptions& options = {},
    const std::function<void(runtime::JsonObject)>& on_record = {});

}  // namespace fl::attacks
