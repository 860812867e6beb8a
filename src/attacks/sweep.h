// The lock-and-attack sweep: one list of cells over a span of host
// circuits, shared by `fulllock sweep`, the serve daemon's sweep jobs and
// the paper's Table 2 and Table 4 drivers.
//
// Every cell locks its host with one registry scheme at the cell's sizes,
// parameters and seed, builds the oracle, runs attacks::run once under the
// sweep's attack timeout, its interrupt, the job deadline and the memory
// budget, grades a success key against the host (grade_key), and writes one
// record:
//
//   cell, bench, circuit, <the cell's coords>, seed, key_bits, cyclic,
//   then attacks::to_json(run)
//
// scheme_grid builds the CLI's and serve's scheme × size × replica cells.
// A table driver builds its own list, with its own seed rule and coords:
// Table 2 pairs one identity host per N with a topology axis, Table 4 runs
// circuits × PLR columns.
//
// The list runs inside a runtime::SweepSession, so the JSONL checkpoint,
// --resume, fault injection and signals behave as in every other sweep
// driver. A cell whose attack was interrupted writes no record (--resume
// re-runs it); a cell that threw gets the session's failure record.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attacks/registry.h"
#include "netlist/netlist.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/sweep.h"

namespace fl::attacks {

struct SweepSpec {
  std::string bench = "sweep";  // manifest label, stamped on every record
  std::uint64_t seed = 17;      // the manifest's base seed
  std::string attack = "auto";
  double timeout_s = 60.0;      // per-attack budget; 0 = unlimited
  // Wall deadline of an enclosing job: caps every cell's attack.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

struct SweepCell {
  std::size_t host = 0;        // index into run_sweep's hosts
  std::string scheme;          // registry name
  std::vector<int> sizes;      // lock::SchemeOptions::sizes
  std::string params;          // "K=V,..."
  std::uint64_t seed = 0;      // lock seed
  runtime::JsonObject coords;  // the driver's fields, between circuit and seed
  // Set by run_sweep when report.cells[i] is kOk.
  std::size_t key_bits = 0;
  bool cyclic = false;
  RunResult run;
};

// The scheme × size × replica cells of `fulllock sweep` and serve sweep
// jobs, in that order, on host 0: each locks at derive_seed(seed, {size,
// replica}), the same for every scheme of the list, with the coords
// scheme, plr_size, replica. Empty `sizes`: {4, 8, 16}.
std::vector<SweepCell> scheme_grid(const std::vector<std::string>& schemes,
                                   const std::vector<int>& sizes,
                                   const std::string& params, int replicas,
                                   std::uint64_t seed);

// Checks every cell's lock parameters, so a bad sweep fails before its
// first cell. Throws std::invalid_argument naming an unknown scheme or
// carrying the scheme's own message.
void validate_sweep(std::span<const SweepCell> cells);

struct SweepResult {
  std::vector<SweepCell> cells;  // the cells as given, with their results
  runtime::GridReport report;    // report.skipped: cells already resumed
  int exit_code = 0;             // runtime::SweepSession::finish
};

// Runs `cells` on `hosts`; callers run validate_sweep first. `args`
// carries the runner flags: jobs, the JSONL checkpoint, --resume, the
// memory budget and the --trace file, whose records are stamped with their
// cell index. `on_record` receives each cell's
// record, on the cell's worker, once the cell has handed it to the
// checkpoint. Throws std::invalid_argument if a cell names no host.
SweepResult run_sweep(
    std::span<const netlist::Netlist> hosts, std::vector<SweepCell> cells,
    const SweepSpec& spec, const runtime::RunnerArgs& args,
    const runtime::SweepSessionOptions& options = {},
    const std::function<void(runtime::JsonObject)>& on_record = {});

}  // namespace fl::attacks
