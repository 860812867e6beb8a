#include "attacks/sweep.h"

#include <stdexcept>
#include <utility>

#include "attacks/oracle.h"
#include "locking/scheme.h"
#include "runtime/seed.h"

namespace fl::attacks {

std::vector<SweepCell> scheme_grid(const std::vector<std::string>& schemes,
                                   const std::vector<int>& sizes,
                                   const std::string& params, int replicas,
                                   std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (const std::string& scheme : schemes) {
    for (const int size : sizes.empty() ? std::vector<int>{4, 8, 16} : sizes) {
      for (int r = 0; r < replicas; ++r) {
        SweepCell& cell = cells.emplace_back();
        cell.scheme = scheme;
        cell.sizes = {size};
        cell.params = params;
        cell.seed = runtime::derive_seed(
            seed, {static_cast<std::uint64_t>(size),
                   static_cast<std::uint64_t>(r)});
        cell.coords.field("scheme", scheme)
            .field("plr_size", size)
            .field("replica", r);
      }
    }
  }
  return cells;
}

void validate_sweep(std::span<const SweepCell> cells) {
  for (const SweepCell& cell : cells) {
    const lock::LockScheme* scheme = lock::find_scheme(cell.scheme);
    if (scheme == nullptr) {
      throw std::invalid_argument("unknown lock scheme '" + cell.scheme +
                                  "'; available schemes: " +
                                  lock::scheme_names());
    }
    scheme->validate(lock::make_options(cell.seed, cell.sizes, cell.params));
  }
}

SweepResult run_sweep(
    std::span<const netlist::Netlist> hosts, std::vector<SweepCell> cells,
    const SweepSpec& spec, const runtime::RunnerArgs& args,
    const runtime::SweepSessionOptions& options,
    const std::function<void(runtime::JsonObject)>& on_record) {
  for (const SweepCell& cell : cells) {
    if (cell.host >= hosts.size()) {
      throw std::invalid_argument("sweep cell names host " +
                                  std::to_string(cell.host) + " of " +
                                  std::to_string(hosts.size()));
    }
  }
  SweepResult result;
  result.cells = std::move(cells);
  std::vector<SweepCell>& grid = result.cells;
  TraceFile trace(args.trace_path);
  runtime::SweepSession session(spec.bench, grid.size(), spec.seed, args,
                                options);
  const auto record_base = [&](std::size_t i) {
    runtime::JsonObject o;
    o.field("cell", i)
        .field("bench", spec.bench)
        .field("circuit", hosts[grid[i].host].name())
        .merge(grid[i].coords)
        .field("seed", grid[i].seed);
    return o;
  };

  result.report = runtime::run_grid(
      grid.size(), session.grid_config(),
      [&](const runtime::CellContext& ctx) {
        const std::size_t i = ctx.index;
        SweepCell& cell = grid[i];
        const netlist::Netlist& original = hosts[cell.host];
        const core::LockedCircuit locked = lock::lock_with(
            cell.scheme, original,
            lock::make_options(cell.seed, cell.sizes, cell.params));
        cell.key_bits = locked.key_bits();
        cell.cyclic = locked.netlist.is_cyclic();
        const Oracle oracle(original);
        AttackOptions attack;
        attack.timeout_s = spec.timeout_s;
        attack.deadline = spec.deadline;
        attack.interrupt = ctx.interrupt;
        attack.memory_limit_mb = args.memory_limit_mb;
        attack.trace = trace.sink();
        attack.trace_cell = static_cast<long long>(i);
        // "auto" follows each cell's cyclicity, and double-dip
        // (acyclic-only) degrades to cycsat on cyclic cells.
        cell.run = run(spec.attack, locked.netlist, oracle, attack);
        if (cell.run.result.status == AttackStatus::kInterrupted) {
          session.note_interrupted(i);
          return;
        }
        grade_key(cell.run, original, locked.netlist);
        runtime::JsonObject o = record_base(i);
        o.field("key_bits", cell.key_bits)
            .field("cyclic", cell.cyclic)
            .merge(to_json(cell.run));
        if (session.sink() != nullptr) {
          session.sink()->write(i, runtime::JsonObject(o).str());
        }
        if (on_record) on_record(std::move(o));
      });
  result.exit_code = session.finish(result.report, record_base);
  return result;
}

}  // namespace fl::attacks
