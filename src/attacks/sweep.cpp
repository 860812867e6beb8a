#include "attacks/sweep.h"

#include <stdexcept>
#include <utility>

#include "attacks/oracle.h"
#include "locking/scheme.h"
#include "runtime/seed.h"

namespace fl::attacks {

namespace {

std::vector<int> sizes_or_default(const std::vector<int>& sizes) {
  return sizes.empty() ? std::vector<int>{4, 8, 16} : sizes;
}

}  // namespace

void validate_sweep(const std::vector<std::string>& schemes,
                    const std::vector<int>& sizes,
                    const std::string& scheme_params) {
  for (const std::string& name : schemes) {
    const lock::LockScheme* scheme = lock::find_scheme(name);
    if (scheme == nullptr) {
      throw std::invalid_argument("unknown lock scheme '" + name +
                                  "'; available schemes: " +
                                  lock::scheme_names());
    }
    for (const int size : sizes_or_default(sizes)) {
      scheme->validate(lock::make_options(0, {size}, scheme_params));
    }
  }
}

SweepResult run_sweep(
    const netlist::Netlist& original, const SweepSpec& spec,
    const runtime::RunnerArgs& args,
    const runtime::SweepSessionOptions& options,
    const std::function<void(runtime::JsonObject)>& on_record) {
  SweepResult result;
  for (const std::string& scheme : spec.schemes) {
    for (const int size : sizes_or_default(spec.sizes)) {
      for (int r = 0; r < spec.replicas; ++r) {
        SweepCell& cell = result.cells.emplace_back();
        cell.scheme = scheme;
        cell.size = size;
        cell.replica = r;
        cell.seed = runtime::derive_seed(
            spec.seed, {static_cast<std::uint64_t>(size),
                        static_cast<std::uint64_t>(r)});
      }
    }
  }
  std::vector<SweepCell>& cells = result.cells;
  TraceFile trace(args.trace_path);
  runtime::SweepSession session(spec.bench, cells.size(), spec.seed, args,
                                options);
  const auto record_base = [&](std::size_t i) {
    runtime::JsonObject o;
    o.field("cell", i)
        .field("bench", spec.bench)
        .field("circuit", original.name())
        .field("scheme", cells[i].scheme)
        .field("plr_size", cells[i].size)
        .field("replica", cells[i].replica)
        .field("seed", cells[i].seed);
    return o;
  };

  result.report = runtime::run_grid(
      cells.size(), session.grid_config(),
      [&](const runtime::CellContext& ctx) {
        const std::size_t i = ctx.index;
        SweepCell& cell = cells[i];
        const core::LockedCircuit locked = lock::lock_with(
            cell.scheme, original,
            lock::make_options(cell.seed, {cell.size}, spec.scheme_params));
        const Oracle oracle(original);
        AttackOptions attack;
        attack.timeout_s = ctx.effective_timeout(spec.timeout_s);
        attack.deadline = spec.deadline;
        attack.interrupt = ctx.interrupt;
        attack.memory_limit_mb = args.memory_limit_mb;
        attack.trace = trace.sink();
        attack.trace_cell = static_cast<long long>(i);
        // "auto" follows each cell's cyclicity, and double-dip
        // (acyclic-only) degrades to cycsat on cyclic cells.
        cell.run = run(spec.attack, locked, oracle, attack);
        if (cell.run.result.status == AttackStatus::kInterrupted) {
          session.note_interrupted(i);
          return;
        }
        runtime::JsonObject o = record_base(i);
        o.field("key_bits", locked.key_bits())
            .field("cyclic", locked.netlist.is_cyclic())
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
