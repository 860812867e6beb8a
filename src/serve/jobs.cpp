#include "serve/jobs.h"

#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "attacks/sweep.h"
#include "core/verify.h"
#include "locking/scheme.h"
#include "netlist/bench_io.h"
#include "serve/protocol.h"

namespace fl::serve {

using runtime::JsonObject;

namespace {

// Streams per-DIP-iteration records to the job's subscriber as "trace"
// events — the same fields attacks::JsonlTraceSink writes to --trace files.
class StreamTraceSink final : public attacks::IterationTraceSink {
 public:
  explicit StreamTraceSink(JobContext& ctx) : ctx_(ctx) {}

  void record(const attacks::IterationTrace& trace) override {
    ctx_.emit("trace", attacks::to_json(trace));
  }

 private:
  JobContext& ctx_;
};

std::string key_string(const std::vector<bool>& key) {
  std::string s;
  s.reserve(key.size());
  for (const bool b : key) s.push_back(b ? '1' : '0');
  return s;
}

JobResult run_lock_job(const JobSpec& spec, JobContext& ctx) {
  JobResult result;
  const netlist::Netlist original = netlist::read_bench_file(spec.bench_path);
  if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
    result.interrupted = true;
    return result;
  }
  // Empty sizes lock at the scheme's own default, as `fulllock lock` does.
  const core::LockedCircuit locked = lock::lock_with(
      spec.scheme, original,
      lock::make_options(spec.seed, spec.sizes, spec.scheme_params));
  if (core::check_key(original, locked.netlist, locked.correct_key) ==
      core::KeyCheck::kRefuted) {
    throw std::runtime_error("lock verification failed: correct key does not "
                             "unlock the circuit");
  }
  lock::write_locked_circuit(locked, spec.out_path);
  result.fields.field("scheme", locked.scheme)
      .field("params", locked.params)
      .field("gates_before", original.num_logic_gates())
      .field("gates_after", locked.netlist.num_logic_gates())
      .field("key_bits", locked.key_bits())
      .field("out_path", spec.out_path);
  return result;
}

JobResult run_attack_job(const JobSpec& spec, JobContext& ctx) {
  JobResult result;
  // Scheme + params come back from the provenance header when the lock was
  // made by this tool (CLI lock / lock job); foreign files read as "file".
  const core::LockedCircuit locked =
      lock::read_locked_circuit(spec.locked_path);
  const netlist::Netlist oracle_netlist =
      netlist::read_bench_file(spec.oracle_path);
  const attacks::Oracle oracle(oracle_netlist);

  attacks::AttackOptions options;
  options.timeout_s = spec.attack_timeout_s;
  options.deadline = ctx.deadline;  // the job budget caps the attack budget
  options.interrupt = ctx.cancel != nullptr ? ctx.cancel->flag() : nullptr;
  options.memory_limit_mb = spec.memory_limit_mb;
  StreamTraceSink trace(ctx);
  if (spec.trace) options.trace = &trace;

  attacks::RunResult run =
      attacks::run(spec.attack, locked.netlist, oracle, options);
  const attacks::AttackResult& attack = run.result;
  if (attack.status == attacks::AttackStatus::kInterrupted) {
    result.interrupted = true;
    return result;
  }
  attacks::grade_key(run, oracle_netlist, locked.netlist);
  result.fields.field("scheme", locked.scheme)
      .field("key_bits", locked.netlist.num_keys());
  // grade_key graded the key iff the attack returned one: a success's or
  // an approximate settlement's.
  if (run.key_check.has_value()) {
    result.fields.field("key", key_string(attack.key));
  }
  result.fields.merge(attacks::to_json(run));
  return result;
}

JobResult run_sweep_job(const JobSpec& spec, JobContext& ctx) {
  attacks::SweepSpec sweep;
  sweep.bench = "serve_sweep";
  sweep.seed = spec.seed;
  sweep.attack = spec.attack;
  sweep.timeout_s = spec.attack_timeout_s;
  sweep.deadline = ctx.deadline;

  // Cells run serially inside the job: the daemon parallelizes across jobs,
  // and a serial grid keeps the checkpoint byte-identical across restarts.
  runtime::RunnerArgs run_args;
  run_args.jobs = 1;
  run_args.jsonl_path = spec.jsonl_path;
  run_args.resume = spec.resume;
  run_args.memory_limit_mb = spec.memory_limit_mb;

  // The daemon owns the signals, so the job's cancel token stops the grid.
  // Each durable cell record doubles as the client's "cell" event.
  const netlist::Netlist host = netlist::read_bench_file(spec.bench_path);
  const attacks::SweepResult done = attacks::run_sweep(
      {&host, 1},
      attacks::scheme_grid({spec.scheme}, spec.sizes, spec.scheme_params,
                           spec.replicas, spec.seed),
      sweep, run_args,
      {.install_signal_handler = false, .cancel = ctx.cancel,
       .faults = ctx.faults},
      [&ctx](JsonObject record) { ctx.emit("cell", std::move(record)); });

  // exit_code >= 128 means the cancel token fired.
  JobResult result;
  if (done.exit_code >= 128 ||
      (ctx.cancel != nullptr && ctx.cancel->cancelled())) {
    result.interrupted = true;
    return result;
  }
  // A failure record the resumed checkpoint already held fails the job too.
  if (done.exit_code != 0) {
    throw std::runtime_error(
        "sweep finished with failed cells (" +
        std::to_string(done.report.failed) + " of " +
        std::to_string(done.cells.size()) + " in this run; checkpoint " +
        spec.jsonl_path + ")");
  }
  result.fields.field("cells", done.cells.size())
      .field("cells_ok", done.report.ok)
      .field("cells_resumed", done.report.skipped)
      .field("jsonl_path", spec.jsonl_path);
  return result;
}

}  // namespace

JobRunner default_job_runner() {
  return [](const JobSpec& spec, JobContext& ctx) -> JobResult {
    switch (spec.kind) {
      case JobKind::kLock: return run_lock_job(spec, ctx);
      case JobKind::kAttack: return run_attack_job(spec, ctx);
      case JobKind::kSweep: return run_sweep_job(spec, ctx);
    }
    throw std::logic_error("unreachable job kind");
  };
}

}  // namespace fl::serve
