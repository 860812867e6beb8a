// File-based command-line front end: lock / attack / sweep / report on
// .bench netlists, the workflow an IP owner or red-team would actually run.
//
//   lock:    example_fulllock_cli lock <in.bench> <out.bench> [sizes...]
//                                      [--scheme NAME] [--opt K=V,...]
//                                      [--seed S]
//            Locks with any registered scheme (default: full-lock; run
//            `schemes` for the list). Writes the locked netlist with
//            provenance header comments, the key to <out.bench>.key, and a
//            structural Verilog view to <out.bench>.v.
//   schemes: example_fulllock_cli schemes [--names]
//            Lists every registered lock scheme with its parameters, and
//            marks the point-function ones; --names prints bare names (one
//            per line) for scripting.
//   gen:     example_fulllock_cli gen <profile> <out.bench> [--seed S]
//            Writes a benchmark circuit (c17 or a Table 5 / scaled profile)
//            as .bench — the oracle/input side of a lock-attack pipeline.
//   attack:  example_fulllock_cli attack <locked.bench> <oracle.bench>
//                                        [timeout_s] [--attack NAME]
//                                        [--require-key] [--trace FILE]
//            Runs an oracle-guided attack with the oracle circuit standing
//            in for the activated chip, on one sequential CDCL solver. The
//            lock scheme is recovered from the .bench provenance header when
//            present. --attack picks the algorithm (auto, sat, cycsat,
//            appsat, double-dip, fall; auto = cycsat on cyclic netlists, sat
//            otherwise). The engine picks the miter encoding from the lock
//            (key-cone on acyclic locks, full-circuit on cyclic ones) and
//            always preprocesses the base miter. core::check_key grades
//            the recovered key: proved equivalent to the oracle, on a cyclic
//            lock when the key cuts every cycle; simulated only when a cycle
//            survives it; or refuted. The key line names the verdict;
//            --require-key exits 3 unless a key was recovered and not
//            refuted (the CI gate).
//            --trace FILE appends one JSONL record per DIP iteration (schema
//            in EXPERIMENTS.md). attack and sweep exit 2 on an unknown
//            --flag or a bad runner flag value (attack also on a fourth
//            positional argument) before reading any file.
//   sweep:   example_fulllock_cli sweep <in.bench> [sizes...]
//                                       [--scheme LIST] [--opt K=V,...]
//                                       [the attack flags above]
//            The serve daemon's sweep (attacks/sweep.h): locks <in.bench>
//            once per (scheme, size, replica) cell and attacks each, over a
//            worker pool. --scheme takes a comma-separated list of registry
//            names (default: full-lock). --jobs N / FL_JOBS sets the pool
//            size (1 = serial reference loop); --jsonl PATH / FL_JSONL
//            durably records one JSON object per cell, as a serve sweep
//            does; --resume continues an interrupted sweep, skipping cells
//            already in the file; --mem-mb bounds each cell's solver memory
//            (see EXPERIMENTS.md). Each cell runs once: one that throws gets
//            a failure record and exits the sweep 1, also on --resume.
//            FULLLOCK_TIMEOUT_S is the per-attack timeout; FULLLOCK_SEED /
//            FULLLOCK_SWEEP_SEEDS set the base seed and per-size replica
//            count; a cell's lock seed hashes (base, size, replica).
//   report:  example_fulllock_cli report <netlist.bench>
//            Prints structural statistics and the PPA estimate.
//   serve:   example_fulllock_cli serve <socket> [--state FILE] [--workers N]
//                                       [--max-queue N] [--job-timeout S]
//                                       [--stall-grace S]
//            Runs the attack-service daemon on an AF_UNIX socket: clients
//            submit lock/attack/sweep jobs over a line-JSON protocol, and
//            each job runs once. --state FILE makes accepted jobs
//            crash-recoverable (a restarted daemon replays unfinished jobs,
//            sweeps resume from their JSONL checkpoint). SIGINT/SIGTERM
//            drains gracefully and exits 128+signo.
//   submit:  example_fulllock_cli submit <socket> lock|attack|sweep ... |
//                                        status [ID] | cancel <ID> | shutdown
//            Client for a running daemon. lock/sweep take --scheme NAME and
//            --opt K=V,...; value flags also take --flag=VALUE. A usage
//            error exits 2 before the socket is touched. Streams the job's
//            event records (accepted/started/trace/cell/terminal) to
//            stdout and maps the outcome to an exit code: 0 done, 1 failed,
//            2 usage, 3 rejected (overloaded/draining), 4 cancelled/
//            interrupted, 5 connection lost.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "attacks/sweep.h"
#include "core/verify.h"
#include "locking/scheme.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"
#include "ppa/estimator.h"
#include "runtime/runner.h"
#include "serve/client.h"
#include "serve/daemon.h"

using namespace fl;

namespace {

using runtime::flag_value;

// Repeated --opt flags accumulate into one "K=V,..." list.
void append_opt(std::string& opt_text, const std::string& value) {
  if (!opt_text.empty()) opt_text += ",";
  opt_text += value;
}

std::uint64_t parse_seed(std::string_view what, std::string_view text) {
  return static_cast<std::uint64_t>(runtime::parse_int_flag(what, text, 0));
}

// Scheme sizes: any positive integer here; each scheme checks its own range.
int parse_size(std::string_view text) {
  return static_cast<int>(runtime::parse_int_flag(
      "size", text, 1, std::numeric_limits<int>::max()));
}

// An argument of `attack` or `sweep` that no flag parser claimed. One that
// starts with "--" is an unknown (misspelt or removed) flag: rejected by
// name instead of being taken for a positional and silently dropped.
std::string positional_arg(std::string_view arg) {
  if (arg.starts_with("--")) {
    throw std::invalid_argument("unknown flag '" + std::string(arg) + "'");
  }
  return std::string(arg);
}

// --attack NAME, shared by `attack` and `sweep`: consumes argv[i] (and its
// value) into `attack` if it is that flag. An unknown name throws
// std::invalid_argument listing the available attacks, so a bad flag fails
// before any file is read.
bool parse_attack_flag(int argc, char** argv, int& i, std::string& attack) {
  std::optional<std::string> v = flag_value("--attack", argc, argv, i);
  if (!v.has_value()) return false;
  if (!attacks::known_attack(*v)) {
    throw std::invalid_argument("unknown attack '" + *v +
                                "'; available attacks: " +
                                attacks::attack_names());
  }
  attack = *v;
  return true;
}

int cmd_lock(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string scheme = "full-lock";
  std::string opt_text;
  std::uint64_t seed = 1;
  std::vector<int> sizes;
  try {
    for (int i = 2; i < argc; ++i) {
      if (auto v = flag_value("--scheme", argc, argv, i)) {
        scheme = *v;
      } else if (auto v = flag_value("--opt", argc, argv, i)) {
        append_opt(opt_text, *v);
      } else if (auto v = flag_value("--seed", argc, argv, i)) {
        seed = parse_seed("--seed", *v);
      } else {
        positional.push_back(argv[i]);
      }
    }
    for (std::size_t i = 2; i < positional.size(); ++i) {
      sizes.push_back(parse_size(positional[i]));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "lock: %s\n", e.what());
    return 2;
  }
  if (positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: lock <in.bench> <out.bench> [sizes...]\n"
                 "  --scheme NAME  one of: %s (default: full-lock)\n"
                 "  --opt K=V,...  scheme parameters (run `schemes` for "
                 "each scheme's knobs)\n"
                 "  --seed S       lock seed (default: 1)\n",
                 lock::scheme_names().c_str());
    return 2;
  }
  const lock::LockScheme* s = lock::find_scheme(scheme);
  if (s == nullptr) {
    std::fprintf(stderr, "unknown lock scheme '%s'; available schemes: %s\n",
                 scheme.c_str(), lock::scheme_names().c_str());
    return 2;
  }
  lock::SchemeOptions options;
  try {
    options = lock::make_options(seed, sizes, opt_text);
    s->validate(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "lock: %s\n", e.what());
    return 2;
  }
  const netlist::Netlist original = netlist::read_bench_file(positional[0]);
  const core::LockedCircuit locked = s->lock(original, options);
  if (core::check_key(original, locked.netlist, locked.correct_key) ==
      core::KeyCheck::kRefuted) {
    std::fprintf(stderr, "internal error: correct key failed verification\n");
    return 1;
  }
  const std::string out_path = positional[1];
  lock::write_locked_circuit(locked, out_path);
  std::printf("locked %s with %s (%s): %zu -> %zu gates, %zu key bits\n",
              positional[0].c_str(), locked.scheme.c_str(),
              locked.params.c_str(), original.num_logic_gates(),
              locked.netlist.num_logic_gates(), locked.key_bits());
  std::printf("wrote %s, %s.key, %s.v\n", out_path.c_str(), out_path.c_str(),
              out_path.c_str());
  return 0;
}

int cmd_schemes(int argc, char** argv) {
  const bool names_only = argc > 2 && std::string(argv[2]) == "--names";
  for (const lock::LockScheme* s : lock::registry()) {
    const std::string name(s->name());
    if (names_only) {
      std::printf("%s\n", name.c_str());
      continue;
    }
    std::printf("%-11s %s\n", name.c_str(),
                std::string(s->description()).c_str());
    std::printf("            params: %s\n",
                std::string(s->params_help()).c_str());
    if (s->point_function()) std::printf("            point-function\n");
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  std::vector<std::string> positional;
  std::uint64_t seed = 1;
  try {
    for (int i = 2; i < argc; ++i) {
      if (auto v = flag_value("--seed", argc, argv, i)) {
        seed = parse_seed("--seed", *v);
      } else {
        positional.push_back(argv[i]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "gen: %s\n", e.what());
    return 2;
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: gen <profile> <out.bench> [--seed S]\n"
                 "profiles: c17");
    for (const auto& p : netlist::table5_profiles()) {
      std::fprintf(stderr, ", %s", p.name.c_str());
    }
    for (const auto& p : netlist::scaled_profiles()) {
      std::fprintf(stderr, ", %s", p.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  netlist::Netlist circuit;
  if (positional[0] == "c17") {
    circuit = netlist::make_c17();
  } else {
    const auto profile = netlist::find_profile(positional[0]);
    if (!profile.has_value()) {
      std::fprintf(stderr, "unknown profile '%s' (run `gen` for the list)\n",
                   positional[0].c_str());
      return 2;
    }
    circuit = netlist::make_circuit(*profile, seed);
  }
  netlist::write_bench_file(circuit, positional[1]);
  std::printf("wrote %s: %zu inputs, %zu outputs, %zu gates\n",
              positional[1].c_str(), circuit.num_inputs(),
              circuit.num_outputs(), circuit.num_logic_gates());
  return 0;
}

int cmd_attack(int argc, char** argv, const runtime::RunnerArgs& run_args) {
  // Flags may sit anywhere among the positionals. (--trace was already
  // stripped into run_args.)
  std::vector<std::string> positional;
  std::string attack_name = "auto";
  bool require_key = false;
  double timeout_s = 60.0;
  try {
    for (int i = 2; i < argc; ++i) {
      if (parse_attack_flag(argc, argv, i, attack_name)) continue;
      if (std::string_view(argv[i]) == "--require-key") {
        require_key = true;
      } else {
        positional.push_back(positional_arg(argv[i]));
      }
    }
    if (positional.size() > 3) {
      throw std::invalid_argument("unexpected argument '" + positional[3] +
                                  "' (attack takes at most <locked.bench> "
                                  "<oracle.bench> [timeout_s])");
    }
    if (positional.size() > 2) {
      timeout_s = runtime::parse_seconds_flag("timeout_s", positional[2]);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "attack: %s\n", e.what());
    return 2;
  }
  if (positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: attack <locked.bench> <oracle.bench> [timeout_s]\n"
                 "  --attack NAME   one of: %s (default: auto)\n"
                 "  --require-key   exit 3 unless a key is recovered and "
                 "not refuted\n"
                 "  --trace FILE    per-DIP-iteration JSONL trace\n",
                 attacks::attack_names().c_str());
    return 2;
  }
  // Scheme and parameters come back from the .bench provenance header when
  // the lock was made by this tool; foreign files fall back to "file".
  core::LockedCircuit locked = lock::read_locked_circuit(positional[0]);
  const netlist::Netlist oracle_netlist =
      netlist::read_bench_file(positional[1]);
  const attacks::Oracle oracle(oracle_netlist);
  attacks::AttackOptions options;
  options.timeout_s = timeout_s;
  options.memory_limit_mb = run_args.memory_limit_mb;
  attacks::TraceFile trace(run_args.trace_path);
  options.trace = trace.sink();

  attacks::RunResult run =
      attacks::run(attack_name, locked.netlist, oracle, options);
  const attacks::AttackResult& result = run.result;
  std::printf("%s attack on %s [scheme %s] (%zu key bits): %s\n",
              run.attack.c_str(), positional[0].c_str(), locked.scheme.c_str(),
              locked.netlist.num_keys(), to_string(result.status));
  std::printf("iterations %llu, %.2f s, %llu oracle queries, mean iteration "
              "%.4f s, mean clause/var ratio %.2f\n",
              static_cast<unsigned long long>(result.iterations),
              result.seconds,
              static_cast<unsigned long long>(result.oracle_queries),
              result.mean_iteration_seconds, result.mean_clause_var_ratio);
  if (!run.detail.empty()) {
    std::printf("%s: %s\n", run.attack.c_str(), run.detail.str().c_str());
  }
  attacks::grade_key(run, oracle_netlist, locked.netlist);
  const bool accepted =
      run.key_check.has_value() && *run.key_check != core::KeyCheck::kRefuted;
  if (run.key_check.has_value()) {
    std::printf("%s key (%s):",
                result.status == attacks::AttackStatus::kApproximate
                    ? "approximate"
                    : "recovered",
                core::to_string(*run.key_check));
    for (const bool b : result.key) std::printf("%d", b ? 1 : 0);
    std::printf("\n");
  }
  return require_key && !accepted ? 3 : 0;
}

int cmd_sweep(int argc, char** argv, const runtime::RunnerArgs& run_args) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: sweep <in.bench> [sizes...] (--scheme LIST, "
                 "--opt K=V, --attack NAME, --jobs N, --jsonl PATH, "
                 "--resume, --mem-mb M, --trace PATH)\n");
    return 2;
  }
  std::string bench_path;
  std::vector<std::string> schemes;
  std::vector<int> sizes;
  std::string scheme_params;
  int replicas = 3;
  attacks::SweepSpec spec;
  spec.timeout_s = 10.0;
  std::vector<attacks::SweepCell> cells;
  try {
    bench_path = positional_arg(argv[2]);
    for (int i = 3; i < argc; ++i) {
      if (parse_attack_flag(argc, argv, i, spec.attack)) continue;
      if (auto v = flag_value("--scheme", argc, argv, i)) {
        // Split "a,b,c" scheme lists into grid values.
        for (std::size_t from = 0; from < v->size();) {
          std::size_t comma = v->find(',', from);
          if (comma == std::string::npos) comma = v->size();
          if (comma > from) schemes.push_back(v->substr(from, comma - from));
          from = comma + 1;
        }
      } else if (auto v = flag_value("--opt", argc, argv, i)) {
        append_opt(scheme_params, *v);
      } else {
        sizes.push_back(parse_size(positional_arg(argv[i])));
      }
    }
    if (const char* env = std::getenv("FULLLOCK_SWEEP_SEEDS")) {
      replicas = static_cast<int>(
          runtime::parse_int_flag("FULLLOCK_SWEEP_SEEDS", env, 1, 1000000));
    }
    if (const char* env = std::getenv("FULLLOCK_SEED")) {
      spec.seed = parse_seed("FULLLOCK_SEED", env);
    }
    if (const char* env = std::getenv("FULLLOCK_TIMEOUT_S")) {
      spec.timeout_s = runtime::parse_seconds_flag("FULLLOCK_TIMEOUT_S", env);
    }
    if (schemes.empty()) schemes = {"full-lock"};
    // Every cell is validated before the grid runs, so a bad parameter
    // fails the whole sweep at parse time, not cell 37.
    cells = attacks::scheme_grid(schemes, sizes, scheme_params, replicas,
                                 spec.seed);
    attacks::validate_sweep(cells);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 2;
  }

  const netlist::Netlist host = netlist::read_bench_file(bench_path);
  const attacks::SweepResult sweep =
      attacks::run_sweep({&host, 1}, std::move(cells), spec, run_args);
  std::printf("sweep %s: %zu cells on %d worker(s), %zu resumed\n",
              bench_path.c_str(), sweep.cells.size(), run_args.jobs,
              sweep.report.skipped);
  std::printf("%-11s %-6s %-8s %-10s %-12s %-10s %s\n", "scheme", "size",
              "replica", "key_bits", "status", "iters", "time_s");
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const attacks::SweepCell& cell = sweep.cells[i];
    // scheme_grid's order: the replica varies fastest.
    const int replica = static_cast<int>(i % replicas);
    if (sweep.report.cells[i].status != runtime::CellOutcome::Status::kOk) {
      std::printf("%-11s %-6d %-8d %-10s %-12s\n", cell.scheme.c_str(),
                  cell.sizes[0], replica, "-",
                  runtime::to_string(sweep.report.cells[i].status));
      continue;
    }
    const attacks::AttackResult& attack = cell.run.result;
    std::printf("%-11s %-6d %-8d %-10zu %-12s %-10llu %.2f\n",
                cell.scheme.c_str(), cell.sizes[0], replica, cell.key_bits,
                attacks::to_string(attack.status),
                static_cast<unsigned long long>(attack.iterations),
                attack.seconds);
  }
  return sweep.exit_code;
}

int cmd_report(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: report <netlist.bench>\n");
    return 2;
  }
  const netlist::Netlist n = netlist::read_bench_file(argv[2]);
  std::printf("%s: %zu inputs, %zu keys, %zu outputs, %zu gates%s\n",
              n.name().c_str(), n.num_inputs(), n.num_keys(), n.num_outputs(),
              n.num_logic_gates(), n.is_cyclic() ? " (cyclic)" : "");
  const auto hist = n.type_histogram();
  for (std::size_t t = 0; t < hist.size(); ++t) {
    if (hist[t] == 0) continue;
    std::printf("  %-6s %zu\n",
                std::string(netlist::to_string(
                                static_cast<netlist::GateType>(t)))
                    .c_str(),
                hist[t]);
  }
  const ppa::PpaReport ppa_report = ppa::estimate_ppa(n);
  std::printf("area %.1f um2, power %.1f nW, critical delay %.3f ns\n",
              ppa_report.area_um2, ppa_report.power_nw,
              ppa_report.critical_delay_ns);
  return 0;
}

int cmd_serve(int argc, char** argv) {
  serve::ServeArgs args;
  try {
    args = serve::parse_serve_args(argc, argv, 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "serve: %s\nusage: serve <socket> [--state FILE] "
                 "[--workers N] [--max-queue N] [--job-timeout S] "
                 "[--stall-grace S]\n",
                 e.what());
    return 2;
  }
  serve::Daemon daemon(std::move(args));
  return daemon.serve_forever();
}

// The job spec of `submit <socket> lock|attack|sweep ...`, validated as the
// daemon would at admission; nullopt when `op` names no job kind or a path
// is missing (the caller prints usage). Bad flags and values throw
// std::invalid_argument or serve::ProtocolError naming them.
std::optional<serve::JobSpec> parse_job_spec(const std::string& op, int argc,
                                             char** argv) {
  serve::JobSpec spec;
  if (op == "lock") {
    spec.kind = serve::JobKind::kLock;
  } else if (op == "attack") {
    spec.kind = serve::JobKind::kAttack;
  } else if (op == "sweep") {
    spec.kind = serve::JobKind::kSweep;
  } else {
    return std::nullopt;
  }
  std::vector<std::string> positional;
  for (int i = 4; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (auto v = flag_value("--priority", argc, argv, i)) {
      spec.priority = static_cast<int>(
          runtime::parse_int_flag("--priority", *v, -1000, 1000));
    } else if (auto v = flag_value("--job-timeout", argc, argv, i)) {
      spec.timeout_s = runtime::parse_seconds_flag("--job-timeout", *v);
    } else if (auto v = flag_value("--mem-mb", argc, argv, i)) {
      spec.memory_limit_mb = static_cast<std::size_t>(
          runtime::parse_int_flag("--mem-mb", *v, 0, 1LL << 40));
    } else if (auto v = flag_value("--attack", argc, argv, i)) {
      spec.attack = *v;
    } else if (auto v = flag_value("--scheme", argc, argv, i)) {
      spec.scheme = *v;
    } else if (auto v = flag_value("--opt", argc, argv, i)) {
      append_opt(spec.scheme_params, *v);
    } else if (auto v = flag_value("--attack-timeout", argc, argv, i)) {
      spec.attack_timeout_s =
          runtime::parse_seconds_flag("--attack-timeout", *v);
    } else if (auto v = flag_value("--jsonl", argc, argv, i)) {
      spec.jsonl_path = *v;
    } else if (auto v = flag_value("--replicas", argc, argv, i)) {
      spec.replicas = static_cast<int>(
          runtime::parse_int_flag("--replicas", *v, 1, 1000000));
    } else if (auto v = flag_value("--seed", argc, argv, i)) {
      spec.seed = parse_seed("--seed", *v);
    } else if (arg == "--resume") {
      spec.resume = true;
    } else if (arg == "--detach") {
      spec.detach = true;
    } else if (arg == "--trace") {
      spec.trace = true;
    } else if (!arg.empty() && arg[0] != '-') {
      positional.emplace_back(arg);
    } else {
      throw std::invalid_argument("unknown flag '" + std::string(arg) + "'");
    }
  }
  std::size_t sizes_from = 0;
  if (spec.kind == serve::JobKind::kLock) {
    if (positional.size() < 2) return std::nullopt;
    spec.bench_path = positional[0];
    spec.out_path = positional[1];
    sizes_from = 2;
  } else if (spec.kind == serve::JobKind::kAttack) {
    if (positional.size() < 2) return std::nullopt;
    spec.locked_path = positional[0];
    spec.oracle_path = positional[1];
    sizes_from = positional.size();
  } else {
    if (positional.empty()) return std::nullopt;
    spec.bench_path = positional[0];
    sizes_from = 1;
  }
  for (std::size_t i = sizes_from; i < positional.size(); ++i) {
    spec.sizes.push_back(static_cast<int>(
        runtime::parse_int_flag("size", positional[i], 2, 4096)));
  }
  // Full admission-time validation (attack and scheme names, scheme
  // parameters) lives in validate_spec, shared with the daemon.
  serve::validate_spec(spec);
  return spec;
}

int cmd_submit(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(
        stderr,
        "usage: submit <socket> <op> ...\n"
        "  lock <in.bench> <out.bench> [sizes...] [--scheme NAME]\n"
        "       [--opt K=V,...] [--seed S]\n"
        "  attack <locked.bench> <oracle.bench> [--attack NAME]\n"
        "         [--attack-timeout S] [--trace]\n"
        "  sweep <in.bench> --jsonl PATH [sizes...] [--scheme NAME]\n"
        "        [--opt K=V,...] [--replicas N] [--seed S] [--resume]\n"
        "        [--attack NAME] [--attack-timeout S]\n"
        "  status [ID] | cancel <ID> | shutdown\n"
        "job flags (lock/attack/sweep): --priority P, --job-timeout S,\n"
        "  --mem-mb M, --detach\n"
        "exit codes: 0 done, 1 failed, 2 usage, 3 rejected, "
        "4 cancelled/interrupted, 5 connection lost\n");
    return serve::ClientExit::kUsage;
  };
  if (argc < 4) return usage();
  const std::string socket_path = argv[2];
  const std::string op = argv[3];
  // Every argument is parsed and the job spec validated before the socket
  // is touched: a usage error exits 2 whether or not a daemon listens.
  std::optional<std::uint64_t> id;
  std::optional<serve::JobSpec> spec;
  try {
    if (op == "status") {
      if (argc > 4) {
        id = static_cast<std::uint64_t>(
            runtime::parse_int_flag("status id", argv[4], 1));
      }
    } else if (op == "cancel") {
      if (argc < 5) return usage();
      id = static_cast<std::uint64_t>(
          runtime::parse_int_flag("cancel id", argv[4], 1));
    } else if (op != "shutdown") {
      spec = parse_job_spec(op, argc, argv);
      if (!spec.has_value()) return usage();
    }
  } catch (const std::exception& e) {  // std::invalid_argument, ProtocolError
    std::fprintf(stderr, "submit: %s\n", e.what());
    return serve::ClientExit::kUsage;
  }
  try {
    serve::ServeClient client(socket_path);
    if (spec.has_value()) return client.submit_and_stream(*spec, std::cout);
    if (op == "status") return client.status(id, std::cout);
    if (op == "cancel") return client.cancel(*id, std::cout);
    return client.shutdown(std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "submit: %s\n", e.what());
    return serve::ClientExit::kConnectionLost;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    // serve/submit own their flag namespace (--jsonl names the job's
    // checkpoint, --mem-mb the job's budget, ...): stripping the shared
    // runner flags here would eat them before the subcommand parses them.
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "submit") return cmd_submit(argc, argv);
    // Strips the shared runner flags (--jobs/--jsonl/--resume/--mem-mb/
    // --trace and their FL_* envs); attack and sweep consume them, the
    // single-shot subcommands ignore them. A bad value is a usage error
    // like any other flag's.
    runtime::RunnerArgs run_args;
    try {
      run_args = runtime::parse_runner_args(argc, argv);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
      return 2;
    }
    if (cmd == "lock") return cmd_lock(argc, argv);
    if (cmd == "schemes") return cmd_schemes(argc, argv);
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "attack") return cmd_attack(argc, argv, run_args);
    if (cmd == "sweep") return cmd_sweep(argc, argv, run_args);
    if (cmd == "report") return cmd_report(argc, argv);
    std::fprintf(stderr,
                 "usage: %s lock|schemes|gen|attack|sweep|report|serve|submit "
                 "...\n",
                 argc > 0 ? argv[0] : "fulllock_cli");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
