// Netlist-substrate benchmark: proves the arena/SIMD stack at production
// scale (Table-5-shaped synthetic circuits scaled to 64K–1M gates).
//
// Per profile the bench runs the full substrate path end-to-end:
//   generate -> graph caches (topo/fanout/levels) -> structural hashing
//   (optimize) -> oracle simulation throughput, one-word query_batch()
//   calls vs one wide batch -> Full-Lock PLR lock -> iteration-bounded SAT
//   attack -> verify_unlocks with the correct key.
//
// Emits one JSONL record per profile plus a trailing summary record to
// BENCH_netlist.json (--out PATH). Wall-clock and throughput fields carry
// the `_s` suffix (the only fields allowed to differ between runs);
// `speedup` follows the bench_solver precedent. The oracle accounting
// check (`accounting_ok`) asserts num_queries() == patterns evaluated.
// Each profile runs --repeat times: every timed field `<x>_s` is the
// fastest run, and `<x>_q1_s` / `<x>_median_s` / `<x>_q3_s` give the
// spread; the throughput fields and `speedup` come from the fastest walls.
// The other fields are the same in every run, and the checks must hold in
// every run.
//
// Flags:
//   --smoke       synth64k only, small pattern counts, one run (CI
//                 sanitizers)
//   --out PATH    output file (default BENCH_netlist.json)
//   --repeat N    runs per profile (default 3)
//   --attack-iters N  iteration bound of the SAT attack (default 2)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "attacks/engine.h"
#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "bench/bench_util.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "netlist/optimize.h"
#include "netlist/profiles.h"
#include "netlist/simd.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"

namespace {

using Clock = std::chrono::steady_clock;
using fl::netlist::GateId;
using fl::netlist::Word;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ProfileResult {
  std::string name;
  std::size_t gates = 0;
  std::size_t gates_after_opt = 0;
  std::size_t key_bits = 0;
  double gen_s = 0.0;
  double graph_build_s = 0.0;
  double graph_requery_s = 0.0;
  double optimize_s = 0.0;
  fl::netlist::OptimizeStats opt_stats;
  // Throughput suite: one-word batches (base) against one wide batch.
  std::size_t patterns = 0;
  double base_wall_s = 0.0;
  double wide_wall_s = 0.0;
  bool match_ok = false;       // wide outputs == one-word outputs
  bool accounting_ok = false;  // oracle charged exactly the patterns run
  // Lock + bounded attack (the engine's key-cone encoding behind base-miter
  // preprocessing) + verify.
  double lock_s = 0.0;
  std::string attack_status;
  std::uint64_t attack_iterations = 0;
  std::uint64_t attack_queries = 0;
  double attack_wall_s = 0.0;
  // Clauses *added* per DIP iteration: the cone encoding sweeps the fixed
  // region with the SIMD simulator and only emits the key-dependent residue
  // that reaches a symbolic output pin. The base miter is reported
  // separately.
  double cone_clauses_per_iter = 0.0;
  // Clauses committed per DIP for the same fixed patterns by the attack's
  // MiterContext (cone) and by the full-circuit encoding at the cnf layer
  // (legacy). Both commit each DIP constraint as its projection onto the key
  // variables. encode_ok gates on these.
  double legacy_committed_per_dip = 0.0;
  double cone_committed_per_dip = 0.0;
  std::size_t cone_base_clauses = 0;
  double cone_encode_s_per_iter = 0.0;
  double cone_preprocess_s = 0.0;
  std::size_t pp_eliminated_vars = 0;
  bool encode_ok = false;    // cone commits no more per DIP than legacy
  bool verify_ok = false;
  double verify_s = 0.0;
  double total_wall_s = 0.0;
};

double per_iter(double total, std::uint64_t iters) {
  return total / static_cast<double>(std::max<std::uint64_t>(iters, 1));
}

// Regression gate: clauses committed per DIP constraint (both key copies)
// over 8 fixed random patterns, by the attack's MiterContext (cone) and by
// the full-circuit encoding at the cnf layer (legacy: the whole-netlist
// miter, then cnf::add_io_constraint on a plain solver). The cone encoding
// must never commit more.
void committed_per_dip(const fl::core::LockedCircuit& locked,
                       const fl::attacks::Oracle& oracle, ProfileResult& r) {
  constexpr int kPatterns = 8;
  std::mt19937_64 rng(0xD1Bull);
  std::vector<std::vector<bool>> patterns(kPatterns);
  std::vector<std::vector<bool>> responses;
  for (std::vector<bool>& p : patterns) {
    p.resize(locked.netlist.num_inputs());
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = (rng() & 1) != 0;
    responses.push_back(oracle.query(p));
  }

  fl::attacks::MiterContext ctx(
      locked.netlist, fl::attacks::MiterContext::double_key(), {});
  ctx.finalize_encoding();
  std::size_t before = ctx.solver().num_clauses();
  ctx.constrain_io_batch(patterns, responses);
  r.cone_committed_per_dip =
      static_cast<double>(ctx.solver().num_clauses() - before) / kPatterns;

  fl::sat::Solver solver;
  const fl::cnf::AttackMiter miter =
      fl::cnf::encode_attack_miter(locked.netlist, solver);
  before = solver.num_clauses();
  const std::vector<std::vector<fl::sat::Var>> key_copies = {miter.key1,
                                                             miter.key2};
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    fl::cnf::add_io_constraint(locked.netlist, solver, key_copies, patterns[p],
                               responses[p]);
  }
  r.legacy_committed_per_dip =
      static_cast<double>(solver.num_clauses() - before) / kPatterns;
  r.encode_ok = r.cone_committed_per_dip <= r.legacy_committed_per_dip;
}

// Oracle simulation throughput over the same random pattern matrix: one
// one-word query_batch() call per word (the baseline) vs one wide batch.
void run_throughput(const fl::netlist::Netlist& original, std::size_t n_words,
                    ProfileResult& r) {
  const std::size_t n_in = original.num_inputs();
  const std::size_t n_out = original.num_outputs();
  std::mt19937_64 rng(0xBE7C4ull);
  std::vector<Word> inputs(n_in * n_words);
  for (Word& w : inputs) w = rng();

  const fl::attacks::Oracle oracle(original);
  std::vector<Word> base_out(n_out * n_words);
  std::vector<Word> wide_out(n_out * n_words);
  r.patterns = n_words * 64;
  const auto base_start = Clock::now();
  std::vector<Word> in_w(n_in), out_w(n_out);
  for (std::size_t w = 0; w < n_words; ++w) {
    for (std::size_t i = 0; i < n_in; ++i) in_w[i] = inputs[i * n_words + w];
    oracle.query_batch(in_w, 1, 64, out_w);
    for (std::size_t o = 0; o < n_out; ++o) {
      base_out[o * n_words + w] = out_w[o];
    }
  }
  r.base_wall_s = seconds_since(base_start);

  const auto wide_start = Clock::now();
  oracle.query_batch(inputs, n_words, n_words * 64, wide_out);
  r.wide_wall_s = seconds_since(wide_start);
  r.match_ok = (base_out == wide_out);
  // Each path charged n_words*64; nothing more, nothing less — partial or
  // double charging shows up here immediately.
  r.accounting_ok = (oracle.num_queries() == 2ull * n_words * 64);
}

ProfileResult run_profile(const fl::netlist::BenchmarkProfile& profile,
                          std::size_t n_words, std::uint64_t attack_iters,
                          double timeout_s) {
  ProfileResult r;
  r.name = profile.name;
  const auto total_start = Clock::now();

  auto start = Clock::now();
  const fl::netlist::Netlist original = fl::netlist::make_circuit(profile, 1);
  r.gen_s = seconds_since(start);
  r.gates = original.num_gates();

  // Cold graph-cache build (one Kahn + fanout CSR) and one levels() walk,
  // then the cached re-query cost.
  start = Clock::now();
  (void)original.topo_span();
  (void)original.levels();
  (void)original.fanout(0);
  r.graph_build_s = seconds_since(start);
  start = Clock::now();
  for (int i = 0; i < 1000; ++i) (void)original.topo_span();
  r.graph_requery_s = seconds_since(start) / 1000.0;

  start = Clock::now();
  const fl::netlist::Netlist optimized =
      fl::netlist::optimize(original, &r.opt_stats);
  r.optimize_s = seconds_since(start);
  r.gates_after_opt = optimized.num_gates();

  run_throughput(original, n_words, r);

  start = Clock::now();
  fl::core::FullLockConfig config = fl::core::FullLockConfig::with_plrs(
      {16}, fl::core::ClnTopology::kShuffleBlocking,
      fl::core::CycleMode::kAvoid,
      /*twist_luts=*/false, /*negate_probability=*/0.5);
  config.seed = 7;
  const fl::core::LockedCircuit locked = fl::core::full_lock(original, config);
  r.lock_s = seconds_since(start);
  r.key_bits = locked.correct_key.size();

  // Iteration-bounded attack: enough to prove the DIP loop (miter CNF,
  // oracle queries, key extraction) runs at this scale, deterministic
  // because the bound — not the clock — ends it.
  const fl::attacks::Oracle oracle(original);
  fl::attacks::AttackOptions options;
  options.timeout_s = timeout_s;
  options.max_iterations = attack_iters;
  start = Clock::now();
  const fl::attacks::AttackResult attack =
      fl::attacks::run("sat", locked.netlist, oracle, options).result;
  r.attack_wall_s = seconds_since(start);
  r.attack_status = fl::attacks::to_string(attack.status);
  r.attack_iterations = attack.iterations;
  r.attack_queries = attack.oracle_queries;
  r.cone_base_clauses = attack.base_clauses;
  r.cone_clauses_per_iter =
      per_iter(static_cast<double>(attack.clauses_added), attack.iterations);
  r.cone_encode_s_per_iter = per_iter(attack.encode_seconds, attack.iterations);
  r.cone_preprocess_s = attack.preprocess.preprocess_s;
  r.pp_eliminated_vars = attack.preprocess.eliminated_vars;
  committed_per_dip(locked, oracle, r);

  start = Clock::now();
  r.verify_ok = fl::core::verify_unlocks(original, locked.netlist,
                                         locked.correct_key, /*rounds=*/4,
                                         /*seed=*/11);
  r.verify_s = seconds_since(start);
  r.total_wall_s = seconds_since(total_start);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool smoke = false;
    std::string out_path = "BENCH_netlist.json";
    int repeat = 3;
    std::uint64_t attack_iters = 2;
    const double timeout_s =
        fl::bench::env_seconds("FULLLOCK_TIMEOUT_S", 600.0);
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        smoke = true;
      } else if (auto v = fl::runtime::flag_value("--out", argc, argv, i)) {
        out_path = *v;
      } else if (auto v = fl::runtime::flag_value("--repeat", argc, argv, i)) {
        repeat = static_cast<int>(
            fl::runtime::parse_int_flag("--repeat", *v, 1, 1000000));
      } else if (auto v = fl::runtime::flag_value("--attack-iters", argc, argv,
                                                  i)) {
        attack_iters = static_cast<std::uint64_t>(
            fl::runtime::parse_int_flag("--attack-iters", *v, 1));
      } else {
        std::fprintf(stderr,
                     "usage: bench_netlist [--smoke] [--out PATH] [--repeat N] "
                     "[--attack-iters N]\n");
        return 1;
      }
    }

    std::vector<std::string> profile_names;
    if (smoke) {
      profile_names = {"synth64k"};
    } else {
      for (const auto& p : fl::netlist::scaled_profiles()) {
        profile_names.push_back(p.name);
      }
    }
    const std::size_t n_words = smoke ? 16 : 64;
    if (smoke) repeat = 1;

    // runs[p] holds profile p's --repeat runs.
    std::vector<std::vector<ProfileResult>> runs;
    for (const std::string& name : profile_names) {
      const auto profile = fl::netlist::find_profile(name);
      std::vector<ProfileResult>& profile_runs = runs.emplace_back();
      for (int rep = 0; rep < repeat; ++rep) {
        profile_runs.push_back(
            run_profile(*profile, n_words, attack_iters, timeout_s));
      }
      const ProfileResult& r = profile_runs.front();
      std::printf(
          "%-10s %8zu gates  gen %.2fs  graph %.2fs  opt %.2fs  "
          "sim %.2fx  attack %s/%llu  "
          "clauses/iter %.0f  committed/DIP %.0f -> %.0f  verify %s\n",
          r.name.c_str(), r.gates, r.gen_s, r.graph_build_s, r.optimize_s,
          r.base_wall_s / r.wide_wall_s, r.attack_status.c_str(),
          static_cast<unsigned long long>(r.attack_iterations),
          r.cone_clauses_per_iter, r.legacy_committed_per_dip,
          r.cone_committed_per_dip, r.verify_ok ? "ok" : "FAIL");
      std::fflush(stdout);
    }

    double log_speedup = 0.0, min_speedup = 1e100;
    bool all_ok = true;
    std::ofstream file = fl::runtime::open_jsonl(out_path);
    fl::runtime::JsonlSink sink(file);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::vector<ProfileResult>& rs = runs[i];
      const ProfileResult& r = rs.front();
      bool match_ok = true, accounting_ok = true, verify_ok = true,
           encode_ok = true;
      for (const ProfileResult& run : rs) {
        match_ok = match_ok && run.match_ok;
        accounting_ok = accounting_ok && run.accounting_ok;
        verify_ok = verify_ok && run.verify_ok;
        encode_ok = encode_ok && run.encode_ok;
      }
      all_ok = all_ok && match_ok && accounting_ok && verify_ok && encode_ok;
      // The runs' samples of one timed field, ascending.
      const auto samples = [&](double ProfileResult::*field) {
        std::vector<double> v;
        for (const ProfileResult& run : rs) v.push_back(run.*field);
        std::sort(v.begin(), v.end());
        return v;
      };
      const double base_wall = samples(&ProfileResult::base_wall_s).front();
      const double wide_wall = samples(&ProfileResult::wide_wall_s).front();
      const auto per_s = [&](double wall) {
        return wall > 0.0 ? static_cast<double>(r.patterns) / wall : 0.0;
      };
      const double speedup =
          base_wall > 0.0 && wide_wall > 0.0 ? base_wall / wide_wall : 0.0;
      log_speedup += std::log(std::max(speedup, 1e-9));
      min_speedup = std::min(min_speedup, speedup);

      fl::runtime::JsonObject o;
      o.field("bench", "bench_netlist")
          .field("suite", "substrate")
          .field("workload", r.name)
          .field("simd_level", fl::netlist::simd::kSimdLevel)
          .field("gates", r.gates)
          .field("gates_after_opt", r.gates_after_opt)
          .field("strash_merged", r.opt_stats.subexpressions_merged)
          .field("strash_absorptions", r.opt_stats.absorptions_applied)
          .field("strash_xor_cancelled", r.opt_stats.xor_pairs_cancelled)
          .field("patterns", r.patterns)
          .field("match_ok", match_ok)
          .field("accounting_ok", accounting_ok)
          .field("key_bits", r.key_bits)
          .field("attack_status", r.attack_status)
          .field("attack_iterations", r.attack_iterations)
          .field("attack_queries", r.attack_queries)
          .field("cone_base_clauses", r.cone_base_clauses)
          .field("cone_clauses_per_iter", r.cone_clauses_per_iter)
          .field("legacy_committed_per_dip", r.legacy_committed_per_dip)
          .field("cone_committed_per_dip", r.cone_committed_per_dip)
          .field("pp_eliminated_vars", r.pp_eliminated_vars)
          .field("encode_ok", encode_ok)
          .field("verify_ok", verify_ok)
          .field("repeat", rs.size())
          .field("speedup", speedup);
      // `<stem>_s` is the fastest run, then the quartiles over the runs.
      const auto timed = [&](const std::string& stem,
                             double ProfileResult::*field) {
        const std::vector<double> v = samples(field);
        o.field(stem + "_s", v.front())
            .field(stem + "_q1_s", fl::bench::quantile(v, 0.25))
            .field(stem + "_median_s", fl::bench::quantile(v, 0.5))
            .field(stem + "_q3_s", fl::bench::quantile(v, 0.75));
      };
      timed("gen", &ProfileResult::gen_s);
      timed("graph_build", &ProfileResult::graph_build_s);
      timed("graph_requery", &ProfileResult::graph_requery_s);
      timed("optimize", &ProfileResult::optimize_s);
      timed("base_wall", &ProfileResult::base_wall_s);
      timed("wide_wall", &ProfileResult::wide_wall_s);
      o.field("base_patterns_per_s", per_s(base_wall))
          .field("wide_patterns_per_s", per_s(wide_wall));
      timed("lock", &ProfileResult::lock_s);
      timed("attack_wall", &ProfileResult::attack_wall_s);
      timed("cone_encode_per_iter", &ProfileResult::cone_encode_s_per_iter);
      timed("cone_preprocess", &ProfileResult::cone_preprocess_s);
      timed("verify", &ProfileResult::verify_s);
      timed("total_wall", &ProfileResult::total_wall_s);
      sink.write(i, o.str());
    }
    const double geomean_speedup =
        runs.empty() ? 0.0
                     : std::exp(log_speedup / static_cast<double>(runs.size()));

    fl::runtime::JsonObject summary;
    summary.field("bench", "bench_netlist")
        .field("suite", "summary")
        .field("profiles", runs.size())
        .field("smoke", smoke)
        .field("simd_level", fl::netlist::simd::kSimdLevel)
        .field("all_checks_ok", all_ok)
        .field("min_speedup", min_speedup)
        .field("geomean_speedup", geomean_speedup)
        .field("attack_iters", attack_iters);
    sink.write_unordered(summary.str());
    sink.flush();
    std::printf(
        "\nsimd level %d, geomean sim speedup %.2fx (min %.2fx) -> %s\n",
        fl::netlist::simd::kSimdLevel, geomean_speedup, min_speedup,
        out_path.c_str());
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
