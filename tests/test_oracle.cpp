// Oracle: query semantics and accounting.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "attacks/oracle.h"
#include "netlist/profiles.h"

namespace fl::attacks {
namespace {

TEST(Oracle, MatchesDirectSimulation) {
  const netlist::Netlist c17 = netlist::make_c17();
  const Oracle oracle(c17);
  for (int x = 0; x < 32; ++x) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = ((x >> i) & 1) != 0;
    EXPECT_EQ(oracle.query(in), netlist::eval_once(c17, in, {}));
  }
}

TEST(Oracle, CountsQueries) {
  const Oracle oracle(netlist::make_c17());
  EXPECT_EQ(oracle.num_queries(), 0u);
  oracle.query(std::vector<bool>(5, false));
  oracle.query(std::vector<bool>(5, true));
  EXPECT_EQ(oracle.num_queries(), 2u);
  const std::vector<netlist::Word> words(5, 0x1234);
  std::vector<netlist::Word> out(2);
  oracle.query_batch(words, 1, 64, out);
  EXPECT_EQ(oracle.num_queries(), 66u);
  // Partially packed words charge only the patterns actually present.
  oracle.query_batch(words, 1, 13, out);
  EXPECT_EQ(oracle.num_queries(), 79u);
  EXPECT_THROW(oracle.query_batch(words, 1, 0, out), std::invalid_argument);
  EXPECT_THROW(oracle.query_batch(words, 1, 65, out), std::invalid_argument);
  EXPECT_EQ(oracle.num_queries(), 79u);  // rejected calls charge nothing
}

TEST(Oracle, BatchChargesExactPatternCount) {
  const Oracle oracle(netlist::make_c17());
  const std::size_t n_words = 3;
  std::vector<netlist::Word> inputs(5 * n_words, 0xDEADBEEFCAFEF00Dull);
  std::vector<netlist::Word> outputs(2 * n_words);
  oracle.query_batch(inputs, n_words, 170, outputs);
  EXPECT_EQ(oracle.num_queries(), 170u);
  EXPECT_THROW(oracle.query_batch(inputs, n_words, 193, outputs),
               std::invalid_argument);
  EXPECT_EQ(oracle.num_queries(), 170u);
}

TEST(Oracle, RejectsKeyedCircuit) {
  netlist::Netlist n;
  const auto a = n.add_input("a");
  const auto k = n.add_key("k");
  n.mark_output(n.add_gate(netlist::GateType::kXor, {a, k}), "y");
  EXPECT_THROW(Oracle{n}, std::invalid_argument);
}

TEST(Oracle, RejectsWrongQueryWidth) {
  const Oracle oracle(netlist::make_c17());
  EXPECT_THROW(oracle.query(std::vector<bool>(3, false)),
               std::invalid_argument);
  std::vector<netlist::Word> out(2);
  EXPECT_THROW(oracle.query_batch(std::vector<netlist::Word>(4), 1, 1, out),
               std::invalid_argument);
  EXPECT_EQ(oracle.num_queries(), 0u);  // rejected calls charge nothing
}

TEST(Oracle, WideBatchMatchesSingleQueries) {
  // Every packed lane of a wide batch must agree with the one-pattern query
  // and with the scalar relaxation kernel.
  const netlist::Netlist c432 = netlist::make_circuit("c432", 5);
  const Oracle oracle(c432);
  const std::size_t n_words = 3;
  const std::size_t n_patterns = 150;  // partially filled last word
  std::mt19937_64 rng(11);
  std::vector<netlist::Word> inputs(c432.num_inputs() * n_words);
  for (auto& w : inputs) w = rng();
  std::vector<netlist::Word> outputs(c432.num_outputs() * n_words);
  oracle.query_batch(inputs, n_words, n_patterns, outputs);

  for (const std::size_t p : {std::size_t{0}, std::size_t{63},
                              std::size_t{64}, std::size_t{149}}) {
    const std::size_t w = p / 64;
    const int bit = static_cast<int>(p % 64);
    std::vector<bool> pattern(c432.num_inputs());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = ((inputs[i * n_words + w] >> bit) & 1) != 0;
    }
    const std::vector<bool> expected = oracle.query(pattern);
    const std::vector<netlist::Word> reference =
        netlist::simulate_cyclic(c432, netlist::broadcast(pattern), {})
            .outputs;
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ((reference[o] & 1) != 0, expected[o]);
      EXPECT_EQ(((outputs[o * n_words + w] >> bit) & 1) != 0, expected[o])
          << "pattern " << p << " output " << o;
    }
  }
}

TEST(Oracle, ConcurrentQueriesMatchSerial) {
  // One oracle serving several attacks at once: four threads share it and
  // mix single queries with wide batches. Every answer equals the serial
  // answer and the counter equals the sum of the charges.
  const netlist::Netlist c432 = netlist::make_circuit("c432", 5);
  const Oracle serial(c432);
  const Oracle shared(c432);
  constexpr int kThreads = 4;
  constexpr int kCalls = 24;
  const std::size_t n_in = c432.num_inputs();
  const std::size_t n_out = c432.num_outputs();
  const std::size_t n_words = 9;  // one full simd block plus a tail word
  // A single query when `pattern` is set, else a batch; `bits` / `words`
  // hold the serial answer.
  struct Call {
    std::vector<bool> pattern, bits;
    std::vector<netlist::Word> inputs, words;
    std::size_t n_patterns = 0;
  };
  std::vector<std::vector<Call>> calls(kThreads);
  std::uint64_t charged = 0;
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(100 + t);
    for (int c = 0; c < kCalls; ++c) {
      Call& call = calls[t].emplace_back();
      if (c % 2 == 0) {
        for (std::size_t i = 0; i < n_in; ++i) {
          call.pattern.push_back((rng() & 1) != 0);
        }
        call.bits = serial.query(call.pattern);
        charged += 1;
      } else {
        call.inputs.resize(n_in * n_words);
        for (auto& w : call.inputs) w = rng();
        call.n_patterns = 1 + rng() % (n_words * 64);
        call.words.resize(n_out * n_words);
        serial.query_batch(call.inputs, n_words, call.n_patterns, call.words);
        charged += call.n_patterns;
      }
    }
  }
  ASSERT_EQ(serial.num_queries(), charged);

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<netlist::Word> out(n_out * n_words);
      for (const Call& call : calls[t]) {
        if (!call.pattern.empty()) {
          if (shared.query(call.pattern) != call.bits) ++mismatches[t];
          continue;
        }
        shared.query_batch(call.inputs, n_words, call.n_patterns, out);
        if (out != call.words) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
  EXPECT_EQ(shared.num_queries(), charged);
}

}  // namespace
}  // namespace fl::attacks
