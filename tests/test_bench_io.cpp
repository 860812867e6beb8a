// .bench reader/writer: round-trips, key-input convention, error paths.
#include <gtest/gtest.h>

#include <random>

#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::netlist {
namespace {

TEST(BenchIo, ParsesC17) {
  const Netlist c17 = make_c17();
  EXPECT_EQ(c17.num_inputs(), 5u);
  EXPECT_EQ(c17.num_outputs(), 2u);
  EXPECT_EQ(c17.num_logic_gates(), 6u);
  const auto hist = c17.type_histogram();
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kNand)], 6u);
}

TEST(BenchIo, KeyInputConvention) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = XOR(a, keyinput0)
)");
  EXPECT_EQ(n.num_inputs(), 1u);
  EXPECT_EQ(n.num_keys(), 1u);
}

TEST(BenchIo, RoundTripPreservesFunction) {
  GeneratorConfig config;
  config.num_inputs = 8;
  config.num_outputs = 4;
  config.num_gates = 60;
  config.seed = 21;
  const Netlist original = generate_circuit(config);
  const Netlist reparsed =
      read_bench_string(write_bench_string(original), "reparsed");
  ASSERT_EQ(reparsed.num_inputs(), original.num_inputs());
  ASSERT_EQ(reparsed.num_outputs(), original.num_outputs());
  std::mt19937_64 rng(9);
  for (int round = 0; round < 16; ++round) {
    std::vector<Word> in(original.num_inputs());
    for (Word& w : in) w = rng();
    const auto out_a = simulate(original, in, {}, 1).outputs;
    const auto out_b = simulate(reparsed, in, {}, 1).outputs;
    for (std::size_t o = 0; o < out_a.size(); ++o) {
      ASSERT_EQ(out_a[o], out_b[o]) << "round " << round << " output " << o;
    }
  }
}

TEST(BenchIo, OutOfOrderDefinitionsResolve) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = NOT(t)      # uses t before its definition
t = BUF(a)
)");
  EXPECT_EQ(n.num_logic_gates(), 2u);
  EXPECT_FALSE(n.is_cyclic());
}

TEST(BenchIo, CyclicBenchIsRepresentable) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = OR(a, z)
z = BUF(y)
)");
  EXPECT_TRUE(n.is_cyclic());
  // And it round-trips.
  const Netlist again = read_bench_string(write_bench_string(n));
  EXPECT_TRUE(again.is_cyclic());
}

TEST(BenchIo, MuxAndConstantsSupported) {
  const Netlist n = read_bench_string(R"(
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
c1 = CONST1()
m = MUX(s, a, b)
y = AND(m, c1)
)");
  EXPECT_EQ(n.num_logic_gates(), 2u);
  const auto out = eval_once(n, std::vector<bool>{true, false, true}, {});
  EXPECT_TRUE(out[0]);  // s=1 selects b=1
}

TEST(BenchIo, ErrorsAreLineNumbered) {
  try {
    read_bench_string("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(BenchIo, UndefinedSignalRejected) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n"),
               std::runtime_error);
}

TEST(BenchIo, UndefinedOutputRejected) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(nope)\n"),
               std::runtime_error);
}

TEST(BenchIo, DuplicateDefinitionRejected) {
  EXPECT_THROW(
      read_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"),
      std::runtime_error);
}

TEST(BenchIo, CommentsAndBlankLinesIgnored) {
  const Netlist n = read_bench_string(R"(
# header comment

INPUT(a)   # trailing comment
OUTPUT(y)
y = NOT(a)
)");
  EXPECT_EQ(n.num_logic_gates(), 1u);
}

TEST(BenchIo, MalformedDeclarationsAreLineNumbered) {
  const struct {
    const char* text;
    int line;
  } cases[] = {
      {"INPUT(a\nOUTPUT(y)\ny = NOT(a)\n", 1},       // missing ')'
      {"INPUT(a)\nOUTPUT(y) junk\ny = NOT(a)\n", 2},  // trailing characters
      {"INPUT(a)\nOUTPUT()\ny = NOT(a)\n", 2},        // empty name
      {"INPUT(a)\nOUTPUT(a=b)\ny = NOT(a)\n", 2},     // structural char in name
      {"INPUT(a)\nFROB(a)\ny = NOT(a)\n", 2},         // unknown declaration
      {"INPUT(a)\nOUTPUT(y)\njust a bare line\n", 3},  // no '=' and no '('
  };
  for (const auto& c : cases) {
    try {
      read_bench_string(c.text);
      FAIL() << "expected parse error for: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what())
                    .find("line " + std::to_string(c.line)),
                std::string::npos)
          << c.text << " -> " << e.what();
    }
  }
}

TEST(BenchIo, MalformedGateDefinitionsAreLineNumbered) {
  const struct {
    const char* text;
    int line;
  } cases[] = {
      {"INPUT(a)\nOUTPUT(y)\ny = NOT a\n", 3},        // missing '('
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a\n", 3},        // missing ')'
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a) x\n", 3},     // trailing characters
      {"INPUT(a)\nOUTPUT(y)\ny =\n", 3},              // empty right-hand side
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a,)\n", 3},      // dangling comma
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n", 3},    // empty fanin token
      {"INPUT(a)\nOUTPUT(y)\n = NOT(a)\n", 3},        // empty gate name
  };
  for (const auto& c : cases) {
    try {
      read_bench_string(c.text);
      FAIL() << "expected parse error for: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what())
                    .find("line " + std::to_string(c.line)),
                std::string::npos)
          << c.text << " -> " << e.what();
    }
  }
}

TEST(BenchIo, ConstGatesStillAcceptEmptyArgumentList) {
  const Netlist n = read_bench_string("OUTPUT(y)\ny = CONST1()\n");
  const auto out = eval_once(n, std::vector<bool>{}, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0]);
}

TEST(BenchIo, WriterEmitsKeysAsKeyinputs) {
  Netlist n;
  n.add_input("a");
  const GateId k = n.add_key("keyinput0");
  const GateId g = n.add_gate(GateType::kXor, {0, k}, "y");
  n.mark_output(g, "y");
  const Netlist round = read_bench_string(write_bench_string(n));
  EXPECT_EQ(round.num_keys(), 1u);
}

}  // namespace
}  // namespace fl::netlist
