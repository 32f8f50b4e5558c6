#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "aig/simulate.hpp"
#include "benchgen/iscas85.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/dot_io.hpp"
#include "netlist/netlist.hpp"

namespace xsfq {
namespace {

constexpr const char* k_bench_text = R"(
# full adder
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(s)
OUTPUT(cout)
x = XOR(a, b)
s = XOR(x, cin)
t1 = AND(a, b)
t2 = AND(x, cin)
cout = OR(t1, t2)
)";

TEST(Bench, ParsesFullAdder) {
  const netlist n = read_bench_string(k_bench_text, "fa");
  EXPECT_EQ(n.num_inputs(), 3u);
  EXPECT_EQ(n.num_outputs(), 2u);
  EXPECT_EQ(n.num_gates(), 5u);
  const aig g = n.to_aig();
  // Validate function.
  const auto tables = compute_co_tables(g);
  const auto a = truth_table::nth_var(3, 0);
  const auto b = truth_table::nth_var(3, 1);
  const auto c = truth_table::nth_var(3, 2);
  EXPECT_EQ(tables[0], a ^ b ^ c);
  EXPECT_EQ(tables[1], (a & b) | (a & c) | (b & c));
}

TEST(Bench, ForwardReferencesAllowed) {
  const netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = BUFF(a)\n");
  const aig g = n.to_aig();
  EXPECT_EQ(compute_co_tables(g)[0], ~truth_table::nth_var(1, 0));
}

TEST(Bench, SequentialDffWithInit) {
  const netlist n = read_bench_string(
      "INPUT(d)\nOUTPUT(q)\nq = DFF(d, 1)\n");
  const aig g = n.to_aig();
  EXPECT_EQ(g.num_registers(), 1u);
  EXPECT_TRUE(g.register_at(0).init);
  sequential_simulator sim(g);
  EXPECT_EQ(sim.step({false})[0], true);   // init value
  EXPECT_EQ(sim.step({true})[0], false);   // captured 0
  EXPECT_EQ(sim.step({false})[0], true);
}

TEST(Bench, RoundTripThroughWriter) {
  const netlist n = read_bench_string(k_bench_text, "fa");
  const std::string text = write_bench_string(n);
  const netlist n2 = read_bench_string(text, "fa");
  EXPECT_TRUE(exhaustive_equivalent(n.to_aig(), n2.to_aig()));
}

TEST(Bench, AigRoundTrip) {
  const aig g = benchgen::make_c432();
  const netlist n = netlist_from_aig(g, "c432");
  const std::string text = write_bench_string(n);
  const aig g2 = read_bench_string(text).to_aig();
  EXPECT_TRUE(random_equivalent(g, g2, 32, 9));
}

TEST(Bench, Errors) {
  EXPECT_THROW(read_bench_string("y = FROB(a)\n"), std::invalid_argument);
  EXPECT_THROW(read_bench_string("INPUT(a)\ny = NOT(a, a)\n"),
               std::invalid_argument);
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\n"),
               std::invalid_argument);  // y undriven
  EXPECT_THROW(read_bench_string("INPUT(a)\na = NOT(a)\n"),
               std::invalid_argument);  // driven twice
}

constexpr const char* k_blif_text = R"(
.model mux
.inputs s a b
.outputs y
.names s a t0
11 1
.names s b t1
01 1
.names t0 t1 y
1- 1
-1 1
.end
)";

TEST(Blif, ParsesMux) {
  const netlist n = read_blif_string(k_blif_text);
  EXPECT_EQ(n.name(), "mux");
  const aig g = n.to_aig();
  const auto tables = compute_co_tables(g);
  const auto s = truth_table::nth_var(3, 0);
  const auto a = truth_table::nth_var(3, 1);
  const auto b = truth_table::nth_var(3, 2);
  EXPECT_EQ(tables[0], (s & a) | (~s & b));
}

TEST(Blif, OffsetCover) {
  // Output listed through its offset: y=0 exactly when a=1,b=1 -> y = NAND.
  const netlist n = read_blif_string(
      ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n");
  const aig g = n.to_aig();
  EXPECT_EQ(compute_co_tables(g)[0],
            ~(truth_table::nth_var(2, 0) & truth_table::nth_var(2, 1)));
}

TEST(Blif, LatchWithInit) {
  const netlist n = read_blif_string(
      ".model c\n.inputs d\n.outputs q\n.latch d q re clk 1\n.end\n");
  const aig g = n.to_aig();
  EXPECT_EQ(g.num_registers(), 1u);
  EXPECT_TRUE(g.register_at(0).init);
}

TEST(Blif, ConstantNames) {
  const netlist n = read_blif_string(
      ".model k\n.outputs one zero\n.names one\n1\n.names zero\n.end\n");
  const aig g = n.to_aig();
  const auto tables = compute_co_tables(g);
  EXPECT_TRUE(tables[0].is_const1());
  EXPECT_TRUE(tables[1].is_const0());
}

TEST(Blif, RoundTripThroughWriter) {
  const netlist n = read_blif_string(k_blif_text);
  const netlist n2 = read_blif_string(write_blif_string(n));
  EXPECT_TRUE(exhaustive_equivalent(n.to_aig(), n2.to_aig()));
}

TEST(Blif, AigWithRegistersRoundTrip) {
  aig g;
  const signal in = g.create_pi("in");
  const signal r = g.create_register_output(true, "st");
  g.set_register_input(0, g.create_xor(in, r));
  g.create_po(g.create_and(r, in), "out");
  const netlist n = netlist_from_aig(g, "seq");
  const aig g2 = read_blif_string(write_blif_string(n)).to_aig();
  EXPECT_TRUE(random_sequential_equivalent(g, g2, 8, 64));
}

TEST(NetlistFiles, FileReadersMatchStringReaders) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("xsfq_netlist_io_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string bench_path = (dir / "fa.bench").string();
  const std::string blif_path = (dir / "mux.blif").string();
  std::ofstream(bench_path) << k_bench_text;
  std::ofstream(blif_path) << k_blif_text;

  const netlist bench = read_bench_file(bench_path);
  EXPECT_EQ(bench.name(), "fa");  // named after the file
  EXPECT_EQ(bench.to_aig().content_hash(),
            read_bench_string(k_bench_text, "fa").to_aig().content_hash());
  const netlist blif = read_blif_file(blif_path);
  EXPECT_EQ(blif.name(), "mux");
  EXPECT_EQ(blif.to_aig().content_hash(),
            read_blif_string(k_blif_text).to_aig().content_hash());

  EXPECT_THROW(read_bench_file((dir / "missing.bench").string()),
               std::invalid_argument);
  EXPECT_THROW(read_blif_file((dir / "missing.blif").string()),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(Dot, ContainsStructure) {
  aig g;
  const signal a = g.create_pi("a");
  const signal b = g.create_pi("b");
  g.create_po(!g.create_and(a, b), "y");
  const std::string dot = write_dot_string(g, "t");
  EXPECT_NE(dot.find("digraph t"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);  // the PO inversion
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
}

}  // namespace
}  // namespace xsfq
