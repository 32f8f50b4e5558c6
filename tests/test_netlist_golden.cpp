/// Golden frontend-identity table for the .bench/.blif readers.
///
/// Every value below was recorded once and is never re-recorded: a reader
/// rewrite must reproduce today's netlists bit for bit — the same nets in
/// the same order with the same names, the same gates with the same fanin
/// order, the same lowered AIG (content hash, names included), and the same
/// typed error text, line number included, for malformed input.
///
///   * Registry corpus: each of the 38 benchgen circuits is written with
///     write_bench_string and write_blif_string (from netlist_from_aig) and
///     read back; the lowered AIG's content hash is pinned per format (76
///     values), and so is a fingerprint of the parsed netlist's structure.
///     For .bench the gate list must also round-trip exactly: every gate of
///     the written netlist comes back with the same kind, output name,
///     fanin names and init value.
///   * Dialect corner cases (CRLF, comments, case-insensitive gate names,
///     line continuations, helper-name collisions, don't-care covers) pin
///     the parsed structure the same way.
///   * Malformed inputs pin the exact exception text.
///   * Shuffled and reversed gate orders pin to_aig's node creation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchgen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/netlist.hpp"

namespace xsfq {
namespace {

/// FNV-1a over the fields a reader produces.
struct fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

/// Structure fingerprint: model name, every net name in index order, the
/// input/output lists, and every gate (kind, output, init, fanins in order).
std::uint64_t fingerprint(const netlist& n) {
  fnv1a h;
  h.str(n.name());
  h.u64(n.num_nets());
  for (std::size_t i = 0; i < n.num_nets(); ++i) {
    h.str(n.net_name(static_cast<netlist::net_index>(i)));
  }
  h.u64(n.num_inputs());
  for (const auto in : n.inputs()) h.u64(in);
  h.u64(n.num_outputs());
  for (const auto out : n.outputs()) h.u64(out);
  h.u64(n.num_gates());
  for (std::size_t i = 0; i < n.num_gates(); ++i) {
    const auto& g = n.gates()[i];
    h.u64(static_cast<std::uint64_t>(g.kind));
    h.u64(g.output);
    h.u64(g.init ? 1 : 0);
    h.u64(g.fanins.size());
    for (const auto f : g.fanins) h.u64(f);
  }
  return h.h;
}

/// One gate spelled by net names, so two netlists can be compared even
/// where their net numbering differs.
std::string gate_by_names(const netlist& n, std::size_t i) {
  const auto& g = n.gates()[i];
  std::string s = gate_kind_name(g.kind);
  s += ' ';
  s += std::string(n.net_name(g.output));
  for (const auto f : g.fanins) {
    s += ' ';
    s += std::string(n.net_name(f));
  }
  if (g.init) s += " init1";
  return s;
}

struct corpus_golden {
  const char* name;
  std::uint64_t bench_aig;
  std::uint64_t blif_aig;
  std::uint64_t bench_netlist;
  std::uint64_t blif_netlist;
};

// clang-format off
const corpus_golden k_corpus[] = {
    {"c432", 0xa60cec7287b7aea7ull, 0xa60cec7287b7aea7ull,
     0x1aa29c38064f4666ull, 0x5d3617115f1fdd04ull},
    {"c499", 0xc9d2b958ca709403ull, 0xc9d2b958ca709403ull,
     0x343cbaf275188ab6ull, 0x9e245c210fa77eaaull},
    {"c880", 0x6721470b46b01d49ull, 0x6721470b46b01d49ull,
     0xa377d9adb4dc4622ull, 0x823f48b9a7d4352bull},
    {"c1355", 0xc9d2b958ca709403ull, 0xc9d2b958ca709403ull,
     0xdd5ab0d8a148b303ull, 0x73e97668537b9dcbull},
    {"c1908", 0x5804b4862e185146ull, 0x5804b4862e185146ull,
     0xb41581c6aa14108dull, 0x7e82c32604831df0ull},
    {"c2670", 0xd5b9ab2d213cde64ull, 0xd5b9ab2d213cde64ull,
     0x76f9fc82604ee908ull, 0x6f040c14881d4986ull},
    {"c3540", 0x554aff539f1b4153ull, 0x554aff539f1b4153ull,
     0xd110c532a0677b17ull, 0x22f23fbd7634721cull},
    {"c5315", 0x33fee479488a4461ull, 0x33fee479488a4461ull,
     0x09b2e70a7984dccaull, 0x7ae10962048eb366ull},
    {"c6288", 0x93d31ec9340af814ull, 0x93d31ec9340af814ull,
     0x2c258af7f7cc5d6cull, 0xf193c8f100187763ull},
    {"c7552", 0xe94dae96ab8dfbfeull, 0xe94dae96ab8dfbfeull,
     0x6d2ef038fecc252full, 0xd8900dde093106d5ull},
    {"arbiter", 0x7d8d3eb58482dff0ull, 0x7d8d3eb58482dff0ull,
     0x1ac9eb6635ab6377ull, 0xf923ccb15b995869ull},
    {"cavlc", 0x081142b1454b580full, 0x081142b1454b580full,
     0xa458e3952f7513c3ull, 0x8695002b169c8371ull},
    {"ctrl", 0xe4e6e5eedf76daf9ull, 0xe4e6e5eedf76daf9ull,
     0x1bf446438bda58ddull, 0x3492834521d2bc13ull},
    {"dec", 0x08cc494854ca7e75ull, 0x08cc494854ca7e75ull,
     0x223f0ac59e9eab8full, 0xd6bb55b797bd0499ull},
    {"i2c", 0x4430040f572cc926ull, 0x4430040f572cc926ull,
     0xc406111b646a150dull, 0xec21a97076e6b9a4ull},
    {"int2float", 0xb790720311560d08ull, 0xb790720311560d08ull,
     0x4f216b7f0508e69dull, 0x4ba483352f9cf025ull},
    {"mem_ctrl", 0x3a9315d2fc3ded3dull, 0x3a9315d2fc3ded3dull,
     0x2faf0126b9c8c773ull, 0xbbd39636bda989fdull},
    {"priority", 0x7317dfd061527938ull, 0x7317dfd061527938ull,
     0x6b66273d4f1413e1ull, 0xc2bdf46203ec6b25ull},
    {"router", 0xc89eeb9eeb936bfaull, 0xc89eeb9eeb936bfaull,
     0x2602ab11ecea0b7bull, 0x0a1a7396df68900eull},
    {"voter", 0xed2d09048abe3c54ull, 0xed2d09048abe3c54ull,
     0x6aad3ff1ffd16bc3ull, 0xb379a53eed5a2bb8ull},
    {"voter_sop", 0x2b362798cbac1dabull, 0x2b362798cbac1dabull,
     0x7290b8928284d477ull, 0x6b4476675e548508ull},
    {"sin", 0xb102aaaf2bc0d4ecull, 0xb102aaaf2bc0d4ecull,
     0x1d5245dcc913f506ull, 0x441aa36551384179ull},
    {"s27", 0x94d71b44579a0a08ull, 0x94d71b44579a0a08ull,
     0x1d0e6025c2cba38aull, 0x94eec7c2977c29e2ull},
    {"s298", 0x3da1e39a03453aecull, 0x3da1e39a03453aecull,
     0xf48da839dece4db6ull, 0xcb2b548a0e5a3969ull},
    {"s344", 0x68ea74cbaabce313ull, 0x68ea74cbaabce313ull,
     0xc2b5423a16d485d5ull, 0xa2ec27c8f1d342d1ull},
    {"s349", 0x6d2ba80312be0b4eull, 0x6d2ba80312be0b4eull,
     0x41e8da76430d9e58ull, 0xf8fb00e55b7a3d9dull},
    {"s382", 0x12bf623db12bf7b8ull, 0x12bf623db12bf7b8ull,
     0x1cf192a8c7cf0d11ull, 0x6442f1cb10bdbacdull},
    {"s386", 0x9eccf5b97b7bf691ull, 0x9eccf5b97b7bf691ull,
     0x1387fe05e33c7e56ull, 0xbab9a3477d0684beull},
    {"s400", 0x68cb0953e496d87dull, 0x68cb0953e496d87dull,
     0xa7ff503ea6f1a214ull, 0x456694afecada215ull},
    {"s420.1", 0x83864302db166cbfull, 0x83864302db166cbfull,
     0x159f14388e65fff3ull, 0xeb710e8b900d26ebull},
    {"s444", 0x2acbde8086a4470bull, 0x2acbde8086a4470bull,
     0xdff1325f08986e68ull, 0x93d11894e00052f9ull},
    {"s510", 0x15903a87c3eb2d04ull, 0x15903a87c3eb2d04ull,
     0x9753d403759c22f3ull, 0x4291caa8eebdaf9dull},
    {"s526", 0x46406719bbf09364ull, 0x46406719bbf09364ull,
     0x59d97806d2993dc1ull, 0x5a6a0a5598790490ull},
    {"s641", 0x71aef673d5c929bfull, 0x71aef673d5c929bfull,
     0xf72711c8f89d953eull, 0x184824bf9c199886ull},
    {"s713", 0x9f21dd2ff1da0d88ull, 0x9f21dd2ff1da0d88ull,
     0x0f8e98ff95547521ull, 0xc9366ed98653699full},
    {"s820", 0x3e709d6d89d99262ull, 0x3e709d6d89d99262ull,
     0xe095b6b5f06800ccull, 0x9d4da229f0804e4eull},
    {"s832", 0xf2ea016540e9b8a4ull, 0xf2ea016540e9b8a4ull,
     0x5369864670e1139bull, 0x20c009c5104dbc8bull},
    {"s838.1", 0x976237b0d3c61ab5ull, 0x976237b0d3c61ab5ull,
     0x8811a3e9c6ce247aull, 0x5a8f28e2fa1f4a20ull},
};
// clang-format on

TEST(NetlistGolden, RegistryCorpusRoundTripsBitForBit) {
  const auto& registry = benchgen::all_benchmarks();
  ASSERT_EQ(registry.size(), std::size(k_corpus));
  for (std::size_t c = 0; c < registry.size(); ++c) {
    const std::string& name = registry[c].name;
    ASSERT_EQ(name, k_corpus[c].name);
    const netlist written =
        netlist_from_aig(benchgen::make_benchmark(name), name);

    const netlist bench = read_bench_string(write_bench_string(written), name);
    EXPECT_EQ(bench.to_aig().content_hash(), k_corpus[c].bench_aig) << name;
    EXPECT_EQ(fingerprint(bench), k_corpus[c].bench_netlist) << name;
    // .bench carries every gate verbatim: same count, same order, same
    // kinds, names, fanin order and init values.
    ASSERT_EQ(bench.num_gates(), written.num_gates()) << name;
    ASSERT_EQ(bench.num_inputs(), written.num_inputs()) << name;
    ASSERT_EQ(bench.num_outputs(), written.num_outputs()) << name;
    for (std::size_t i = 0; i < written.num_gates(); ++i) {
      ASSERT_EQ(gate_by_names(bench, i), gate_by_names(written, i))
          << name << " gate " << i;
    }
    for (std::size_t i = 0; i < written.num_inputs(); ++i) {
      EXPECT_EQ(std::string(bench.net_name(bench.inputs()[i])),
                std::string(written.net_name(written.inputs()[i])));
    }
    for (std::size_t i = 0; i < written.num_outputs(); ++i) {
      EXPECT_EQ(std::string(bench.net_name(bench.outputs()[i])),
                std::string(written.net_name(written.outputs()[i])));
    }
    if (!registry[c].sequential) {
      // Without DFF placeholders the writer's net order is the file order.
      ASSERT_EQ(bench.num_nets(), written.num_nets()) << name;
      for (std::size_t i = 0; i < written.num_nets(); ++i) {
        const auto n = static_cast<netlist::net_index>(i);
        ASSERT_EQ(std::string(bench.net_name(n)),
                  std::string(written.net_name(n)))
            << name << " net " << i;
      }
    }

    const netlist blif = read_blif_string(write_blif_string(written));
    EXPECT_EQ(blif.to_aig().content_hash(), k_corpus[c].blif_aig) << name;
    EXPECT_EQ(fingerprint(blif), k_corpus[c].blif_netlist) << name;
  }
}

struct dialect_golden {
  const char* label;
  bool blif;
  const char* text;
  std::uint64_t netlist_fp;
  std::uint64_t aig_hash;
};

// clang-format off
const dialect_golden k_dialects[] = {
  {"bench crlf + comments + case", false,
   "# header\r\nINPUT(a)\r\ninput(b)  # trailing\r\n  OUTPUT(y)\r\n"
   "Output(z)\r\n\r\ny = nand(a , b)\r\nz = Xnor( a, y ,b )\r\n",
   0xe3cf72d712eaec8full, 0x95d3ef56f8ebe330ull},
  {"bench forward refs + dff init", false,
   "INPUT(d)\nOUTPUT(q)\nOUTPUT(w)\nw = or(q, t)\nt = BUF(d)\n"
   "q = DFF(t, 1)\nr = DFF(w , 0)\nk = CONST1()\nm = MUX(k, r, d)\n"
   "OUTPUT(m)\nz = GND()\nv = vdd()\nOUTPUT(z)\nOUTPUT(v)\n",
   0x411af570dbd3ec78ull, 0xedb8d237436fa05full},
  {"bench odd spacing", false,
   "INPUT( a b )\nINPUT(c)\nOUTPUT(o)\n o x = AND(a b,,c)\n"
   "o = INV(o x) junk\n",
   0xef57cd78ba02aa65ull, 0xc5e31d289a4cda00ull},
  {"blif covers", true,
   ".model covers  # comment\n.inputs a b c\n.outputs f g h k\n"
   ".names a b c f\n1-0 1\n-11 1\n0-- 1\n"
   ".names a b g\n11 0\n.names c h\n0 1\n"
   ".names a b c k\n--- 1\n.end\n",
   0xaa50f707be611319ull, 0xcbf52a0ddb6f4172ull},
  {"blif tautology after products", true,
   ".model t\n.inputs a b\n.outputs y\n.names a b y\n10 1\n0- 1\n-- 1\n",
   0x2e88061faa3a36b9ull, 0xe04812d02435b052ull},
  {"blif continuation + crlf", true,
   ".model cont\r\n.inputs a \\\r\n b\r\n.outputs y\\\nz\n"
   ".names a b y\r\n11 1\r\n.names a yz\n0 0\n.end\n",
   0xf60a4b35b81871ebull, 0x5449538221a43a1full},
  {"blif helper-name collisions", true,
   ".model clash\n.inputs _blif0n _blif1n a\n.outputs y\n"
   ".names _blif0n a _blif2a\n00 1\n.names _blif2a _blif1n y\n01 1\n10 1\n",
   0xff152197ca394b9eull, 0x9d891a9452249431ull},
  {"blif latches + constants", true,
   ".model seq\n.inputs d\n.outputs q one zero\n"
   ".latch n q re clk 1\n.latch d p 3\n.latch d r 2\n.latch q s 0\n"
   ".names p r s d n\n1111 1\n.names one\n1\n.names zero\n",
   0xbae495a18f3f458aull, 0x66e6d3f5872245e3ull},
};
// clang-format on

TEST(NetlistGolden, DialectCornerCasesParseIdentically) {
  for (const auto& d : k_dialects) {
    const netlist n = d.blif ? read_blif_string(d.text)
                             : read_bench_string(d.text, "dialect");
    EXPECT_EQ(fingerprint(n), d.netlist_fp) << d.label;
    EXPECT_EQ(n.to_aig().content_hash(), d.aig_hash) << d.label;
  }
}

std::string error_text(const std::function<void()>& action) {
  try {
    action();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "<no error>";
}

const char* const k_valid_bench =
    "# comment\nINPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
    "t1 = AND(a, b)\nt2 = XOR(t1, c)\ny = NOT(t2)\nz = MUX(a, t1, t2)\n";
const char* const k_valid_blif =
    ".model fuzz\n.inputs a b c\n.outputs y\n.names a b t1\n11 1\n"
    ".names t1 c y\n10 1\n01 1\n.end\n";

/// Malformed input → exact error text.  Parse errors and to_aig errors
/// both count: the served path runs the two back to back.
struct error_golden {
  bool blif;
  std::string text;
  const char* expected;
};

std::vector<error_golden> error_cases() {
  const std::string huge(10000, 'x');
  std::string bench_nul(k_valid_bench);
  bench_nul[bench_nul.size() / 2] = '\0';
  std::string blif_nul(k_valid_blif);
  blif_nul[blif_nul.size() / 2] = '\0';
  std::string served_nul(k_valid_bench);
  served_nul[5] = '\0';
  return {
      // tests/test_netlist_io.cpp, Bench.Errors
      {false, "y = FROB(a)\n",
       "bench: line 1: unknown gate type 'FROB'"},
      {false, "INPUT(a)\ny = NOT(a, a)\n",
       "bench: line 2: unary gate needs 1 input"},
      {false, "INPUT(a)\nOUTPUT(y)\n",
       "bench: undriven nets referenced"},
      {false, "INPUT(a)\na = NOT(a)\n",
       "netlist: net driven twice: a"},
      // tests/test_netlist_fuzz.cpp, truncated .bench
      {false, "INPUT(a",
       "bench: line 1: missing ')'"},
      {false, "INPUT(a)\nOUTPUT(y)\ny = ",
       "bench: line 3: expected GATE(args)"},
      {false, "INPUT(a)\nOUTPUT(y)\ny = AND(a",
       "bench: line 3: expected GATE(args)"},
      {false, "INPUT(a)\nOUTPUT(y)\ny AND(a)",
       "bench: line 3: expected '='"},
      {false, "INPUT(a)\nOUTPUT(y)\ny = FROB(a, a)",
       "bench: line 3: unknown gate type 'FROB'"},
      // truncated .blif
      {true, ".model m\n.inputs a\n.outputs y\n.names\n",
       "blif: line 4: .names needs an output"},
      {true, ".model m\n.inputs a\n.outputs y\n.names a y\n1\n",
       "blif: line 5: bad cover line"},
      {true, ".model m\n.inputs a\n.outputs y\n1 1\n",
       "blif: line 4: cover line outside .names"},
      {true, ".model m\n.inputs a\n.outputs y\n.latch a\n",
       "blif: line 4: .latch needs input output"},
      {true, ".model m\n.frobnicate\n",
       "blif: line 2: unsupported directive .frobnicate"},
      // cycles (to_aig)
      {false, "INPUT(a)\nOUTPUT(y)\np = AND(q, a)\nq = AND(p, a)\n"
              "y = AND(p, q)\n",
       "netlist::to_aig: combinational cycle detected"},
      {false, "INPUT(a)\nOUTPUT(y)\ns = AND(s, a)\ny = BUF(s)\n",
       "netlist::to_aig: combinational cycle detected"},
      // oversized identifiers
      {false, "INPUT(" + huge + ")\nOUTPUT(y)\ny = BUF(" + huge + ")\n",
       "bench: line 1: identifier exceeds 4096 characters"},
      {false, "INPUT(a)\nOUTPUT(y)\n" + huge + " = BUF(a)\ny = BUF(a)\n",
       "bench: line 3: identifier exceeds 4096 characters"},
      {true, ".model m\n.inputs " + huge + "\n.outputs y\n.names " + huge +
                 " y\n1 1\n",
       "blif: line 2: token exceeds 4096 characters"},
      // NUL bytes
      {false, bench_nul,
       "bench: line 7: NUL byte in input"},
      {true, blif_nul,
       "blif: line 4: NUL byte in input"},
      // served malformed circuits
      {false, "INPUT(a\n",
       "bench: line 1: missing ')'"},
      {false, "INPUT(a)\nOUTPUT(y)\ny = AND(y, a)\n",
       "netlist::to_aig: combinational cycle detected"},
      {false, "OUTPUT(y)\n",
       "bench: undriven nets referenced"},
      {false, "p = AND(q, a)\nq = AND(p, a)\n",
       "bench: undriven nets referenced"},
      {false, served_nul,
       "bench: line 1: NUL byte in input"},
      // every remaining .bench diagnostic
      {false, "INPUT()\n",
       "bench: line 1: empty port name"},
      {false, "OUTPUT(y\n",
       "bench: line 1: missing ')'"},
      {false, "INPUT(a)\ny = AND a, a\n",
       "bench: line 2: expected GATE(args)"},
      {false, "INPUT(a)\ny = DFF()\n",
       "bench: line 2: DFF takes 1 or 2 arguments"},
      {false, "INPUT(a)\ny = DFF(a, 1, 0)\n",
       "bench: line 2: DFF takes 1 or 2 arguments"},
      {false, "INPUT(a)\ny = DFF(a, 2)\n",
       "bench: line 2: DFF init must be 0 or 1"},
      {false, "INPUT(a)\ny = BUFF()\n",
       "bench: line 2: unary gate needs 1 input"},
      {false, "INPUT(a)\ny = CONST0(a)\n",
       "bench: line 2: constant takes no input"},
      {false, "INPUT(a)\ny = MUX(a, a)\n",
       "bench: line 2: MUX needs 3 inputs (sel, then, else)"},
      {false, "INPUT(a)\ny = OR(a)\n",
       "bench: line 2: gate needs at least 2 inputs"},
      {false, "INPUT(a)\nINPUT(a)\n",
       "netlist: input net already driven: a"},
      {false, "INPUT(a)\n\n# x\ny = NOT(a)\ny = BUF(a)\n",
       "netlist: net driven twice: y"},
      {false, "INPUT(a)\nOUTPUT(y)\ny = AND(a, " + huge + ")\n",
       "bench: line 3: identifier exceeds 4096 characters"},
      {false, "INPUT(a)\r\ny = NOTE(a)\r\n",
       "bench: line 2: unknown gate type 'NOTE'"},
      // every remaining .blif diagnostic
      {true, ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n",
       "blif: line 4: cover width mismatch in .names y"},
      {true, ".model m\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n",
       "blif: line 4: bad cover character"},
      {true, ".model m\n.outputs y\n.names y\n1 1\n",
       "blif: line 4: bad constant cover"},
      {true, ".model m\n.inputs a\n.outputs y\n.names a y\n1 1 1\n",
       "blif: line 5: bad cover line"},
      {true, ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
             ".names a y\n0 1\n",
       "netlist: net driven twice: y"},
      {true, ".model m\n.inputs a\n.inputs a\n",
       "netlist: input net already driven: a"},
      {true, ".model m\n.inputs a\n.outputs y z\n.names a y\n1 1\n",
       "blif: undriven nets referenced"},
      {true, ".model m\n.inputs a \\\n b\n.outputs y\n.names a b y\n11 1\n"
             ".names a y\n1 1\n",
       "netlist: net driven twice: y"},
      {true, ".model m\n.inputs a\n.outputs y\n.names a y\n" + huge +
                 " 1\n",
       "blif: line 5: token exceeds 4096 characters"},
      {true, ".model m\n.latch a q\n.latch a q\n",
       "netlist: net driven twice: q"},
  };
}

TEST(NetlistGolden, MalformedInputErrorTextIsPinned) {
  const auto cases = error_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const std::string got = error_text([&] {
      if (c.blif) {
        (void)read_blif_string(c.text).to_aig();
      } else {
        (void)read_bench_string(c.text, "t").to_aig();
      }
    });
    EXPECT_EQ(got, c.expected) << "case " << i;
  }
}

/// Deterministic gate-line permutation of a .bench file: the port lines
/// stay in front, gate lines are shuffled (or reversed).
std::string permute_gate_lines(const std::string& text, bool reverse,
                               std::uint64_t seed) {
  std::vector<std::string> head;
  std::vector<std::string> gates;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    (line.find('=') == std::string::npos ? head : gates)
        .push_back(std::move(line));
  }
  if (reverse) {
    std::reverse(gates.begin(), gates.end());
  } else {
    std::uint64_t state = seed;
    for (std::size_t i = gates.size(); i > 1; --i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(gates[i - 1], gates[(state >> 33) % i]);
    }
  }
  std::string out;
  for (const auto* part : {&head, &gates}) {
    for (const auto& line : *part) out += line + '\n';
  }
  return out;
}

struct order_golden {
  const char* circuit;
  bool reverse;
  std::uint64_t aig_hash;
};

const order_golden k_orders[] = {
    {"c880", false, 0x7ad5bbea879bd9a9ull},
    {"c880", true, 0x8ab2a4009278315eull},
    {"c6288", false, 0xecf49891eeba52abull},
    {"c6288", true, 0x45fb14faabab21d3ull},
    {"s641", false, 0xc43f74e1f78c0610ull},
    {"s641", true, 0xf8e6cf6348b9e5b0ull},
};

TEST(NetlistGolden, ShuffledGateOrderLowersToPinnedAig) {
  for (const auto& o : k_orders) {
    const std::string text = write_bench_string(
        netlist_from_aig(benchgen::make_benchmark(o.circuit), o.circuit));
    const std::string permuted = permute_gate_lines(text, o.reverse, 0x5eed);
    const aig g = read_bench_string(permuted, o.circuit).to_aig();
    EXPECT_EQ(g.content_hash(), o.aig_hash)
        << o.circuit << (o.reverse ? " reversed" : " shuffled");
  }
}

}  // namespace
}  // namespace xsfq
