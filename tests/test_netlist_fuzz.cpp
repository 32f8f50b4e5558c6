/// Fuzz-shaped hardening tests for the .bench/.blif frontends: truncated
/// lines, combinational cycles, oversized identifiers, and NUL bytes must
/// all surface as typed std::invalid_argument errors — never a crash, hang,
/// or silent mis-parse — because the serving daemon feeds these parsers
/// with whatever bytes a client sends.  A deterministic mutation loop then
/// sweeps hundreds of corrupted variants of valid netlists through both
/// readers (and to_aig) asserting the parse-or-typed-throw contract, and an
/// end-to-end check pins that a served malformed circuit comes back as an
/// error response on a connection that stays open.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/netlist.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"

namespace xsfq {
namespace {

const char* const valid_bench =
    "# comment\n"
    "INPUT(a)\n"
    "INPUT(b)\n"
    "INPUT(c)\n"
    "OUTPUT(y)\n"
    "OUTPUT(z)\n"
    "t1 = AND(a, b)\n"
    "t2 = XOR(t1, c)\n"
    "y = NOT(t2)\n"
    "z = MUX(a, t1, t2)\n";

const char* const valid_blif =
    ".model fuzz\n"
    ".inputs a b c\n"
    ".outputs y\n"
    ".names a b t1\n"
    "11 1\n"
    ".names t1 c y\n"
    "10 1\n"
    "01 1\n"
    ".end\n";

/// The contract every malformed input must satisfy: a typed throw (or a
/// clean parse for mutations that happen to stay well-formed), nothing
/// else.  to_aig runs on survivors so lowering shares the guarantee.
void parse_or_typed_throw(const std::string& text) {
  try {
    const netlist bench_net = read_bench_string(text, "fuzz");
    (void)bench_net.to_aig();
  } catch (const std::invalid_argument&) {
    // typed rejection is the expected failure mode
  }
  try {
    const netlist blif_net = read_blif_string(text);
    (void)blif_net.to_aig();
  } catch (const std::invalid_argument&) {
  }
}

TEST(NetlistFuzz, TruncatedLinesThrowTypedErrors) {
  const char* truncated[] = {
      "INPUT(a",                      // unclosed port
      "INPUT(a)\nOUTPUT(y)\ny = ",    // dangling assignment
      "INPUT(a)\nOUTPUT(y)\ny = AND(a",  // unclosed gate args
      "INPUT(a)\nOUTPUT(y)\ny AND(a)",   // missing '='
      "INPUT(a)\nOUTPUT(y)\ny = FROB(a, a)",  // unknown gate
  };
  for (const char* text : truncated) {
    EXPECT_THROW(read_bench_string(text, "t"), std::invalid_argument) << text;
  }
  const char* blif_truncated[] = {
      ".model m\n.inputs a\n.outputs y\n.names\n",       // .names w/o output
      ".model m\n.inputs a\n.outputs y\n.names a y\n1\n",  // short cover
      ".model m\n.inputs a\n.outputs y\n1 1\n",          // cover w/o .names
      ".model m\n.inputs a\n.outputs y\n.latch a\n",     // .latch w/o output
      ".model m\n.frobnicate\n",                         // unknown directive
  };
  for (const char* text : blif_truncated) {
    EXPECT_THROW(read_blif_string(text), std::invalid_argument) << text;
  }
  // Truncation at every byte boundary of a valid file: each prefix either
  // parses (some prefixes are complete netlists) or throws typed.
  const std::string bench(valid_bench);
  for (std::size_t cut = 0; cut < bench.size(); ++cut) {
    parse_or_typed_throw(bench.substr(0, cut));
  }
  const std::string blif(valid_blif);
  for (std::size_t cut = 0; cut < blif.size(); ++cut) {
    parse_or_typed_throw(blif.substr(0, cut));
  }
}

TEST(NetlistFuzz, CombinationalCyclesAreDetectedNotLoopedOn) {
  // BENCH allows forward references, so a cycle parses fine — the typed
  // error must come from to_aig's fixpoint, not an infinite loop.
  const netlist cyc = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\n"
      "p = AND(q, a)\n"
      "q = AND(p, a)\n"
      "y = AND(p, q)\n",
      "cyc");
  EXPECT_THROW(cyc.to_aig(), std::invalid_argument);
  // Self-loop, same contract.
  const netlist self = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\ns = AND(s, a)\ny = BUF(s)\n", "self");
  EXPECT_THROW(self.to_aig(), std::invalid_argument);
}

TEST(NetlistFuzz, ReverseOrderedChainLowersInLinearTime) {
  // Gate order is free in BENCH, and lowering must stay linear in it: a
  // chain listed output-first needs one level per gate, which a
  // sweep-until-fixpoint lowering turns into n^2 work (minutes at this
  // size; ctest's TIMEOUT for this binary is 30 s).  The chain is about
  // 4 MB of text, the order of a large upload.
  constexpr int chain = 200000;
  char line[64];
  std::snprintf(line, sizeof line, "y = BUFF(n%d)\n", chain - 1);
  std::string text = std::string("INPUT(a)\nOUTPUT(y)\n") + line;
  for (int i = chain - 1; i > 0; --i) {
    std::snprintf(line, sizeof line, "n%d = NOT(n%d)\n", i, i - 1);
    text += line;
  }
  text += "n0 = NOT(a)\n";
  const aig g = read_bench_string(text, "chain").to_aig();
  ASSERT_EQ(g.num_pis(), 1u);
  ASSERT_EQ(g.num_pos(), 1u);
  EXPECT_EQ(g.num_gates(), 0u);
  // An even number of inverters: y is the input itself.
  EXPECT_EQ(g.po_signal(0), g.pi(0));

  // A chain of real AND nodes: the dependencies fix the creation order,
  // so listing it backwards must give the same AIG as listing it forwards.
  std::vector<std::string> lines = {"m0 = NAND(a, b)\n"};
  for (int i = 1; i < chain; ++i) {
    std::snprintf(line, sizeof line, "m%d = AND(m%d, %c)\n", i, i - 1,
                  i % 2 ? 'a' : 'b');
    lines.emplace_back(line);
  }
  std::snprintf(line, sizeof line, "y = BUFF(m%d)\n", chain - 1);
  const std::string ports = std::string("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n") +
                            line;
  std::string forward = ports;
  std::string reverse = ports;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    forward += lines[i];
    reverse += lines[lines.size() - 1 - i];
  }
  const aig fwd = read_bench_string(forward, "ands").to_aig();
  const aig rev = read_bench_string(reverse, "ands").to_aig();
  EXPECT_GT(rev.num_gates(), static_cast<std::size_t>(chain) / 2);
  EXPECT_EQ(rev.content_hash(), fwd.content_hash());
}

TEST(NetlistFuzz, MalformedBlifCoversAreRejected) {
  // An output bit other than 0/1 used to be read as offset.
  try {
    read_blif_string(
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 x\n");
    FAIL() << "non-0/1 cover output should have been rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "blif: line 5: cover output must be 0 or 1");
  }
  // A cover mixing onset and offset rows used to lower as XNOR.
  try {
    read_blif_string(
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n");
    FAIL() << "mixed-polarity cover should have been rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "blif: line 6: cover mixes onset and offset rows in .names y");
  }
  // Constant covers follow the same rules.
  EXPECT_THROW(read_blif_string(".model m\n.outputs y\n.names y\n2\n"),
               std::invalid_argument);
  EXPECT_THROW(read_blif_string(".model m\n.outputs y\n.names y\n1\n0\n"),
               std::invalid_argument);
  // Uniform covers of either polarity still parse.
  EXPECT_NO_THROW(read_blif_string(
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n00 0\n"));
}

TEST(NetlistFuzz, OversizedIdentifiersAreRejected) {
  const std::string huge(10000, 'x');
  EXPECT_THROW(
      read_bench_string("INPUT(" + huge + ")\nOUTPUT(y)\ny = BUF(" + huge +
                            ")\n",
                        "t"),
      std::invalid_argument);
  EXPECT_THROW(
      read_bench_string("INPUT(a)\nOUTPUT(y)\n" + huge + " = BUF(a)\ny = "
                        "BUF(a)\n",
                        "t"),
      std::invalid_argument);
  EXPECT_THROW(read_blif_string(".model m\n.inputs " + huge +
                                "\n.outputs y\n.names " + huge + " y\n1 1\n"),
               std::invalid_argument);
  // At the cap is still fine — the limit must not reject real names.
  const std::string big_ok(4096, 'x');
  EXPECT_NO_THROW(read_bench_string(
      "INPUT(" + big_ok + ")\nOUTPUT(y)\ny = BUF(" + big_ok + ")\n", "t"));
}

TEST(NetlistFuzz, NulBytesAreRejected) {
  std::string bench(valid_bench);
  bench[bench.size() / 2] = '\0';
  try {
    read_bench_string(bench, "t");
    FAIL() << "NUL byte should have been rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("NUL"), std::string::npos);
  }
  std::string blif(valid_blif);
  blif[blif.size() / 2] = '\0';
  EXPECT_THROW(read_blif_string(blif), std::invalid_argument);
}

TEST(NetlistFuzz, DeterministicMutationSweepNeverCrashes) {
  // A seeded LCG drives byte flips, deletions, and splices over both valid
  // sources; every mutant must parse or throw typed.  Deterministic, so a
  // failure reproduces by seed — no corpus files, no flakes.
  std::uint64_t state = 0x5eedf00dULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  for (const std::string& source : {std::string(valid_bench),
                                    std::string(valid_blif)}) {
    for (int round = 0; round < 400; ++round) {
      std::string mutant = source;
      const unsigned edits = 1 + next() % 4;
      for (unsigned e = 0; e < edits; ++e) {
        if (mutant.empty()) break;
        const std::size_t at = next() % mutant.size();
        switch (next() % 4) {
          case 0:  // flip to an arbitrary byte (including controls)
            mutant[at] = static_cast<char>(next() % 256);
            break;
          case 1:  // delete a span
            mutant.erase(at, 1 + next() % 8);
            break;
          case 2:  // duplicate a span (builds repeated/conflicting defs)
            mutant.insert(at, mutant.substr(at, 1 + next() % 16));
            break;
          case 3:  // splice a line boundary away
            if (const auto nl = mutant.find('\n', at);
                nl != std::string::npos) {
              mutant.erase(nl, 1);
            }
            break;
        }
      }
      parse_or_typed_throw(mutant);
    }
  }
}

TEST(NetlistFuzz, ServedMalformedCircuitKeepsConnectionOpen) {
  // The daemon-side contract: garbage circuit text is a failed *request*
  // (typed error in the response), never a dead connection or daemon.
  char tmpl[] = "/tmp/xsfq_fuzz_XXXXXX";
  const std::string dir = mkdtemp(tmpl);
  serve::server_options options;
  options.socket_path = dir + "/served.sock";
  options.threads = 2;
  serve::server srv(options);
  serve::client cli(options.socket_path);

  const char* bad_sources[] = {
      "INPUT(a\n",                       // truncated
      "INPUT(a)\nOUTPUT(y)\ny = AND(y, a)\n",  // self-cycle
      "OUTPUT(y)\n",                     // undriven output
      "p = AND(q, a)\nq = AND(p, a)\n",  // cycle + undriven
  };
  for (const char* text : bad_sources) {
    serve::synth_request req;
    req.spec = "fuzz.bench";
    req.source = serve::circuit_source::bench_text;
    req.model = "fuzz";
    req.source_text = text;
    const serve::synth_response resp = cli.submit(req);
    EXPECT_FALSE(resp.ok) << text;
    EXPECT_FALSE(resp.error.empty()) << text;
    EXPECT_TRUE(cli.ping()) << text;  // connection survives every reject
  }
  // A real NUL mid-payload (not string-literal-truncated).
  serve::synth_request req;
  req.spec = "fuzz.bench";
  req.source = serve::circuit_source::bench_text;
  req.model = "fuzz";
  req.source_text = std::string(valid_bench);
  req.source_text[5] = '\0';
  const serve::synth_response resp = cli.submit(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("NUL"), std::string::npos) << resp.error;
  EXPECT_TRUE(cli.ping());

  // And the daemon still serves good requests afterwards.
  const serve::synth_response good =
      cli.submit(serve::make_request_for_spec("c432"));
  EXPECT_TRUE(good.ok);
  srv.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace xsfq
