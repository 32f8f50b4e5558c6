/// bench_perf_frontend — throughput of the .bench/.blif netlist frontend.
///
///   bench_perf_frontend [reps] [--json=FILE]          (default: 5 reps)
///
/// Writes every registry circuit as .bench and as .blif text in memory
/// (write_*_string of netlist_from_aig, the files a user uploads), then
/// times, per format, min-over-reps of:
///   * parsing the whole corpus (read_bench_string / read_blif_string),
///     reported as MB/s of netlist text;
///   * lowering every parsed netlist to an AIG (netlist::to_aig), in ms;
/// plus to_aig of an 8000-gate NOT chain listed in reverse order, the worst
/// case for gate-order handling (quadratic lowering shows up here first).
/// Every lowered AIG's content hash is checked against the golden table
/// (the values tests/test_netlist_golden.cpp pins); a mismatch exits 1.
/// --json emits the bench_perf_frontend block consumed by
/// tools/check_perf_regression.py against bench/BENCH_baseline.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "benchgen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/netlist.hpp"

using namespace xsfq;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

struct golden_hash {
  const char* name;
  std::uint64_t bench_aig;
  std::uint64_t blif_aig;
};

// clang-format off
const golden_hash k_golden[] = {
    {"c432", 0xa60cec7287b7aea7ull, 0xa60cec7287b7aea7ull},
    {"c499", 0xc9d2b958ca709403ull, 0xc9d2b958ca709403ull},
    {"c880", 0x6721470b46b01d49ull, 0x6721470b46b01d49ull},
    {"c1355", 0xc9d2b958ca709403ull, 0xc9d2b958ca709403ull},
    {"c1908", 0x5804b4862e185146ull, 0x5804b4862e185146ull},
    {"c2670", 0xd5b9ab2d213cde64ull, 0xd5b9ab2d213cde64ull},
    {"c3540", 0x554aff539f1b4153ull, 0x554aff539f1b4153ull},
    {"c5315", 0x33fee479488a4461ull, 0x33fee479488a4461ull},
    {"c6288", 0x93d31ec9340af814ull, 0x93d31ec9340af814ull},
    {"c7552", 0xe94dae96ab8dfbfeull, 0xe94dae96ab8dfbfeull},
    {"arbiter", 0x7d8d3eb58482dff0ull, 0x7d8d3eb58482dff0ull},
    {"cavlc", 0x081142b1454b580full, 0x081142b1454b580full},
    {"ctrl", 0xe4e6e5eedf76daf9ull, 0xe4e6e5eedf76daf9ull},
    {"dec", 0x08cc494854ca7e75ull, 0x08cc494854ca7e75ull},
    {"i2c", 0x4430040f572cc926ull, 0x4430040f572cc926ull},
    {"int2float", 0xb790720311560d08ull, 0xb790720311560d08ull},
    {"mem_ctrl", 0x3a9315d2fc3ded3dull, 0x3a9315d2fc3ded3dull},
    {"priority", 0x7317dfd061527938ull, 0x7317dfd061527938ull},
    {"router", 0xc89eeb9eeb936bfaull, 0xc89eeb9eeb936bfaull},
    {"voter", 0xed2d09048abe3c54ull, 0xed2d09048abe3c54ull},
    {"voter_sop", 0x2b362798cbac1dabull, 0x2b362798cbac1dabull},
    {"sin", 0xb102aaaf2bc0d4ecull, 0xb102aaaf2bc0d4ecull},
    {"s27", 0x94d71b44579a0a08ull, 0x94d71b44579a0a08ull},
    {"s298", 0x3da1e39a03453aecull, 0x3da1e39a03453aecull},
    {"s344", 0x68ea74cbaabce313ull, 0x68ea74cbaabce313ull},
    {"s349", 0x6d2ba80312be0b4eull, 0x6d2ba80312be0b4eull},
    {"s382", 0x12bf623db12bf7b8ull, 0x12bf623db12bf7b8ull},
    {"s386", 0x9eccf5b97b7bf691ull, 0x9eccf5b97b7bf691ull},
    {"s400", 0x68cb0953e496d87dull, 0x68cb0953e496d87dull},
    {"s420.1", 0x83864302db166cbfull, 0x83864302db166cbfull},
    {"s444", 0x2acbde8086a4470bull, 0x2acbde8086a4470bull},
    {"s510", 0x15903a87c3eb2d04ull, 0x15903a87c3eb2d04ull},
    {"s526", 0x46406719bbf09364ull, 0x46406719bbf09364ull},
    {"s641", 0x71aef673d5c929bfull, 0x71aef673d5c929bfull},
    {"s713", 0x9f21dd2ff1da0d88ull, 0x9f21dd2ff1da0d88ull},
    {"s820", 0x3e709d6d89d99262ull, 0x3e709d6d89d99262ull},
    {"s832", 0xf2ea016540e9b8a4ull, 0xf2ea016540e9b8a4ull},
    {"s838.1", 0x976237b0d3c61ab5ull, 0x976237b0d3c61ab5ull},
};
// clang-format on

struct format_result {
  double parse_mb_per_s = 0.0;
  double to_aig_ms = 0.0;
  std::size_t bytes = 0;
};

/// Times one format over the corpus; exits 1 on a golden-hash mismatch.
template <typename Parse>
format_result run_format(const char* label, int reps,
                         const std::vector<std::string>& texts,
                         const std::vector<std::uint64_t>& expected,
                         Parse&& parse) {
  format_result r;
  for (const auto& t : texts) r.bytes += t.size();
  double best_parse = 1e300;
  double best_lower = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<netlist> parsed;
    parsed.reserve(texts.size());
    auto start = clock_type::now();
    for (std::size_t i = 0; i < texts.size(); ++i) {
      parsed.push_back(parse(texts[i], i));
    }
    best_parse = std::min(best_parse, ms_since(start));
    std::vector<std::uint64_t> hashes(parsed.size());
    start = clock_type::now();
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      hashes[i] = parsed[i].to_aig().content_hash();
    }
    best_lower = std::min(best_lower, ms_since(start));
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      if (hashes[i] != expected[i]) {
        std::fprintf(stderr, "%s %s: content hash %016llx != golden %016llx\n",
                     k_golden[i].name, label,
                     static_cast<unsigned long long>(hashes[i]),
                     static_cast<unsigned long long>(expected[i]));
        std::exit(1);
      }
    }
  }
  r.parse_mb_per_s = static_cast<double>(r.bytes) / 1e6 / (best_parse / 1e3);
  r.to_aig_ms = best_lower;
  std::printf("%-5s %8.1f KB  parse %8.3f ms (%7.1f MB/s)  to_aig %8.3f ms\n",
              label, static_cast<double>(r.bytes) / 1e3, best_parse,
              r.parse_mb_per_s, r.to_aig_ms);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      reps = std::atoi(arg.c_str());
    }
  }
  const auto& registry = benchgen::all_benchmarks();
  if (reps <= 0 || registry.size() != std::size(k_golden)) {
    std::cerr << "usage: " << argv[0] << " [reps>0] [--json=FILE]\n";
    return 2;
  }

  std::vector<std::string> bench_texts;
  std::vector<std::string> blif_texts;
  std::vector<std::uint64_t> bench_expected;
  std::vector<std::uint64_t> blif_expected;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (registry[i].name != k_golden[i].name) {
      std::fprintf(stderr, "registry order changed at %s\n",
                   registry[i].name.c_str());
      return 1;
    }
    const netlist written = netlist_from_aig(
        benchgen::make_benchmark(registry[i].name), registry[i].name);
    bench_texts.push_back(write_bench_string(written));
    blif_texts.push_back(write_blif_string(written));
    bench_expected.push_back(k_golden[i].bench_aig);
    blif_expected.push_back(k_golden[i].blif_aig);
  }

  const format_result bench =
      run_format("bench", reps, bench_texts, bench_expected,
                 [&](const std::string& text, std::size_t i) {
                   return read_bench_string(text, registry[i].name);
                 });
  const format_result blif =
      run_format("blif", reps, blif_texts, blif_expected,
                 [](const std::string& text, std::size_t) {
                   return read_blif_string(text);
                 });

  // Reverse-ordered NOT chain: n<i> = NOT(n<i-1>) listed from the output
  // back to the input.
  constexpr int chain = 8000;
  char line[64];
  std::snprintf(line, sizeof line, "y = BUFF(n%d)\n", chain - 1);
  std::string chain_text = std::string("INPUT(a)\nOUTPUT(y)\n") + line;
  for (int i = chain - 1; i > 0; --i) {
    std::snprintf(line, sizeof line, "n%d = NOT(n%d)\n", i, i - 1);
    chain_text += line;
  }
  chain_text += "n0 = NOT(a)\n";
  const netlist chain_net = read_bench_string(chain_text, "chain");
  double chain_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = clock_type::now();
    const aig g = chain_net.to_aig();
    chain_ms = std::min(chain_ms, ms_since(start));
    if (g.num_gates() != 0 || g.num_pos() != 1) {
      std::fprintf(stderr, "reverse chain lowered to %zu gates\n",
                   g.num_gates());
      return 1;
    }
  }
  std::printf("reverse NOT chain (%d gates): to_aig %.3f ms\n", chain,
              chain_ms);
  std::printf("PERF_FRONTEND bench_mb_per_s=%.1f blif_mb_per_s=%.1f "
              "bench_to_aig_ms=%.3f blif_to_aig_ms=%.3f chain_ms=%.3f\n",
              bench.parse_mb_per_s, blif.parse_mb_per_s, bench.to_aig_ms,
              blif.to_aig_ms, chain_ms);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"frontend\": {\n"
       << "    \"bench\": {\n"
       << "      \"bytes\": " << bench.bytes << ",\n"
       << "      \"parse_mb_per_s\": " << bench.parse_mb_per_s << ",\n"
       << "      \"to_aig_ms\": " << bench.to_aig_ms << "\n"
       << "    },\n"
       << "    \"blif\": {\n"
       << "      \"bytes\": " << blif.bytes << ",\n"
       << "      \"parse_mb_per_s\": " << blif.parse_mb_per_s << ",\n"
       << "      \"to_aig_ms\": " << blif.to_aig_ms << "\n"
       << "    },\n"
       << "    \"reverse_chain_to_aig_ms\": " << chain_ms << ",\n"
       << "    \"hashes_checked\": " << 2 * registry.size() << "\n"
       << "  }\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
