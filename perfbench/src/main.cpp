/// xsfq_perfbench — the load generator behind perfbench/run.py.
///
///   xsfq_perfbench --workload batch_corpus|serve_warm|serve_eco
///                  --seed N --seconds S --trace 0|1 [--corrupt]
///
/// Runs one workload in the current directory (which it fills with corpus
/// files, a daemon socket and cache directories) and prints one JSON result
/// line last on stdout: the end-to-end metrics of an untraced run, or the
/// per-layer metrics of a traced one.  --corrupt damages a share of the
/// outputs before they are checked, so the run must report failures.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xsfq_perfbench --workload batch_corpus|serve_warm|"
               "serve_eco --seed N --seconds S --trace 0|1 [--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();

  // One info-level log line per served request would put a stderr write
  // inside every measured round trip.
  xsfq::log::set_level(xsfq::log::level::warn);

  try {
    perfbench::run_result result;
    if (opt.workload == "batch_corpus") {
      result = perfbench::run_batch_corpus(opt);
    } else if (opt.workload == "serve_warm") {
      result = perfbench::run_serve_warm(opt);
    } else if (opt.workload == "serve_eco") {
      result = perfbench::run_serve_eco(opt);
    } else {
      return usage();
    }
    perfbench::print_result_line(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xsfq_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
