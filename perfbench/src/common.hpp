#pragma once
/// \file common.hpp
/// \brief Shared vocabulary of the end-to-end benchmark: run options, the
/// result line, timing and percentile helpers, the on-disk circuit corpus,
/// and server_stats scrape deltas.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

/// Command line of one benchmark run (see README.md).
struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupts a share of the outputs before they are checked, so a run
  /// proves that its checks can fail (the self-test).
  bool corrupt = false;
};

/// One reported metric.
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: the operation tally and its metrics.
struct run_result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;  ///< end-of-run checks beyond per-op ones
  std::vector<metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Prints the result as the single JSON line the benchmark contract asks
/// for (last line of stdout).
void print_result_line(const run_result& result);

double ms_since(clock_type::time_point start);
double us_since(clock_type::time_point start);
double seconds_since(clock_type::time_point start);

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Peak resident set of this process in MiB, and its user+system CPU time.
double peak_rss_mb();
double cpu_ms();

/// One circuit of the corpus as a user would hand it over: a netlist file.
struct corpus_file {
  std::string name;  ///< registry name
  std::string path;  ///< relative to the run directory
};

/// Generates the named registry circuits and writes each one as a netlist
/// file under `dir` (created if absent): ISCAS85/89 circuits as .bench,
/// EPFL circuits as .blif.
std::vector<corpus_file> write_corpus(const std::string& dir,
                                      const std::vector<std::string>& names);

/// Every registry circuit (the paper's Tables 4 and 6), in registry order.
std::vector<std::string> registry_names();

/// Median (or any quantile) of the samples a histogram gained between two
/// scrapes, read as the upper bound of the bucket holding that rank.
double histogram_delta_quantile_ms(const xsfq::serve::server_stats_reply& before,
                                   const xsfq::serve::server_stats_reply& after,
                                   const std::string& name, double q);

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

/// Runs `body(i)` for i in [0, n) on `threads` plain threads; thread t
/// takes i = t, t + threads, ...  `body` must not throw.  Joins every
/// thread before returning.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& body) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += threads) body(i);
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace perfbench
