#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "benchgen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/netlist.hpp"
#include "util/histogram.hpp"

namespace perfbench {

void print_result_line(const run_result& result) {
  const bool correct = result.failed == 0 && result.checks_passed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const metric& m = result.metrics[i];
    // %.17g keeps every digit of the measurement; non-finite values cannot
    // be written as JSON numbers, so they are reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

double us_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::micro>(clock_type::now() - start)
      .count();
}

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const auto& entry : xsfq::benchgen::all_benchmarks()) {
    names.push_back(entry.name);
  }
  return names;
}

std::vector<corpus_file> write_corpus(const std::string& dir,
                                      const std::vector<std::string>& names) {
  std::filesystem::create_directories(dir);
  std::vector<corpus_file> files;
  for (const auto& name : names) {
    bool epfl = false;
    for (const auto& entry : xsfq::benchgen::all_benchmarks()) {
      if (entry.name == name) {
        epfl = entry.which_suite == xsfq::benchgen::suite::epfl;
      }
    }
    const xsfq::netlist nl =
        xsfq::netlist_from_aig(xsfq::benchgen::make_benchmark(name), name);
    corpus_file f{name, dir + "/" + name + (epfl ? ".blif" : ".bench")};
    std::ofstream os(f.path, std::ios::binary);
    os << (epfl ? xsfq::write_blif_string(nl) : xsfq::write_bench_string(nl));
    if (!os.flush()) throw std::runtime_error("cannot write " + f.path);
    files.push_back(std::move(f));
  }
  return files;
}

double histogram_delta_quantile_ms(const xsfq::serve::server_stats_reply& before,
                                   const xsfq::serve::server_stats_reply& after,
                                   const std::string& name, double q) {
  using xsfq::log_histogram;
  std::vector<std::uint64_t> delta(log_histogram::num_buckets, 0);
  for (const auto& h : after.histograms) {
    if (h.name != name) continue;
    for (std::size_t i = 0; i < h.buckets.size() && i < delta.size(); ++i) {
      delta[i] += h.buckets[i];
    }
  }
  for (const auto& h : before.histograms) {
    if (h.name != name) continue;
    for (std::size_t i = 0; i < h.buckets.size() && i < delta.size(); ++i) {
      delta[i] -= std::min(delta[i], h.buckets[i]);
    }
  }
  std::uint64_t total = 0;
  for (const auto c : delta) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    seen += delta[i];
    if (static_cast<double>(seen) >= rank && seen > 0) {
      return log_histogram::bucket_upper_ms(i);
    }
  }
  return log_histogram::bucket_upper_ms(delta.size() - 1);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
