#include "serve_common.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>

namespace perfbench {

using namespace xsfq;

void daemon::start(const std::string& socket_path,
                   const std::string& cache_dir) {
  std::filesystem::remove_all(cache_dir);
  serve::server_options options;
  options.socket_path = socket_path;
  options.threads = daemon_workers;
  options.cache_dir = cache_dir;
  options.retained_bytes = retained_bytes;
  server = std::make_unique<serve::server>(options);
  for (unsigned t = 0; t < client_threads; ++t) {
    conns.push_back(std::make_unique<serve::client>(socket_path));
  }
}

void daemon::stop() {
  conns.clear();
  if (server) server->stop();
  server.reset();
}

std::vector<op_sample> run_closed_loop(
    double seconds,
    const std::function<op_sample(unsigned, clock_type::time_point)>& op) {
  std::vector<std::vector<op_sample>> per_thread(client_threads);
  const auto start = clock_type::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < client_threads; ++t) {
    threads.emplace_back([&, t] {
      do {
        per_thread[t].push_back(op(t, start));
        per_thread[t].back().thread = t;
      } while (seconds_since(start) < seconds);
    });
  }
  for (auto& th : threads) th.join();
  std::vector<op_sample> merged;
  for (auto& samples : per_thread) {
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  return merged;
}

std::vector<window> split_windows(const std::vector<op_sample>& samples,
                                  std::size_t count) {
  double last = 0.0;
  for (const auto& s : samples) last = std::max(last, s.end_s);
  std::vector<window> out(count);
  for (auto& w : out) w.seconds = last / static_cast<double>(count);
  for (const auto& s : samples) {
    const auto k = static_cast<std::size_t>(s.end_s / last *
                                            static_cast<double>(count));
    out[std::min(k, count - 1)].rtt_ms.push_back(s.rtt_ms);
  }
  return out;
}

std::vector<double> rtts(const std::vector<op_sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.rtt_ms);
  return out;
}

void tally(const std::vector<op_sample>& samples, run_result& out) {
  for (const auto& s : samples) {
    ++out.attempted;
    if (!s.ok) ++out.failed;
  }
}

void add_end_to_end(run_result& out, const std::vector<op_sample>& samples,
                    const std::vector<double>& setup_s, double jj,
                    double gates) {
  std::vector<double> rate, p50;
  for (const window& w : split_windows(samples, phase_windows)) {
    rate.push_back(ratio(static_cast<double>(w.rtt_ms.size()), w.seconds));
    p50.push_back(quantile(w.rtt_ms, 0.50));
  }
  out.add("ops_per_s", median(rate), "1/s");
  out.add("p50_ms", median(p50), "ms");
  // A span holds too few samples to leave ten beyond its p99; the whole
  // phase does.
  out.add("p99_ms", quantile(rtts(samples), 0.99), "ms");
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.add("ok_ratio",
          1.0 - ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)),
          "ratio");
  out.add("xsfq_jj", jj, "JJ");
  out.add("aig_gates", gates, "gates");
}

void print_thread_summary(const char* workload,
                          const std::vector<op_sample>& samples,
                          const std::vector<std::string>& thread_labels) {
  for (unsigned t = 0; t < thread_labels.size(); ++t) {
    std::vector<double> rtt;
    for (const auto& s : samples) {
      if (s.thread == t) rtt.push_back(s.rtt_ms);
    }
    std::fprintf(stderr, "%s: %s: %zu round trips, p50 %.3f ms, p99 %.3f ms\n",
                 workload, thread_labels[t].c_str(), rtt.size(),
                 quantile(rtt, 0.5), quantile(rtt, 0.99));
  }
}

void set_scrape_metrics(const serve::server_stats_reply& before,
                        const serve::server_stats_reply& after, double ops,
                        const std::string& total_hist, layer_metrics& layers) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const flow::batch_cache_stats& a = after.cache;
  const flow::batch_cache_stats& b = before.cache;
  const double full_hits = delta(a.full_hits, b.full_hits);
  const double region_hits = delta(a.region_hits, b.region_hits);
  layers.set("flow.full_hit_ratio",
             ratio(full_hits,
                   full_hits + delta(a.full_misses, b.full_misses)));
  layers.set("opt.region_hit_ratio",
             ratio(region_hits,
                   region_hits + delta(a.region_misses, b.region_misses)));
  layers.set("flow.disk_writes_per_op",
             ratio(delta(a.disk_writes, b.disk_writes), ops));
  layers.set("flow.retained_hit_ratio",
             ratio(delta(after.eco_retained_hits, before.eco_retained_hits),
                   delta(after.eco_requests, before.eco_requests)));
  layers.set("flow.steals",
             ratio(delta(after.status.steals, before.status.steals), ops));
  layers.set("serve.admission_wait_p50_us",
             histogram_delta_quantile_ms(before, after, "queue_wait", 0.5) *
                 1e3);
  layers.set("serve.server_p50_us",
             histogram_delta_quantile_ms(before, after, total_hist, 0.5) *
                 1e3);
}

double span_us(const serve::trace_reply& trace, const std::string& name) {
  for (const auto& s : trace.spans) {
    if (s.name == name) return static_cast<double>(s.dur_us);
  }
  return 0.0;
}

}  // namespace perfbench
