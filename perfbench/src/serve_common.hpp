#pragma once
/// \file serve_common.hpp
/// \brief What the two daemon workloads share: the daemon configuration,
/// the closed-loop phase runner, and the scrape-derived layer metrics.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Daemon workers and client threads together stay within a 4-core host.
constexpr unsigned daemon_workers = 2;
constexpr unsigned client_threads = 2;

/// Byte budget of the daemon's retained-network tier (--retained-bytes).
/// ECO sessions retain every state they pass through; at this budget the
/// tier is full before serve_eco's timed phase starts, so peak memory does
/// not grow with the number of edits a run manages.
constexpr std::size_t retained_bytes = 64u << 20;

/// An in-process daemon in the documented deployment (Unix socket, disk
/// tier on) with one persistent client connection per client thread.
struct daemon {
  std::unique_ptr<xsfq::serve::server> server;
  std::vector<std::unique_ptr<xsfq::serve::client>> conns;

  /// Starts a fresh daemon on `socket_path` with an empty disk cache at
  /// `cache_dir`, and connects client_threads clients.
  void start(const std::string& socket_path, const std::string& cache_dir);
  /// Closes the connections and drains the daemon.
  void stop();
};

/// One completed round trip.
struct op_sample {
  bool ok = false;  ///< completed and passed its output check
  double rtt_ms = 0.0;
  double end_s = 0.0;  ///< completion time since the phase started
  unsigned thread = 0;  ///< client thread that made the call
};

/// Runs `op(thread, phase_start)` in a closed loop on client_threads threads
/// until `seconds` have passed; each call performs one operation, checks its
/// output and returns its sample (it must not throw).  Returns every
/// thread's samples, merged.
std::vector<op_sample> run_closed_loop(
    double seconds,
    const std::function<op_sample(unsigned, clock_type::time_point)>& op);

/// The timed phase is cut into this many equal spans of completion time,
/// and throughput and the median round trip are each the median of their
/// per-span values.  A
/// burst of interference from outside the process that covers fewer than
/// half the spans then does not move the figure; steady traffic gives the
/// same figure as the whole phase would.
constexpr std::size_t phase_windows = 5;

/// One span of a timed phase: its length and the round trips completed in
/// it.
struct window {
  double seconds = 0.0;
  std::vector<double> rtt_ms;
};

/// Cuts [0, last completion] into `count` equal spans and sorts every
/// sample into the span its completion falls in.
std::vector<window> split_windows(const std::vector<op_sample>& samples,
                                  std::size_t count);

std::vector<double> rtts(const std::vector<op_sample>& samples);

/// Counts every sample into out.attempted, and the failed ones into
/// out.failed.
void tally(const std::vector<op_sample>& samples, run_result& out);

/// The end-to-end metrics of an untraced daemon run whose timed phase gave
/// `samples` (tally them first): throughput and the median round trip as
/// medians over the phase_windows spans, p99 over the whole phase;
/// `setup_s` holds every set-up repeat, `jj` and `gates` the workload's
/// summed QoR.
void add_end_to_end(run_result& out, const std::vector<op_sample>& samples,
                    const std::vector<double>& setup_s, double jj,
                    double gates);

/// One stderr line per client thread: calls made, p50 and p99 round trip.
void print_thread_summary(const char* workload,
                          const std::vector<op_sample>& samples,
                          const std::vector<std::string>& thread_labels);

/// The per-layer metrics read from two server_stats scrapes around a traced
/// phase of `ops` operations whose end-to-end histogram is `total_hist`
/// (request_total for submits, eco_total for synth_delta).
void set_scrape_metrics(const xsfq::serve::server_stats_reply& before,
                        const xsfq::serve::server_stats_reply& after,
                        double ops, const std::string& total_hist,
                        layer_metrics& layers);

/// The daemon-side duration of a named span of one traced request, in µs
/// (0 when the span is absent).
double span_us(const xsfq::serve::trace_reply& trace, const std::string& name);

}  // namespace perfbench
