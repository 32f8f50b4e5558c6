/// serve_warm — two persistent connections resubmit already-synthesized
/// file circuits to a daemon with the disk tier on, in seeded shuffles of
/// the corpus, each asking for Verilog.  Optimize, map and baseline do no
/// work here: a request is frontend parse, hash, cache lookup, Verilog
/// render and protocol.
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/synth_service.hpp"
#include "serve_common.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xsfq;

namespace {

constexpr int setup_repeats = 3;
/// Untimed seconds of requests before the timed phase: the set-up's cold
/// fills and local renders leave the process's heap and caches in a state
/// the steady traffic does not see, and timing from the first request would
/// mix that transient into the round-trip figures.
constexpr double warmup_seconds = 3.0;
constexpr std::uint64_t trace_tag = 0x5E4E'0000'0000'0000ull;

/// One traced request: which circuit, and what the client and the daemon
/// measured for it.
struct traced_request {
  std::size_t circuit = 0;
  double rtt_us = 0.0;
  double total_us = 0.0;         ///< daemon request_total span
  double runner_queue_us = 0.0;  ///< daemon runner_queue span
};

bool same_output(const serve::synth_response& got,
                 const serve::synth_response& want) {
  return got.ok && got.report == want.report && got.verilog == want.verilog &&
         got.content_hash == want.content_hash;
}

}  // namespace

run_result run_serve_warm(const run_options& opt) {
  run_result out;
  const std::vector<std::string> names = registry_names();

  // Set-up: write the corpus, start the daemon, and fill its caches with one
  // cold submit per circuit; several times, keeping the last daemon.
  std::vector<double> setup_s;
  std::vector<serve::synth_request> requests;
  std::vector<serve::synth_response> cold(names.size());
  daemon d;
  for (int k = 0; k < setup_repeats; ++k) {
    d.stop();
    std::filesystem::remove_all("corpus");
    const auto start = clock_type::now();
    const std::vector<corpus_file> files = write_corpus("corpus", names);
    requests.clear();
    for (const auto& f : files) {
      requests.push_back(serve::make_request_for_spec(f.path));
      requests.back().want_verilog = true;
    }
    d.start("daemon.sock", "disk_cache");
    parallel_for(requests.size(), client_threads, [&](std::size_t i) {
      try {
        cold[i] = d.conns[i % client_threads]->submit(requests[i]);
      } catch (const std::exception& e) {
        cold[i].ok = false;
        cold[i].error = e.what();
      }
    });
    setup_s.push_back(seconds_since(start));
  }

  // The reference: a local run_synth render of every request.  Its runner
  // stays warm for the layer probes.
  flow::batch_runner local(daemon_workers);
  std::vector<serve::synth_response> reference(requests.size());
  parallel_for(requests.size(), client_threads, [&](std::size_t i) {
    reference[i] = serve::run_synth(requests[i], local);
  });
  double jj = 0.0, gates = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!reference[i].ok || !same_output(cold[i], reference[i])) {
      std::fprintf(stderr, "serve_warm: cold fill of %s differs from the "
                           "local render\n", names[i].c_str());
      out.checks_passed = false;
      continue;
    }
    const auto r = local.run_cached_shared(
        serve::load_request_circuit(requests[i]), requests[i].spec,
        options_for(requests[i]));
    jj += static_cast<double>(r->mapped.stats.jj);
    gates += static_cast<double>(r->optimized.num_gates());
  }

  // Each client thread owns its copy of the requests, so stamping trace ids
  // never races.
  std::vector<std::vector<serve::synth_request>> own(client_threads, requests);
  // Each client walks seeded shuffles of the corpus, so every circuit is
  // requested equally often and a run's mix does not depend on how many of
  // the few slow-to-parse circuits a purely random draw happens to pick.
  std::vector<rng> gens;
  std::vector<std::vector<std::size_t>> order(client_threads);
  for (unsigned t = 0; t < client_threads; ++t) {
    gens.emplace_back(opt.seed * 0x9E3779B97F4A7C15ull + t);
  }
  const auto next_circuit = [&](unsigned t) {
    if (order[t].empty()) {
      for (std::size_t i = 0; i < requests.size(); ++i) order[t].push_back(i);
      for (std::size_t i = order[t].size(); i > 1; --i) {
        std::swap(order[t][i - 1], order[t][gens[t].below(i)]);
      }
    }
    const std::size_t i = order[t].back();
    order[t].pop_back();
    return i;
  };
  std::vector<std::vector<traced_request>> traced(client_threads);
  std::atomic<std::uint64_t> op_counter{0};

  const auto run_phase = [&](double seconds, bool trace) {
    return run_closed_loop(seconds, [&](unsigned t,
                                        clock_type::time_point phase_start) {
      op_sample s;
      const std::size_t i = next_circuit(t);
      serve::synth_request& req = own[t][i];
      const std::uint64_t n = op_counter.fetch_add(1);
      req.trace_hi = trace ? trace_tag | t : 0;
      req.trace_lo = trace ? n + 1 : 0;
      try {
        const auto start = clock_type::now();
        serve::synth_response resp = d.conns[t]->submit(req);
        s.rtt_ms = ms_since(start);
        s.end_s = seconds_since(phase_start);
        if (opt.corrupt && n % 29 == 3 && !resp.verilog.empty()) {
          resp.verilog[resp.verilog.size() / 2] ^= 0x20;
        }
        s.ok = same_output(resp, reference[i]);
        if (trace) {
          const serve::trace_reply tr =
              d.conns[t]->trace({req.trace_hi, req.trace_lo});
          traced[t].push_back({i, s.rtt_ms * 1e3, span_us(tr, "request_total"),
                               span_us(tr, "runner_queue")});
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_warm: request failed: %s\n", e.what());
        s.end_s = seconds_since(phase_start);
      }
      return s;
    });
  };

  tally(run_phase(warmup_seconds, false), out);
  if (!opt.trace) {
    const std::vector<op_sample> samples = run_phase(opt.seconds, false);
    tally(samples, out);
    add_end_to_end(out, samples, setup_s, jj, gates);
    print_thread_summary("serve_warm", samples, {"client 0", "client 1"});
    d.stop();
    return out;
  }

  const std::vector<op_sample> plain = run_phase(opt.seconds / 2, false);
  tally(plain, out);
  const serve::server_stats_reply before = d.conns[0]->server_stats();
  const double cpu_start = cpu_ms();
  const std::vector<op_sample> traced_samples =
      run_phase(opt.seconds / 2, true);
  const double traced_cpu = cpu_ms() - cpu_start;
  tally(traced_samples, out);
  const serve::server_stats_reply after = d.conns[0]->server_stats();
  d.stop();

  layer_metrics layers;
  const std::vector<circuit_costs> costs =
      probe_layers(requests, local, "probe_cache", opt.seed, layers);
  const double ops = static_cast<double>(traced_samples.size());
  set_scrape_metrics(before, after, ops, "request_total", layers);
  std::vector<double> transport, residual, queue;
  for (const auto& per_thread : traced) {
    for (const auto& r : per_thread) {
      const circuit_costs& c = costs[r.circuit];
      transport.push_back(r.rtt_us - r.total_us);
      residual.push_back(r.total_us - (c.parse_us + c.to_aig_us + c.hash_us +
                                       c.lookup_us + c.verilog_us));
      queue.push_back(r.runner_queue_us / 1e3);
    }
  }
  layers.set("serve.transport_us", median(transport));
  layers.set("serve.untraced_us", median(residual));
  layers.set("flow.queue_wait_ms", median(queue));
  layers.set("proc.cpu_ms_per_op", ratio(traced_cpu, ops));
  layers.set("trace_overhead_ratio",
             ratio(median(rtts(traced_samples)), median(rtts(plain))));
  // Every request is a full cache hit: no optimize, no ECO, no passes.
  layers.set_absent({"opt.eco_optimize_ms", "flow.straggler_ratio"});
  layers.emit(out);
  return out;
}

}  // namespace perfbench
