/// batch_corpus — the paper's own job: every registry circuit read from its
/// netlist file and synthesized with default options by one 4-worker
/// batch_runner (the path `xsfq_synth --corpus` takes), caches off, one
/// corpus pass after another, each in a seeded order, until the run time is
/// used up.
#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/edit.hpp"
#include "aig/simulate.hpp"
#include "layers.hpp"
#include "serve/synth_service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xsfq;

namespace {

constexpr unsigned workers = 4;
constexpr int setup_repeats = 15;
/// Passes an untraced run makes at least, even past --seconds: 27 passes of
/// 38 circuits leave at least 10 job samples beyond p99.
constexpr std::size_t min_passes = 27;

/// What one corpus job recorded about itself (all on its worker thread).
struct job_record {
  clock_type::time_point enqueued;
  double queue_ms = 0.0;    ///< enqueue_job -> the job lambda starting
  double run_ms = 0.0;      ///< job lambda start -> end
  double frontend_ms = 0.0; ///< parse + to_aig (traced passes only)
};

/// Pass-invariant facts of one circuit, taken from the first pass.
struct circuit_truth {
  bool known = false;
  std::uint64_t hash = 0;
  std::size_t gates = 0;
  std::size_t jj = 0;
};

struct pass_outcome {
  double wall_ms = 0.0;
  std::vector<job_record> jobs;
  std::vector<flow::flow_result> results;
  std::vector<bool> ok;
};

/// One corpus pass: every file enqueued in `order`, results by file index.
pass_outcome run_pass_once(flow::batch_runner& runner,
                           const std::vector<corpus_file>& files,
                           const std::vector<std::size_t>& order,
                           bool traced) {
  const flow::flow_options options;  // the paper's default flow
  pass_outcome out;
  out.jobs.resize(files.size());
  out.results.resize(files.size());
  out.ok.assign(files.size(), false);
  std::vector<std::future<flow::flow_result>> futures;
  futures.reserve(files.size());
  const auto pass_start = clock_type::now();
  for (const std::size_t i : order) {
    job_record& rec = out.jobs[i];
    rec.enqueued = clock_type::now();
    futures.push_back(runner.enqueue_job([&runner, &rec, &file = files[i],
                                          &options, traced] {
      const auto start = clock_type::now();
      rec.queue_ms =
          std::chrono::duration<double, std::milli>(start - rec.enqueued)
              .count();
      const serve::synth_request req = serve::make_request_for_spec(file.path);
      aig network;
      if (traced) {
        const auto fe = clock_type::now();
        network = parse_request(req).to_aig();
        rec.frontend_ms = ms_since(fe);
      } else {
        network = serve::load_request_circuit(req);
      }
      flow::flow_result r =
          runner.run_cached(std::move(network), file.path, options);
      rec.run_ms = ms_since(start);
      return r;
    }));
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    try {
      out.results[i] = futures[k].get();
      out.ok[i] = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batch_corpus: %s failed: %s\n",
                   files[i].name.c_str(), e.what());
    }
  }
  out.wall_ms = ms_since(pass_start);
  return out;
}

/// Checks one job's output: on the first pass the optimized network must be
/// random-pattern equivalent to the network parsed from the file; on every
/// pass its structure, gate count and JJ must equal the first pass's.
bool check_job(const flow::flow_result& r, const aig& reference,
               circuit_truth& truth) {
  const std::uint64_t hash = r.optimized.content_hash();
  const std::size_t gates = r.optimized.num_gates();
  const std::size_t jj = r.mapped.stats.jj;
  if (!truth.known) {
    if (!random_equivalent(r.optimized, reference, 16, 0xC0FFEE)) return false;
    truth = {true, hash, gates, jj};
    return true;
  }
  return hash == truth.hash && gates == truth.gates && jj == truth.jj;
}

/// Self-test corruption: negates primary output 0 of the optimized network
/// or adds a JJ, alternately, so both halves of check_job are exercised.
void corrupt(flow::flow_result& r, std::uint64_t op) {
  if (op % 2 == 0 && r.optimized.num_pos() > 0) {
    const signal po = r.optimized.co(0);
    std::string script = po.is_complemented() ? "po 0 " : "po 0 !";
    if (po.index() == 0) {
      script += "const0";
    } else {
      script += 'n';
      script += std::to_string(po.index());
    }
    eco::apply_edit_text(r.optimized, script);
  } else {
    r.mapped.stats.jj += 1;
  }
}

}  // namespace

run_result run_batch_corpus(const run_options& opt) {
  run_result out;
  const std::vector<std::string> names = registry_names();

  // Set-up: write the corpus files and start the runner, several times
  // (set-up time is their median); the run uses the last set-up.
  std::vector<double> setup_s;
  std::vector<corpus_file> files;
  std::unique_ptr<flow::batch_runner> runner;
  for (int k = 0; k < setup_repeats; ++k) {
    runner.reset();
    std::filesystem::remove_all("corpus");
    const auto start = clock_type::now();
    files = write_corpus("corpus", names);
    runner = std::make_unique<flow::batch_runner>(workers);
    runner->set_cache_enabled(false);
    setup_s.push_back(seconds_since(start));
  }

  std::vector<aig> reference;
  for (const auto& f : files) {
    reference.push_back(
        serve::load_request_circuit(serve::make_request_for_spec(f.path)));
  }
  std::vector<circuit_truth> truth(files.size());

  // Each pass enqueues the corpus in a fresh seeded order: where the few
  // long circuits land in the queue moves the pass wall, and a run should
  // average over that rather than measure one fixed order.
  rng gen(opt.seed * 0x9E3779B97F4A7C15ull);
  std::vector<std::size_t> order(files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::uint64_t op = 0;
  std::vector<double> job_ms, untraced_walls, traced_walls;
  std::vector<double> queue_ms, straggler, residual_us;
  double first_pass_jj = 0.0, first_pass_gates = 0.0;
  double traced_cpu_ms = 0.0;
  std::uint64_t traced_circuits = 0, traced_steals = 0;

  const auto run_phase = [&](double seconds, bool traced,
                             std::size_t passes_at_least = 1) {
    const auto phase_start = clock_type::now();
    std::size_t passes = 0;
    const double cpu_start = cpu_ms();
    const std::uint64_t steals_start = runner->steals();
    std::uint64_t circuits = 0;
    do {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[gen.below(i)]);
      }
      pass_outcome pass = run_pass_once(*runner, files, order, traced);
      (traced ? traced_walls : untraced_walls).push_back(pass.wall_ms);
      double busy_ms = 0.0;
      for (std::size_t i = 0; i < files.size(); ++i, ++op) {
        ++out.attempted;
        ++circuits;
        const job_record& rec = pass.jobs[i];
        job_ms.push_back(rec.run_ms);
        busy_ms += rec.run_ms;
        bool ok = pass.ok[i];
        if (ok) {
          flow::flow_result& r = pass.results[i];
          const bool first = !truth[i].known;
          if (opt.corrupt && op % 29 == 3) corrupt(r, op / 29);
          ok = check_job(r, reference[i], truth[i]);
          if (ok && first) {
            first_pass_jj += static_cast<double>(truth[i].jj);
            first_pass_gates += static_cast<double>(truth[i].gates);
          }
          if (traced) {
            double stages_ms = 0.0;
            for (const auto& t : r.timings) stages_ms += t.ms;
            queue_ms.push_back(rec.queue_ms);
            residual_us.push_back(
                (rec.run_ms - rec.frontend_ms - stages_ms) * 1e3);
          }
        }
        if (!ok) ++out.failed;
      }
      if (traced) straggler.push_back(ratio(pass.wall_ms, busy_ms / workers));
    } while (++passes < passes_at_least ||
             seconds_since(phase_start) < seconds);
    if (traced) {
      traced_cpu_ms += cpu_ms() - cpu_start;
      traced_circuits += circuits;
      traced_steals += runner->steals() - steals_start;
    }
  };

  if (!opt.trace) {
    run_phase(opt.seconds, false, min_passes);
    std::vector<double> rates;
    for (const double wall : untraced_walls) {
      rates.push_back(static_cast<double>(files.size()) / (wall / 1e3));
    }
    out.add("ops_per_s", median(rates), "1/s");
    out.add("p50_ms", quantile(job_ms, 0.50), "ms");
    out.add("p99_ms", quantile(job_ms, 0.99), "ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("ok_ratio", 1.0 - ratio(out.failed, out.attempted), "ratio");
    out.add("xsfq_jj", first_pass_jj, "JJ");
    out.add("aig_gates", first_pass_gates, "gates");
    std::fprintf(stderr,
                 "batch_corpus: %zu passes, %llu circuits, %zu job time "
                 "samples\n",
                 untraced_walls.size(),
                 static_cast<unsigned long long>(out.attempted),
                 job_ms.size());
    return out;
  }

  run_phase(opt.seconds / 2, false);
  run_phase(opt.seconds / 2, true);
  runner.reset();

  layer_metrics layers;
  {
    std::vector<serve::synth_request> requests;
    for (const auto& f : files) {
      requests.push_back(serve::make_request_for_spec(f.path));
    }
    // The probe's pre-warmed runner: every circuit synthesized once.
    flow::batch_runner warm(workers);
    std::vector<char> ok(requests.size(), 0);
    parallel_for(requests.size(), workers, [&](std::size_t i) {
      ok[i] = serve::run_synth(requests[i], warm).ok ? 1 : 0;
    });
    if (std::count(ok.begin(), ok.end(), 0) > 0) {
      throw std::runtime_error("probe warm-up failed");
    }
    probe_layers(requests, warm, "probe_cache", opt.seed, layers);
  }
  layers.set("flow.queue_wait_ms", mean(queue_ms));
  layers.set("flow.straggler_ratio", median(straggler));
  layers.set("flow.steals", ratio(traced_steals, traced_circuits));
  layers.set("serve.untraced_us", median(residual_us));
  layers.set("proc.cpu_ms_per_op", ratio(traced_cpu_ms, traced_circuits));
  layers.set("trace_overhead_ratio",
             ratio(median(traced_walls), median(untraced_walls)));
  // No daemon, no ECO and no cache tiers: the corpus traffic does none of
  // this work.
  layers.set_absent({"opt.eco_optimize_ms", "opt.region_hit_ratio",
                     "flow.full_hit_ratio", "flow.disk_writes_per_op",
                     "flow.retained_hit_ratio", "serve.admission_wait_p50_us",
                     "serve.server_p50_us", "serve.transport_us"});
  layers.emit(out);
  return out;
}

}  // namespace perfbench
