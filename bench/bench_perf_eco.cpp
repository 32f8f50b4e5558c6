/// bench_perf_eco — edit→resynthesize latency through the live service path.
///
///   bench_perf_eco [reps] [--json=FILE] [--trace]
///                                         (default: 16 reps per edit size)
///
/// Spins an in-process daemon (Unix socket, no disk cache — the interactive
/// regime is memory/region-cache bound) and drives it over one persistent
/// client connection, exactly like an interactive ECO session: submit the
/// base circuit cold, then chains of synth_delta requests whose edit
/// scripts flip 1, 8, and 64 gates per request.  Every edit targets a
/// previously untouched mid-circuit gate, so each request's circuit is a
/// new content hash — never a disguised full-result cache hit — and the
/// reported figure is min-over-reps of the client-observed round trip
/// (connect + encode + admission + incremental flow + response), the
/// steady state the region cache is designed for.
///
/// Circuits and grains follow docs/operations.md ("Interactive ECO"):
/// c880 at --partition-grain=64, c6288 at --partition-grain=24.  --json
/// emits the bench_perf_eco block consumed by tools/check_perf_regression.py
/// against bench/BENCH_baseline.json, where an absolute cap (not a relative
/// gate) enforces the headline: a single-gate edit on c6288 resynthesizes
/// in under 2 ms end to end.
///
/// A steady phase follows: the same two sessions, interleaved one
/// single-gate edit each at seeded random positions.  They run untimed
/// until the daemon's region tier has taken more stores than its capacity,
/// then 1024 timed rounds, so the tier's eviction policy is on the measured
/// path.  The phase reports the c6288 single-gate p50 and the region hit
/// ratio of the timed rounds; the gate caps the p50 and floors the hit
/// ratio (a ratio of counts, so the floor holds on any host).
///
/// --trace stamps a fresh v6 trace id on every request and, per session,
/// reads the last request's span waterfall back from the daemon
/// (PERF_ECO_TRACE lines).  Reported-only: CI runs it alongside the gated
/// untraced run to show the per-request collector riding the hot path, but
/// the regression gate keys off the untraced JSON figures.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "aig/edit.hpp"
#include "opt/partition.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace xsfq;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

/// --trace id allocator: unique per request within this process/daemon pair
/// (both in-process, so a plain counter under a recognizable hi word is
/// enough — no need for real randomness in a benchmark).
bool g_trace = false;
std::uint64_t next_trace_lo() {
  static std::uint64_t counter = 0;
  return ++counter;
}
constexpr std::uint64_t bench_trace_hi = 0xecb0'0000'0000'0001ull;

std::string sig_token(const signal s) {
  return (s.is_complemented() ? std::string("!") : std::string()) + "n" +
         std::to_string(s.index());
}

/// One ECO session against a shared daemon: cold submit, then `reps`
/// chained delta requests per edit size.  `next_gate` walks the gate array
/// from the middle so every request flips fresh gates (wrapping only after
/// every gate was visited once — still a new parity state, never a repeat).
struct eco_session {
  serve::client& cli;
  std::string name;
  unsigned grain;
  serve::synth_request base;
  aig current;
  std::uint64_t current_hash;
  std::vector<aig::node_index> gates;
  std::size_t next_flip = 0;
  std::unordered_set<std::uint64_t> seen;  ///< every hash served so far
  std::uint64_t last_trace_lo = 0;         ///< id of the latest request

  eco_session(serve::client& client, std::string circuit, unsigned region_grain)
      : cli(client),
        name(std::move(circuit)),
        grain(region_grain),
        base(serve::make_request_for_spec(name)) {
    base.partition_grain = grain;
    current = serve::load_request_circuit(base);
    current_hash = current.content_hash();
    seen.insert(current_hash);
    for (aig::node_index n = 0; n < current.size(); ++n) {
      if (current.is_gate(n)) gates.push_back(n);
    }
    std::rotate(gates.begin(), gates.begin() + gates.size() / 2, gates.end());
  }

  /// Stamps a fresh trace id on `req` when --trace is active (the id rides
  /// the synth_request tail, so deltas stamp their embedded base).
  void stamp(serve::synth_request& req) {
    if (!g_trace) return;
    last_trace_lo = next_trace_lo();
    req.trace_hi = bench_trace_hi;
    req.trace_lo = last_trace_lo;
  }

  double submit_cold() {
    stamp(base);
    const auto start = clock_type::now();
    const serve::synth_response r = cli.submit(base);
    const double ms = ms_since(start);
    if (!r.ok || r.content_hash != current_hash) {
      std::fprintf(stderr, "cold submit failed: %s\n", r.error.c_str());
      std::exit(1);
    }
    return ms;
  }

  /// Flips one fanin of `size` fresh gates and round-trips the delta.  The
  /// flip counter walks (gate, fanin) slots — all of fanin1 first, then all
  /// of fanin0 — so small circuits survive long sessions without ever
  /// toggling back into a previously served parity state; the `seen` set
  /// turns any regression of that property into a hard failure instead of
  /// a silently cache-served (and therefore meaningless) timing.
  double submit_edit(std::size_t size) {
    std::string script;
    for (std::size_t i = 0; i < size; ++i, ++next_flip) {
      const aig::node_index target =
          gates[next_flip % gates.size()];
      script += flip_line(target, (next_flip / gates.size()) % 2 != 0);
    }
    return submit_script(script);
  }

  /// One single-gate flip at a seeded random (gate, fanin) slot, redrawn
  /// while it would return the session to a state it already served.
  double submit_random_flip(rng& gen) {
    for (;;) {
      const std::string script =
          flip_line(gates[gen() % gates.size()], (gen() & 1) != 0);
      aig next = current;
      eco::apply_edit_text(next, script);
      if (!seen.contains(next.content_hash())) return submit_script(script);
    }
  }

 private:
  std::string flip_line(aig::node_index target, bool flip_f0) const {
    const signal a = current.fanin0(target);
    const signal b = current.fanin1(target);
    return "replace n" + std::to_string(target) + " " +
           sig_token(flip_f0 ? !a : a) + " " + sig_token(flip_f0 ? b : !b) +
           "\n";
  }

  /// Round-trips `script` as a delta on the current state and returns the
  /// client-observed milliseconds.
  double submit_script(const std::string& script) {
    serve::synth_delta_request dreq;
    dreq.base = base;
    stamp(dreq.base);
    dreq.base_content_hash = current_hash;
    dreq.edit_text = script;
    dreq.supersede_base = false;

    const auto start = clock_type::now();
    const serve::synth_response r = cli.submit_delta(dreq);
    const double ms = ms_since(start);
    eco::apply_edit_text(current, script);  // keep the local mirror in step
    if (!r.ok || r.content_hash != current.content_hash()) {
      std::fprintf(stderr, "delta diverged from local replay\n");
      std::exit(1);
    }
    current_hash = r.content_hash;
    if (!seen.insert(current_hash).second) {
      std::fprintf(stderr,
                   "edit sequence revisited a served circuit state — the "
                   "timing would measure a cache hit, not an ECO\n");
      std::exit(1);
    }
    return ms;
  }
};

struct eco_figures {
  double cold_ms = 0.0;
  double edit1_ms = 0.0;
  double edit8_ms = 0.0;
  double edit64_ms = 0.0;
};

eco_figures run_session(eco_session& session, int reps) {
  eco_figures out;
  out.cold_ms = session.submit_cold();
  session.submit_edit(1);  // warm-up: first delta pays the retained-copy path
  // Large edits first: the tightly capped single-gate figure is measured in
  // the fully warmed steady state an interactive session actually sits in.
  for (const std::size_t size : {std::size_t{64}, std::size_t{8},
                                 std::size_t{1}}) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      best = std::min(best, session.submit_edit(size));
    }
    (size == 1 ? out.edit1_ms : size == 8 ? out.edit8_ms : out.edit64_ms) =
        best;
  }
  std::printf("PERF_ECO circuit=%s grain=%u cold_ms=%.3f edit1_ms=%.3f "
              "edit8_ms=%.3f edit64_ms=%.3f\n",
              session.name.c_str(), session.grain, out.cold_ms, out.edit1_ms,
              out.edit8_ms, out.edit64_ms);
  if (g_trace) {
    // Read the last measured request's waterfall back from the daemon:
    // proves the per-request collector rode the same hot path the figures
    // above timed (reported-only, not part of the gated JSON).
    const serve::trace_reply tr =
        session.cli.trace({bench_trace_hi, session.last_trace_lo});
    double total_ms = 0.0;
    double stage_ms = 0.0;
    for (const auto& sp : tr.spans) {
      if (sp.name == "request_total") total_ms = sp.dur_us / 1000.0;
      if (sp.name.rfind("stage:", 0) == 0) stage_ms += sp.dur_us / 1000.0;
    }
    std::printf("PERF_ECO_TRACE circuit=%s spans=%zu stage_sum_ms=%.3f "
                "request_total_ms=%.3f\n",
                session.name.c_str(), tr.spans.size(), stage_ms, total_ms);
    if (tr.spans.empty()) {
      std::fprintf(stderr, "--trace produced no spans for the last edit\n");
      std::exit(1);
    }
  }
  return out;
}

struct steady_figures {
  std::size_t edits = 0;
  std::uint64_t region_misses = 0;  ///< = region stores while measured
  double region_hit_ratio = 0.0;
  double c6288_edit1_p50_ms = 0.0;
  double c880_edit1_p50_ms = 0.0;
};

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// The steady phase: both sessions interleaved, one seeded random
/// single-gate edit each per round.  Untimed rounds run until the region
/// tier has taken more stores (one per region miss) than it holds, so every
/// later store evicts; then `measured_rounds` rounds are timed and their
/// region hits and misses counted.
steady_figures run_steady(eco_session& c6288, eco_session& c880) {
  constexpr std::uint64_t capacity = region_cache::default_capacity;
  constexpr std::size_t poll_rounds = 64;  // rounds between stats polls
  constexpr std::size_t max_fill_rounds = 16 * capacity;
  constexpr std::size_t measured_rounds = 1024;
  rng gen(0xEC0'57EAD);
  serve::client& cli = c6288.cli;
  const std::uint64_t misses_before = cli.cache_stats().stats.region_misses;
  for (std::size_t round = 0;
       cli.cache_stats().stats.region_misses - misses_before <= capacity;
       round += poll_rounds) {
    if (round >= max_fill_rounds) {
      std::fprintf(stderr, "steady phase: %zu rounds never filled the "
                           "region tier\n", round);
      std::exit(1);
    }
    for (std::size_t r = 0; r < poll_rounds; ++r) {
      c6288.submit_random_flip(gen);
      c880.submit_random_flip(gen);
    }
  }

  const flow::batch_cache_stats before = cli.cache_stats().stats;
  std::vector<double> c6288_ms;
  std::vector<double> c880_ms;
  for (std::size_t r = 0; r < measured_rounds; ++r) {
    c6288_ms.push_back(c6288.submit_random_flip(gen));
    c880_ms.push_back(c880.submit_random_flip(gen));
  }
  const flow::batch_cache_stats after = cli.cache_stats().stats;
  steady_figures out;
  out.edits = c6288_ms.size() + c880_ms.size();
  out.region_misses = after.region_misses - before.region_misses;
  const std::uint64_t hits = after.region_hits - before.region_hits;
  out.region_hit_ratio = static_cast<double>(hits) /
                         static_cast<double>(hits + out.region_misses);
  out.c6288_edit1_p50_ms = median(std::move(c6288_ms));
  out.c880_edit1_p50_ms = median(std::move(c880_ms));
  std::printf("PERF_ECO_STEADY edits=%zu region_misses=%llu "
              "region_hit_ratio=%.4f c6288_edit1_p50_ms=%.3f "
              "c880_edit1_p50_ms=%.3f\n",
              out.edits, static_cast<unsigned long long>(out.region_misses),
              out.region_hit_ratio, out.c6288_edit1_p50_ms,
              out.c880_edit1_p50_ms);
  return out;
}

void emit_json(std::ostream& os, const eco_figures& f) {
  os << "{\n"
     << "      \"cold_ms\": " << f.cold_ms << ",\n"
     << "      \"edit1_ms\": " << f.edit1_ms << ",\n"
     << "      \"edit8_ms\": " << f.edit8_ms << ",\n"
     << "      \"edit64_ms\": " << f.edit64_ms << "\n"
     << "    }";
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 16;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--trace") {
      g_trace = true;
    } else if (!arg.empty() &&
               arg.find_first_not_of("0123456789") == std::string::npos) {
      reps = std::atoi(arg.c_str());
    } else {
      std::cerr << "usage: " << argv[0]
                << " [reps>0] [--json=FILE] [--trace]\n";
      return 2;
    }
  }
  if (reps <= 0) {
    std::cerr << "usage: " << argv[0]
              << " [reps>0] [--json=FILE] [--trace]\n";
    return 2;
  }

  // The in-process daemon's info-level request.done lines would put one
  // stderr write inside every measured round trip — and make the sub-ms
  // figures depend on how fast whatever consumes stderr drains it.  Warn
  // and above still surface; the always-on span recorder stays on, which
  // is exactly what the gate is meant to price.
  log::set_level(log::level::warn);

  char tmpl[] = "/tmp/xsfq_bench_eco_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::cerr << "mkdtemp failed\n";
    return 1;
  }
  serve::server_options options;
  options.socket_path = std::string(dir) + "/served.sock";
  options.threads = 2;
  serve::server srv(options);
  serve::client cli(options.socket_path);

  eco_session c880_session(cli, "c880", 64);
  eco_session c6288_session(cli, "c6288", 24);
  const eco_figures c880 = run_session(c880_session, reps);
  const eco_figures c6288 = run_session(c6288_session, reps);
  const double speedup =
      c6288.edit1_ms > 0.0 ? c6288.cold_ms / c6288.edit1_ms : 0.0;
  std::printf("c6288 single-gate ECO: %.3f ms vs %.3f ms cold (%.1fx)\n",
              c6288.edit1_ms, c6288.cold_ms, speedup);
  const steady_figures steady = run_steady(c6288_session, c880_session);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n  \"eco\": {\n    \"c880\": ";
    emit_json(os, c880);
    os << ",\n    \"c6288\": ";
    emit_json(os, c6288);
    os << "\n  },\n  \"steady\": {\n"
       << "    \"edits\": " << steady.edits << ",\n"
       << "    \"region_misses\": " << steady.region_misses << ",\n"
       << "    \"region_hit_ratio\": " << steady.region_hit_ratio << ",\n"
       << "    \"c6288_edit1_p50_ms\": " << steady.c6288_edit1_p50_ms
       << ",\n"
       << "    \"c880_edit1_p50_ms\": " << steady.c880_edit1_p50_ms << "\n"
       << "  }\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  srv.stop();
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  return 0;
}
