#include "layers.hpp"

#include <filesystem>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "aig/edit.hpp"
#include "baseline/rsfq.hpp"
#include "core/mapper.hpp"
#include "core/xsfq_writer.hpp"
#include "flow/disk_cache.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "opt/script.hpp"
#include "serve/synth_service.hpp"

namespace perfbench {

using namespace xsfq;

namespace {

/// Every per-layer metric a traced run reports, with its unit.  The order
/// is the order of the result line; BENCHMARK.json lists the same names.
const std::vector<std::pair<std::string, std::string>>& catalog() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"netlist.parse_us", "us"},
      {"netlist.parse_mb_per_s", "MB/s"},
      {"netlist.to_aig_us", "us"},
      {"aig.content_hash_us", "us"},
      {"aig.apply_edit_us", "us"},
      {"opt.optimize_ms", "ms"},
      {"opt.cuts_enumerated", "count"},
      {"opt.replacements", "count"},
      {"opt.pass_b_ms", "ms"},
      {"opt.pass_rw_ms", "ms"},
      {"opt.pass_rf_ms", "ms"},
      {"opt.pass_b_gate_delta", "gates"},
      {"opt.pass_rw_gate_delta", "gates"},
      {"opt.pass_rf_gate_delta", "gates"},
      {"opt.eco_optimize_ms", "ms"},
      {"opt.region_hit_ratio", "ratio"},
      {"core.map_ms", "ms"},
      {"core.verilog_us", "us"},
      {"baseline.map_ms", "ms"},
      {"baseline.rsfq_jj", "JJ"},
      {"flow.queue_wait_ms", "ms"},
      {"flow.straggler_ratio", "ratio"},
      {"flow.steals", "count"},
      {"flow.cache_lookup_us", "us"},
      {"flow.full_hit_ratio", "ratio"},
      {"flow.disk_store_ms", "ms"},
      {"flow.disk_writes_per_op", "count"},
      {"flow.retained_hit_ratio", "ratio"},
      {"serve.encode_request_us", "us"},
      {"serve.decode_request_us", "us"},
      {"serve.encode_response_us", "us"},
      {"serve.decode_response_us", "us"},
      {"serve.response_kb", "KiB"},
      {"serve.run_synth_us", "us"},
      {"serve.admission_wait_p50_us", "us"},
      {"serve.server_p50_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.untraced_us", "us"},
      {"proc.cpu_ms_per_op", "ms"},
      {"trace_overhead_ratio", "ratio"},
  };
  return names;
}

/// Calls of a few microseconds are timed this many times per circuit and
/// reported as the median, so one preempted call does not set the figure.
constexpr int micro_reps = 5;

/// Median of micro_reps timed calls of `fn`, each preceded by an untimed
/// call of `prepare` (fresh inputs for calls that consume or edit them).
template <typename Prepare, typename Fn>
double median_us(Prepare&& prepare, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < micro_reps; ++r) {
    prepare();
    const auto start = clock_type::now();
    fn();
    samples.push_back(us_since(start));
  }
  return median(std::move(samples));
}

template <typename Fn>
double median_us(Fn&& fn) {
  return median_us([] {}, fn);
}

/// The optimize script (opt/script.hpp) replayed pass by pass through
/// run_pass: rounds of b, rw, rf, b, rwz until the gate count stops
/// improving.  Accumulates each pass kind's time and gate delta.
struct pass_replay {
  double b_ms = 0.0, rw_ms = 0.0, rf_ms = 0.0;
  double b_delta = 0.0, rw_delta = 0.0, rf_delta = 0.0;

  void run(const aig& network, const optimize_params& params) {
    aig current = network.cleanup();
    const std::vector<std::string> script = {
        "b", "rw", "rf", "b", params.zero_gain_final ? "rwz" : "rw"};
    for (unsigned round = 0; round < params.max_rounds; ++round) {
      const std::size_t round_start = current.num_gates();
      for (const auto& pass : script) {
        const double before = static_cast<double>(current.num_gates());
        const auto start = clock_type::now();
        current = run_pass(current, pass);
        const double ms = ms_since(start);
        const double delta = static_cast<double>(current.num_gates()) - before;
        if (pass == "b") {
          b_ms += ms;
          b_delta += delta;
        } else if (pass[1] == 'w') {
          rw_ms += ms;
          rw_delta += delta;
        } else {
          rf_ms += ms;
          rf_delta += delta;
        }
      }
      if (current.num_gates() >= round_start) break;
    }
  }
};

}  // namespace

void layer_metrics::set(const std::string& name, double value) {
  values_[name] = value;
}

void layer_metrics::set_absent(const std::vector<std::string>& names) {
  for (const auto& name : names) values_[name] = 0.0;
}

void layer_metrics::emit(run_result& result) const {
  for (const auto& [name, unit] : catalog()) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::logic_error("per-layer metric never set: " + name);
    }
    result.add(name, it->second, unit);
  }
}

netlist parse_request(const serve::synth_request& req) {
  return req.source == serve::circuit_source::blif_text
             ? read_blif_string(req.source_text)
             : read_bench_string(req.source_text,
                                 req.model.empty() ? "top" : req.model);
}

flow::flow_options options_for(const serve::synth_request& req) {
  flow::flow_options options;
  options.map = req.map;
  options.opt.validate_passes = req.validate;
  options.opt.flow_jobs = req.flow_jobs == 0 ? 1u : req.flow_jobs;
  options.opt.partition_grain = req.partition_grain;
  return options;
}

std::vector<aig::node_index> gate_nodes(const aig& network) {
  std::vector<aig::node_index> gates;
  network.foreach_gate([&](aig::node_index n) { gates.push_back(n); });
  return gates;
}

std::string flip_edit(const aig& network,
                      const std::vector<aig::node_index>& gates,
                      std::size_t count, rng& gen) {
  const auto token = [](signal s) {
    return (s.is_complemented() ? "!n" : "n") + std::to_string(s.index());
  };
  std::unordered_set<aig::node_index> picked;
  std::string script;
  while (picked.size() < count && picked.size() < gates.size()) {
    const aig::node_index target = gates[gen.below(gates.size())];
    if (!picked.insert(target).second) continue;
    const bool flip_first = gen.flip();
    const signal a = network.fanin0(target);
    const signal b = network.fanin1(target);
    script += "replace n" + std::to_string(target) + " " +
              token(flip_first ? !a : a) + " " + token(flip_first ? b : !b) +
              "\n";
  }
  return script;
}

std::vector<circuit_costs> probe_layers(
    const std::vector<serve::synth_request>& requests,
    flow::batch_runner& warm, const std::string& scratch_dir,
    std::uint64_t seed, layer_metrics& out) {
  std::filesystem::create_directories(scratch_dir);
  flow::disk_result_cache disk(scratch_dir);
  rng gen(seed ^ 0x1A7E75ull);

  std::vector<circuit_costs> costs(requests.size());
  double parse_bytes = 0.0;
  std::vector<double> parse, to_aig, hash, edit, verilog, lookup, store_ms;
  std::vector<double> enc_req, dec_req, enc_resp, dec_resp, resp_kb, synth;
  double optimize_ms = 0.0, cuts = 0.0, replacements = 0.0;
  double map_ms = 0.0, baseline_ms = 0.0, rsfq_jj = 0.0;
  pass_replay passes;

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::synth_request& req = requests[i];
    const flow::flow_options options = options_for(req);
    circuit_costs& c = costs[i];

    netlist parsed;
    c.parse_us = median_us([&] { parsed = parse_request(req); });
    parse_bytes += static_cast<double>(req.source_text.size());
    aig network;
    c.to_aig_us = median_us([&] { network = parsed.to_aig(); });
    std::uint64_t circuit_hash = 0;
    c.hash_us = median_us([&] { circuit_hash = network.content_hash(); });

    const std::vector<aig::node_index> gates = gate_nodes(network);
    aig copy;
    std::string script;
    edit.push_back(median_us(
        [&] {
          copy = network;
          script = flip_edit(copy, gates, 1, gen);
        },
        [&] { eco::apply_edit_text(copy, script); }));

    optimize_stats stats;
    auto start = clock_type::now();
    const aig optimized = optimize(network, options.opt, &stats);
    optimize_ms += ms_since(start);
    cuts += static_cast<double>(stats.work.cuts_enumerated);
    replacements += static_cast<double>(stats.work.replacements);
    passes.run(network, options.opt);

    start = clock_type::now();
    const mapping_result mapped = map_to_xsfq(optimized, req.map);
    map_ms += ms_since(start);
    start = clock_type::now();
    const rsfq_stats baseline = map_to_rsfq(optimized, options.baseline);
    baseline_ms += ms_since(start);
    rsfq_jj += static_cast<double>(baseline.jj_without_clock);
    c.verilog_us = median_us(
        [&] { (void)write_xsfq_verilog_string(mapped, req.spec); });

    std::vector<std::uint8_t> req_bytes;
    enc_req.push_back(
        median_us([&] { req_bytes = serve::encode_synth_request(req); }));
    dec_req.push_back(
        median_us([&] { (void)serve::decode_synth_request(req_bytes); }));

    serve::synth_response resp;
    synth.push_back(median_us([&] { resp = serve::run_synth(req, warm); }));
    if (!resp.ok) throw std::runtime_error("probe run_synth failed: " + req.spec);
    std::vector<std::uint8_t> resp_bytes;
    enc_resp.push_back(
        median_us([&] { resp_bytes = serve::encode_synth_response(resp); }));
    dec_resp.push_back(
        median_us([&] { (void)serve::decode_synth_response(resp_bytes); }));
    resp_kb.push_back(static_cast<double>(resp_bytes.size()) / 1024.0);

    std::shared_ptr<const flow::flow_result> entry;
    const std::uint64_t hits_before = warm.cache_stats().full_hits;
    c.lookup_us = median_us([&] { copy = network; },
                            [&] {
                              entry = warm.run_cached_shared(
                                  std::move(copy), req.spec, options);
                            });
    // options_for must key exactly what the service stored, or this would
    // time a full synthesis instead of a lookup.
    if (warm.cache_stats().full_hits - hits_before !=
        static_cast<std::uint64_t>(micro_reps)) {
      throw std::logic_error("cache lookup probe missed: " + req.spec);
    }
    std::uint64_t store_key = circuit_hash;
    store_ms.push_back(median_us([&] {
                         disk.store(store_key++, flow::fingerprint(options),
                                    *entry);
                       }) /
                       1e3);

    parse.push_back(c.parse_us);
    verilog.push_back(c.verilog_us);
    to_aig.push_back(c.to_aig_us);
    hash.push_back(c.hash_us);
    lookup.push_back(c.lookup_us);
  }

  out.set("netlist.parse_us", mean(parse));
  double parse_us = 0.0;
  for (const double us : parse) parse_us += us;
  out.set("netlist.parse_mb_per_s", ratio(parse_bytes, parse_us));  // B/us
  out.set("netlist.to_aig_us", mean(to_aig));
  out.set("aig.content_hash_us", mean(hash));
  out.set("aig.apply_edit_us", mean(edit));
  out.set("opt.optimize_ms", optimize_ms);
  out.set("opt.cuts_enumerated", cuts);
  out.set("opt.replacements", replacements);
  out.set("opt.pass_b_ms", passes.b_ms);
  out.set("opt.pass_rw_ms", passes.rw_ms);
  out.set("opt.pass_rf_ms", passes.rf_ms);
  out.set("opt.pass_b_gate_delta", passes.b_delta);
  out.set("opt.pass_rw_gate_delta", passes.rw_delta);
  out.set("opt.pass_rf_gate_delta", passes.rf_delta);
  out.set("core.map_ms", map_ms);
  out.set("core.verilog_us", mean(verilog));
  out.set("baseline.map_ms", baseline_ms);
  out.set("baseline.rsfq_jj", rsfq_jj);
  out.set("flow.cache_lookup_us", mean(lookup));
  out.set("flow.disk_store_ms", mean(store_ms));
  out.set("serve.encode_request_us", mean(enc_req));
  out.set("serve.decode_request_us", mean(dec_req));
  out.set("serve.encode_response_us", mean(enc_resp));
  out.set("serve.decode_response_us", mean(dec_resp));
  out.set("serve.response_kb", mean(resp_kb));
  out.set("serve.run_synth_us", mean(synth));
  return costs;
}

}  // namespace perfbench
