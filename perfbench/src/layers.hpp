#pragma once
/// \file layers.hpp
/// \brief Per-layer metrics of a traced run: the catalog of names, and the
/// probe that times each layer's public functions from outside on a
/// workload's own circuits.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "flow/batch_runner.hpp"
#include "netlist/netlist.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Per-layer values of one traced run, by metric name.  Every name of the
/// catalog must be set before emit(); a workload whose traffic never
/// reaches a layer sets that layer's traffic metrics to 0 explicitly.
class layer_metrics {
 public:
  void set(const std::string& name, double value);
  /// Sets each name to 0: the workload's traffic does no such work.
  void set_absent(const std::vector<std::string>& names);
  /// Appends every catalog metric, in catalog order, to `result`.  Throws
  /// std::logic_error naming the first metric left unset.
  void emit(run_result& result) const;

 private:
  std::map<std::string, double> values_;
};

/// Cost of each request-path layer for one circuit, timed from outside
/// (median of a few calls) — what one served request of it pays per layer.
struct circuit_costs {
  double parse_us = 0.0;
  double to_aig_us = 0.0;
  double hash_us = 0.0;
  double lookup_us = 0.0;   ///< run_cached_shared on a pre-warmed runner
  double verilog_us = 0.0;
};

/// The netlist frontend of a file request: read_bench_string or
/// read_blif_string on the inlined text (without the to_aig step).
xsfq::netlist parse_request(const xsfq::serve::synth_request& req);

/// The flow options the service derives from a request.
xsfq::flow::flow_options options_for(const xsfq::serve::synth_request& req);

/// The gate nodes of `network`, in array order.
std::vector<xsfq::aig::node_index> gate_nodes(const xsfq::aig& network);

/// An edit script that flips one fanin of each of `count` distinct gates of
/// `network`, drawn uniformly over `gates` (the network's gate array) and
/// from `gen`.  The script keeps every gate's fanins and their order, so it
/// always replays legally.
std::string flip_edit(const xsfq::aig& network,
                      const std::vector<xsfq::aig::node_index>& gates,
                      std::size_t count, xsfq::rng& gen);

/// Times every layer's public functions on each request's circuit and sets
/// the probe-derived metrics of the catalog (netlist.*, aig.*, opt.optimize
/// and pass replay, core.*, baseline.*, flow.cache_lookup_us,
/// flow.disk_store_ms, serve codecs and run_synth).  `warm` must already
/// hold every request (a run_synth of each).  `scratch_dir` receives a throwaway
/// disk cache.  Returns the per-circuit request-path costs, index-aligned
/// with `requests`.
std::vector<circuit_costs> probe_layers(
    const std::vector<xsfq::serve::synth_request>& requests,
    xsfq::flow::batch_runner& warm, const std::string& scratch_dir,
    std::uint64_t seed, layer_metrics& out);

}  // namespace perfbench
