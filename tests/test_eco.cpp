/// Tests for incremental ECO resynthesis: the edit-script grammar and its
/// position-stable replay (aig/edit.hpp), byte-identity of the incremental
/// service path against full resynthesis across the ISCAS85 circuits, the
/// batch_runner ECO surface (retained-network tier, patch/drop cache
/// entries, region counters), the v4 protocol payloads, and the synth_delta
/// request end to end against an in-process daemon, including the typed
/// unknown_base / bad_edit rejections.
#include "aig/edit.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "aig/simulate.hpp"
#include "benchgen/registry.hpp"
#include "flow/batch_runner.hpp"
#include "opt/partition.hpp"
#include "serve/client.hpp"
#include "serve/resilient_client.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"

namespace xsfq {
namespace {

namespace fs = std::filesystem;
using namespace serve;

struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_eco_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// a & b, !a & !b feeding two outputs — small but with every node consumed.
aig small_network() {
  aig g;
  const signal a = g.create_pi("a");
  const signal b = g.create_pi("b");
  const signal c = g.create_pi("c");
  const signal n4 = g.create_and(a, b);     // n4
  const signal n5 = g.create_and(n4, c);    // n5
  g.create_po(n5, "y0");
  g.create_po(!n4, "y1");
  return g;
}

std::string sig_token(const signal s) {
  std::string t = s.is_complemented() ? "!" : "";
  t += "n" + std::to_string(s.index());
  return t;
}

/// A deterministic single-gate edit on gate `which` (counted from the
/// middle of the array): flip the second fanin's complement in place.
/// Always legal (fanins already precede the target) and never a no-op
/// (the node array changes, so the content hash changes).
std::string flip_gate_edit(const aig& g, std::size_t which = 0) {
  std::vector<aig::node_index> gates;
  for (aig::node_index n = 0; n < g.size(); ++n) {
    if (g.is_gate(n)) gates.push_back(n);
  }
  const aig::node_index target = gates.at(gates.size() / 2 + which);
  const signal a = g.fanin0(target);
  const signal b = g.fanin1(target);
  return "replace n" + std::to_string(target) + " " + sig_token(a) + " " +
         sig_token(!b) + "\n";
}

// ---------------------------------------------------------------------------
// Edit script: parse errors.
// ---------------------------------------------------------------------------

TEST(EcoEdit, ParseRejectsMalformedScripts) {
  const char* bad[] = {
      "frobnicate n1 n2",        // unknown op
      "replace n4",              // missing operands
      "replace n4 n1 n2 n3",     // too many operands
      "replace !n4 n1 n2",       // complemented target
      "replace g0 n1 n2",        // wrong target kind
      "sub n4",                  // missing source
      "po x n1",                 // non-numeric output index
      "and g0 n1",               // missing operand
      "addpo",                   // missing signal
      "replace n4 q1 n2",        // bad signal token
      "replace n4 n n2",         // bare 'n'
  };
  for (const char* text : bad) {
    EXPECT_THROW(eco::parse_edit_script(text), eco::edit_error) << text;
  }
}

TEST(EcoEdit, ParseAcceptsCommentsBlanksAndNames) {
  const auto script = eco::parse_edit_script(
      "# full line comment\n"
      "\n"
      "  addpi extra_in  # trailing comment\n"
      "addpo !n4 extra_out\n");
  ASSERT_EQ(script.ops.size(), 2u);
  EXPECT_EQ(script.ops[0].name, "extra_in");
  EXPECT_EQ(script.ops[1].name, "extra_out");
  EXPECT_TRUE(script.ops[1].a.complement);
  EXPECT_EQ(script.ops[0].line, 3u);  // line numbers survive for errors
}

TEST(EcoEdit, EmptyScriptIsLegalAndANoOp) {
  aig g = small_network();
  const std::uint64_t before = g.content_hash();
  const auto info = eco::apply_edit_text(g, "# nothing\n\n");
  EXPECT_EQ(g.content_hash(), before);
  EXPECT_EQ(info.gates_replaced, 0u);
  EXPECT_EQ(info.first_touched, aig::null_node);
}

// ---------------------------------------------------------------------------
// Edit script: replay semantics and illegal-replay rejection.
// ---------------------------------------------------------------------------

TEST(EcoEdit, ReplaceRedefinesGateInPlace) {
  aig g = small_network();
  const std::size_t size_before = g.size();
  // n4 = a & b  ->  n4 = a & !b; every other node keeps its position.
  const auto info = eco::apply_edit_text(g, "replace n4 n1 !n2\n");
  EXPECT_EQ(g.size(), size_before);
  EXPECT_EQ(info.gates_replaced, 1u);
  EXPECT_EQ(info.first_touched, 4u);
  EXPECT_EQ(g.fanin1(4), !signal(2, false));

  aig expected;
  const signal a = expected.create_pi("a");
  const signal b = expected.create_pi("b");
  const signal c = expected.create_pi("c");
  const signal n4 = expected.create_and(a, !b);
  expected.create_po(expected.create_and(n4, c), "y0");
  expected.create_po(!n4, "y1");
  EXPECT_TRUE(exhaustive_equivalent(g, expected));
}

TEST(EcoEdit, SubstituteRedirectsEveryConsumer) {
  aig g = small_network();
  // Redirect every consumer of n4 (gate n5 and PO 1) to !a.
  const auto info = eco::apply_edit_text(g, "sub n4 !n1\n");
  EXPECT_EQ(info.substitutions, 1u);
  EXPECT_EQ(g.fanin0(5).index(), 1u);   // n5 now reads a directly
  EXPECT_EQ(g.po_signal(1).index(), 1u);

  aig expected;
  const signal a = expected.create_pi("a");
  expected.create_pi("b");
  const signal c = expected.create_pi("c");
  expected.create_po(expected.create_and(!a, c), "y0");
  expected.create_po(a, "y1");
  EXPECT_TRUE(exhaustive_equivalent(g, expected));

  // Within one script, a substituted-away node may not be referenced by any
  // later op (the deleted set is replay state, not network state).
  aig g2 = small_network();
  EXPECT_THROW(eco::apply_edit_text(g2, "sub n4 !n1\naddpo n4\n"),
               eco::edit_error);
  aig g3 = small_network();
  EXPECT_THROW(eco::apply_edit_text(g3, "sub n4 !n1\nsub n4 n2\n"),
               eco::edit_error);
}

TEST(EcoEdit, NewGatesAndPortsAppend) {
  aig g = small_network();
  const std::size_t size_before = g.size();
  const auto info = eco::apply_edit_text(g,
                                         "and g0 n4 !n3\n"
                                         "and g1 g0 n1\n"
                                         "addpi spare\n"
                                         "addpo !g1 y2\n"
                                         "po 0 g0\n");
  EXPECT_EQ(info.gates_added, 2u);
  EXPECT_EQ(info.pis_added, 1u);
  EXPECT_EQ(info.pos_added, 1u);
  EXPECT_EQ(info.pos_retargeted, 1u);
  // Appended, never inserted: the base prefix is untouched.
  EXPECT_EQ(g.size(), size_before + 3);  // 2 gates + 1 PI
  EXPECT_EQ(g.num_pos(), 3u);
  // New gates must be defined in ordinal order.
  EXPECT_THROW(eco::apply_edit_text(g, "and g5 n1 n2\n"), eco::edit_error);
}

TEST(EcoEdit, ReplayRejectsIllegalSteps) {
  const char* bad[] = {
      "replace n1 n2 n3",      // target is a PI, not a gate
      "replace n99 n1 n2",     // unknown node
      "replace n5 n5 n1",      // fanin does not precede the target
      "replace n5 n99 n1",     // unknown fanin
      "replace n4 n1 n1",      // degenerate gate (a == b)
      "replace n4 n1 !n1",     // degenerate gate (a == !a)
      "replace n4 const0 n1",  // constant fanin is degenerate here
      "sub n0 n1",             // constant node is not substitutable
      "sub n4 n4",             // source is the target itself
      "sub n4 n5",             // cyclic retarget: source after a consumer
      "po 7 n1",               // unknown output index
      "and g0 n1 n99",         // unknown fanin on a new gate
      "addpo g0",              // g0 never defined
  };
  for (const char* text : bad) {
    aig g = small_network();
    EXPECT_THROW(eco::apply_edit_text(g, text), eco::edit_error) << text;
  }
}

TEST(EcoEdit, ReplayIsPositionStableOnRealCircuit) {
  const aig base = benchgen::make_benchmark("c880");
  aig edited = base;
  const std::string script = flip_gate_edit(base);
  const auto info = eco::apply_edit_text(edited, script);
  ASSERT_EQ(info.gates_replaced, 1u);
  ASSERT_NE(info.first_touched, aig::null_node);
  EXPECT_NE(edited.content_hash(), base.content_hash());
  // Every node below the first touched index is bit-identical, and node
  // count is unchanged — the property the region cache keys on.
  ASSERT_EQ(edited.size(), base.size());
  for (aig::node_index n = 0; n < info.first_touched; ++n) {
    if (!base.is_gate(n)) continue;
    EXPECT_EQ(edited.fanin0(n), base.fanin0(n)) << n;
    EXPECT_EQ(edited.fanin1(n), base.fanin1(n)) << n;
  }
}

// ---------------------------------------------------------------------------
// Incremental vs full resynthesis: byte-identity through the service driver.
// ---------------------------------------------------------------------------

TEST(EcoFlow, DeltaMatchesFullResynthesisAcrossIscas85) {
  flow::batch_runner warm(1);    // serves the incremental path
  flow::batch_runner cold(1);    // computes the from-scratch expectation
  cold.set_cache_enabled(false);

  for (const char* name : {"c432", "c880", "c1908", "c6288"}) {
    synth_request base = make_request_for_spec(name);
    base.partition_grain = 32;
    base.want_verilog = true;
    const aig base_net = load_request_circuit(base);

    // Prime the warm runner exactly as a serving daemon would.
    const synth_response primed = run_synth(base, warm);
    ASSERT_TRUE(primed.ok) << name;
    EXPECT_EQ(primed.content_hash, base_net.content_hash()) << name;

    synth_delta_request dreq;
    dreq.base = base;
    dreq.base_content_hash = base_net.content_hash();
    dreq.edit_text = flip_gate_edit(base_net);
    dreq.supersede_base = false;

    eco_outcome outcome;
    const synth_response eco = run_synth_delta(dreq, warm, {}, &outcome);
    ASSERT_TRUE(eco.ok) << name;
    EXPECT_TRUE(outcome.base_retained) << name;

    // The from-scratch expectation: the force_full delta path runs the
    // identical flow with every cache tier bypassed, on a cache-disabled
    // runner that never saw the base (exercising the rebuild path too).
    aig edited = base_net;
    eco::apply_edit_text(edited, dreq.edit_text);
    synth_delta_request freq = dreq;
    freq.force_full = true;
    eco_outcome cold_outcome;
    const synth_response expected =
        run_synth_delta(freq, cold, {}, &cold_outcome);
    ASSERT_TRUE(expected.ok) << name;
    EXPECT_TRUE(cold_outcome.base_rebuilt) << name;

    // Wide-sim check that the edit actually changed the circuit's function
    // (the identity below must not be vacuous no-op-edit identity).
    EXPECT_FALSE(random_equivalent(base_net, edited)) << name;

    EXPECT_EQ(eco.report, expected.report) << name;
    EXPECT_EQ(eco.verilog, expected.verilog) << name;
    EXPECT_EQ(eco.content_hash, expected.content_hash) << name;
    EXPECT_EQ(eco.content_hash, edited.content_hash()) << name;
    EXPECT_NE(eco.content_hash, primed.content_hash) << name;
  }
}

TEST(EcoFlow, RegionCacheCountersTrackIncrementalWork) {
  flow::batch_runner runner(1);
  synth_request base = make_request_for_spec("c880");
  base.partition_grain = 64;
  const aig base_net = load_request_circuit(base);
  ASSERT_TRUE(run_synth(base, runner).ok);

  synth_delta_request dreq;
  dreq.base = base;
  dreq.base_content_hash = base_net.content_hash();
  dreq.edit_text = flip_gate_edit(base_net);

  const auto before = runner.cache_stats();
  ASSERT_TRUE(run_synth_delta(dreq, runner).ok);
  const auto after = runner.cache_stats();

  // The edit touches one region; every other region replays from the cache.
  EXPECT_GT(after.region_hits, before.region_hits);
  EXPECT_GT(after.region_misses, before.region_misses);
  EXPECT_GT(after.region_hits - before.region_hits,
            after.region_misses - before.region_misses);
  // supersede_base dropped the superseded entry.
  EXPECT_GT(after.eco_patches, before.eco_patches);
}

TEST(EcoFlow, SupersededBaseIsDroppedAndRebuildable) {
  flow::batch_runner runner(1);
  synth_request base = make_request_for_spec("c432");
  base.partition_grain = 32;
  const aig base_net = load_request_circuit(base);
  ASSERT_TRUE(run_synth(base, runner).ok);

  synth_delta_request dreq;
  dreq.base = base;
  dreq.base_content_hash = base_net.content_hash();
  dreq.edit_text = flip_gate_edit(base_net);
  dreq.supersede_base = true;
  ASSERT_TRUE(run_synth_delta(dreq, runner).ok);

  // The base entry is gone: dropping again finds nothing.
  flow::flow_options options;
  options.opt.partition_grain = 32;
  EXPECT_FALSE(runner.drop_entry(base_net.content_hash(), base_net.num_gates(),
                                 base.spec, options));

  // A delta naming a never-served base hash still succeeds when the
  // request's own circuit text hashes to that base (rebuild path).
  flow::batch_runner fresh(1);
  eco_outcome outcome;
  const synth_response r = run_synth_delta(dreq, fresh, {}, &outcome);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(outcome.base_rebuilt);
  EXPECT_FALSE(outcome.base_retained);
}

TEST(EcoFlow, UnknownBaseAndBadEditThrowTypedErrors) {
  flow::batch_runner runner(1);
  synth_request base = make_request_for_spec("c432");
  const aig base_net = load_request_circuit(base);

  synth_delta_request dreq;
  dreq.base = base;
  dreq.base_content_hash = 0xdeadbeefu;  // matches nothing
  dreq.edit_text = flip_gate_edit(base_net);
  try {
    run_synth_delta(dreq, runner);
    FAIL() << "expected unknown_base";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::unknown_base);
  }

  dreq.base_content_hash = base_net.content_hash();
  dreq.edit_text = "replace n1 n2 n3\n";  // PI target: illegal replay
  try {
    run_synth_delta(dreq, runner);
    FAIL() << "expected bad_edit";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::bad_edit);
  }
}

// ---------------------------------------------------------------------------
// batch_runner ECO surface.
// ---------------------------------------------------------------------------

TEST(EcoRunner, RetainedNetworkTierIsAByteBudgetedLru) {
  flow::batch_runner runner(1);
  synth_request req = make_request_for_spec("c432");
  const std::uint64_t hash = load_request_circuit(req).content_hash();
  ASSERT_TRUE(run_synth(req, runner).ok);

  const auto retained = runner.retained_network(hash);
  ASSERT_NE(retained, nullptr);
  EXPECT_EQ(retained->content_hash(), hash);
  EXPECT_EQ(runner.retained_network(hash ^ 1), nullptr);
  EXPECT_GE(runner.cache_stats().retained_networks, 1u);
  EXPECT_EQ(runner.cache_stats().retained_evictions, 0u);

  // Budget for ~3 copies of this circuit (the edited variants below are
  // the same size — replace edits keep the node count), then push edited
  // variants through the serving path: the coldest entries must go, every
  // eviction counted.  Each iteration flips a previously untouched gate,
  // so every content hash along the way is new.
  const std::size_t entry_bytes = retained->memory_bytes();
  runner.set_retained_bytes(3 * entry_bytes);
  aig net = load_request_circuit(req);
  std::vector<std::uint64_t> hashes;
  for (std::size_t i = 0; i < 6; ++i) {
    eco::apply_edit_text(net, flip_gate_edit(net, i));
    flow::flow_options options;
    runner.run_cached(net, "evict_" + std::to_string(i), options);
    hashes.push_back(net.content_hash());
  }
  EXPECT_EQ(runner.retained_network(hash), nullptr);  // base: evicted
  const flow::batch_cache_stats stats = runner.cache_stats();
  EXPECT_LE(stats.retained_networks, 3u);
  EXPECT_GE(stats.retained_evictions, 3u);

  // LRU, not FIFO: touching the oldest survivor must protect it — the
  // next insert evicts the now-least-recently-used entry instead.
  ASSERT_NE(runner.retained_network(hashes[3]), nullptr);  // touch
  eco::apply_edit_text(net, flip_gate_edit(net, 6));
  flow::flow_options options;
  runner.run_cached(net, "evict_6", options);
  EXPECT_NE(runner.retained_network(hashes[3]), nullptr);  // protected
  EXPECT_EQ(runner.retained_network(hashes[4]), nullptr);  // evicted

  // Shrinking the budget below one entry keeps the most recently used
  // network (hashes[3], touched above): evicting the base a session is
  // actively editing would turn every delta into a full rebuild.
  runner.set_retained_bytes(1);
  EXPECT_EQ(runner.cache_stats().retained_networks, 1u);
  EXPECT_NE(runner.retained_network(hashes[3]), nullptr);
}

TEST(EcoRunner, PatchEntryInstallsServableResult) {
  temp_dir dir;
  flow::batch_runner runner(1);
  runner.set_disk_cache(dir.path + "/cache");

  const aig net = benchgen::make_benchmark("c432");
  flow::flow_options options;
  const flow::flow_result computed =
      runner.run_uncached(net, "c432", options, {});
  EXPECT_EQ(runner.cache_stats().full_hits, 0u);

  runner.patch_entry(net.content_hash(), net.num_gates(), "c432", options,
                     computed);
  EXPECT_EQ(runner.cache_stats().eco_patches, 1u);

  // The patched entry serves the next request from memory...
  const flow::flow_result served = runner.run_cached(net, "c432", options);
  EXPECT_EQ(runner.cache_stats().full_hits, 1u);
  EXPECT_EQ(served.mapped.netlist.summary(), computed.mapped.netlist.summary());

  // ...and was persisted: a fresh runner on the same directory disk-hits.
  flow::batch_runner restarted(1);
  restarted.set_disk_cache(dir.path + "/cache");
  restarted.run_cached(net, "c432", options);
  EXPECT_EQ(restarted.cache_stats().disk_hits, 1u);
}

TEST(EcoRunner, DropEntryRemovesMemoryAndDiskTiers) {
  temp_dir dir;
  flow::batch_runner runner(1);
  runner.set_disk_cache(dir.path + "/cache");

  const aig net = benchgen::make_benchmark("c432");
  flow::flow_options options;
  runner.run_cached(net, "c432", options);

  EXPECT_TRUE(runner.drop_entry(net.content_hash(), net.num_gates(), "c432",
                                options));
  EXPECT_FALSE(runner.drop_entry(net.content_hash(), net.num_gates(), "c432",
                                 options));
  EXPECT_GE(runner.cache_stats().eco_patches, 1u);

  // Neither the memory tier nor the disk tier serves the dropped entry.
  runner.run_cached(net, "c432", options);
  EXPECT_EQ(runner.cache_stats().full_hits, 0u);
  EXPECT_EQ(runner.cache_stats().disk_hits, 0u);
}

// ---------------------------------------------------------------------------
// Region tier: least-recently-used eviction and compact entries.
// ---------------------------------------------------------------------------

TEST(EcoRegionTier, HotKeysSurviveForeignStoresBeyondCapacity) {
  constexpr std::size_t capacity = 4;
  region_cache cache(capacity);
  const auto entry = std::make_shared<const region_cache::entry>();
  constexpr std::uint64_t hot = 1;
  constexpr std::uint64_t first_foreign = 100;
  constexpr std::uint64_t foreign = 3 * capacity;
  cache.store(hot, entry);
  for (std::uint64_t k = first_foreign; k < first_foreign + foreign; ++k) {
    ASSERT_NE(cache.lookup(hot), nullptr) << "evicted before store " << k;
    cache.store(k, entry);
    EXPECT_LE(cache.size(), capacity);
  }
  EXPECT_NE(cache.lookup(hot), nullptr);
  // The cold end went first: only the newest capacity-1 foreign keys remain.
  for (std::uint64_t k = first_foreign; k < first_foreign + foreign; ++k) {
    const bool newest = k >= first_foreign + foreign - (capacity - 1);
    EXPECT_EQ(cache.lookup(k) != nullptr, newest) << k;
  }
  // Re-storing a present key refreshes it instead of growing the tier.
  cache.store(hot, entry);
  EXPECT_EQ(cache.size(), capacity);
}

TEST(EcoRegionTier, EditChainMissesFewRegionsAndMatchesUncachedRuns) {
  aig net = benchgen::make_benchmark("c6288");
  constexpr std::size_t grain = 24;
  const std::size_t regions = net.num_gates() / grain;
  optimize_params uncached;
  uncached.partition_grain = grain;
  // The multiplier repeats itself: count the distinct regions of one state.
  region_cache probe;
  optimize_params probed = uncached;
  probed.regions = &probe;
  (void)optimize_partitioned(net, probed);
  // Room for every region of one state plus a little slack, so the hot set
  // always fits; each edit stores one new region, and the chain stores
  // enough of them to run across a few dozen evictions.
  const std::size_t capacity = regions + 8;
  const std::size_t edits = capacity - probe.size() + 24;
  region_cache cache(capacity);
  optimize_params cached = uncached;
  cached.regions = &cache;

  partition_info info;
  for (std::size_t e = 0; e <= edits; ++e) {
    if (e > 0) {
      // Spread the edits over the array; every slot is visited once, so no
      // edited region ever returns to an earlier content.
      eco::apply_edit_text(net, flip_gate_edit(net, (e * 37) % 1000));
    }
    const aig incremental = optimize_partitioned(net, cached, nullptr, &info);
    const aig reference = optimize_partitioned(net, uncached);
    ASSERT_EQ(info.partitions, regions);
    if (e > 0) {
      EXPECT_LE(info.region_cache_misses, 2u) << "edit " << e;
    }
    EXPECT_EQ(incremental.content_hash(), reference.content_hash())
        << "edit " << e;
    EXPECT_EQ(incremental.size(), reference.size()) << "edit " << e;
  }
  EXPECT_EQ(cache.size(), capacity);
  EXPECT_GE(cache.counts().evictions, 16u);
}

TEST(EcoRegionTier, EntriesStayCompact) {
  // An entry must not hold a structural-hash index or spare capacity: its
  // footprint stays within twice the smallest form of the network, two
  // fanin words per node plus one word per interface signal.
  const auto lower_bound_bytes = [](const aig& g) {
    return (2 * g.size() + g.num_pis() + g.num_pos()) * sizeof(signal);
  };
  constexpr std::size_t capacity = 3;
  region_cache cache(capacity);
  std::vector<std::size_t> bound_bytes;  // per stored network
  std::vector<std::size_t> aig_bytes;
  std::uint64_t key = 0;
  for (const char* name : {"c432", "c499", "c880", "c1355", "c1908"}) {
    optimize_stats stats;
    const aig optimized = optimize(benchgen::make_benchmark(name), {}, &stats);
    const auto entry = region_cache::entry::make(optimized, stats);
    EXPECT_EQ(entry->fanins.size(), 2 * optimized.num_gates()) << name;
    EXPECT_EQ(entry->outputs.size(), optimized.num_pos()) << name;
    cache.store(++key, entry);
    bound_bytes.push_back(lower_bound_bytes(optimized));
    aig_bytes.push_back(optimized.memory_bytes());
  }
  // Only the last `capacity` stores are held.
  std::size_t held_bound = 0;
  std::size_t held_aig = 0;
  for (std::size_t i = bound_bytes.size() - capacity; i < bound_bytes.size();
       ++i) {
    held_bound += bound_bytes[i];
    held_aig += aig_bytes[i];
  }
  EXPECT_EQ(cache.size(), capacity);
  EXPECT_GT(cache.memory_bytes(), 0u);
  EXPECT_LE(cache.memory_bytes(), 2 * held_bound);
  // The bound discriminates: the networks themselves, strash and all,
  // would break it.
  EXPECT_GT(held_aig, 2 * held_bound);
  cache.clear();
  EXPECT_EQ(cache.memory_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// v4 protocol payloads.
// ---------------------------------------------------------------------------

TEST(EcoProtocol, SynthDeltaRequestRoundTrips) {
  synth_delta_request req;
  req.base = make_request_for_spec("c432");
  req.base.partition_grain = 48;
  req.base.flow_jobs = 2;
  req.base_content_hash = 0x0123456789abcdefull;
  req.edit_text = "replace n40 n3 !n7\naddpo g0 spare\n";
  req.supersede_base = false;
  req.force_full = true;

  const synth_delta_request back =
      decode_synth_delta_request(encode_synth_delta_request(req));
  EXPECT_EQ(back.base.spec, req.base.spec);
  EXPECT_EQ(back.base.partition_grain, 48u);
  EXPECT_EQ(back.base.flow_jobs, 2u);
  EXPECT_EQ(back.base_content_hash, req.base_content_hash);
  EXPECT_EQ(back.edit_text, req.edit_text);
  EXPECT_FALSE(back.supersede_base);
  EXPECT_TRUE(back.force_full);
}

TEST(EcoProtocol, ResponseContentHashAndEcoCountersRoundTrip) {
  synth_response resp;
  resp.ok = true;
  resp.report = "r";
  resp.content_hash = 0xfeedfacecafebeefull;
  EXPECT_EQ(decode_synth_response(encode_synth_response(resp)).content_hash,
            resp.content_hash);

  server_stats_reply stats;
  stats.eco_requests = 7;
  stats.eco_retained_hits = 5;
  stats.eco_base_rebuilds = 1;
  stats.eco_failures = 2;
  stats.cache.region_hits = 100;
  stats.cache.region_misses = 3;
  stats.cache.eco_patches = 9;
  stats.cache.retained_networks = 4;
  const server_stats_reply back =
      decode_server_stats(encode_server_stats(stats));
  EXPECT_EQ(back.eco_requests, 7u);
  EXPECT_EQ(back.eco_retained_hits, 5u);
  EXPECT_EQ(back.eco_base_rebuilds, 1u);
  EXPECT_EQ(back.eco_failures, 2u);
  EXPECT_EQ(back.cache.region_hits, 100u);
  EXPECT_EQ(back.cache.region_misses, 3u);
  EXPECT_EQ(back.cache.eco_patches, 9u);
  EXPECT_EQ(back.cache.retained_networks, 4u);
}

// ---------------------------------------------------------------------------
// End to end: synth_delta against an in-process daemon.
// ---------------------------------------------------------------------------

TEST(EcoEndToEnd, DeltaOverSocketMatchesForceFullByteForByte) {
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.threads = 2;
  server srv(options);
  client cli(options.socket_path);

  synth_request base = make_request_for_spec("c880");
  base.partition_grain = 64;
  base.want_verilog = true;
  const aig base_net = load_request_circuit(base);
  const synth_response primed = cli.submit(base);
  ASSERT_TRUE(primed.ok);
  ASSERT_EQ(primed.content_hash, base_net.content_hash());

  synth_delta_request dreq;
  dreq.base = base;
  dreq.base_content_hash = primed.content_hash;
  dreq.edit_text = flip_gate_edit(base_net);
  dreq.supersede_base = false;
  const synth_response eco = cli.submit_delta(dreq);
  ASSERT_TRUE(eco.ok);

  synth_delta_request freq = dreq;
  freq.force_full = true;
  const synth_response full = cli.submit_delta(freq);
  ASSERT_TRUE(full.ok);
  EXPECT_EQ(eco.report, full.report);
  EXPECT_EQ(eco.verilog, full.verilog);
  EXPECT_EQ(eco.content_hash, full.content_hash);

  // Chaining: a second edit against the edited circuit's content hash.
  aig edited = base_net;
  eco::apply_edit_text(edited, dreq.edit_text);
  synth_delta_request chain;
  chain.base = base;
  chain.base_content_hash = eco.content_hash;
  chain.edit_text = flip_gate_edit(edited, 3);
  // The retained tier holds the edited network, so no circuit re-ship is
  // needed even though chain.base still carries the original circuit.
  const synth_response second = cli.submit_delta(chain);
  EXPECT_TRUE(second.ok);

  const server_stats_reply stats = cli.server_stats();
  EXPECT_EQ(stats.eco_requests, 3u);
  EXPECT_EQ(stats.eco_retained_hits, 3u);
  EXPECT_EQ(stats.eco_failures, 0u);
  EXPECT_GT(stats.cache.region_hits, 0u);
  EXPECT_GT(stats.cache.retained_networks, 0u);
}

TEST(EcoEndToEnd, TypedErrorsCrossTheWire) {
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.threads = 1;
  server srv(options);
  client cli(options.socket_path);

  synth_request base = make_request_for_spec("c432");
  const aig base_net = load_request_circuit(base);

  synth_delta_request dreq;
  dreq.base = base;
  dreq.base_content_hash = 1;  // not retained, and the circuit disagrees
  dreq.edit_text = "po 0 const0\n";
  try {
    cli.submit_delta(dreq);
    FAIL() << "expected unknown_base";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::unknown_base);
  }

  dreq.base_content_hash = base_net.content_hash();
  dreq.edit_text = "sub n4 n4\n";
  try {
    cli.submit_delta(dreq);
    FAIL() << "expected bad_edit";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::bad_edit);
  }

  const server_stats_reply stats = cli.server_stats();
  EXPECT_EQ(stats.eco_requests, 2u);
  EXPECT_EQ(stats.eco_failures, 2u);
}

TEST(EcoEndToEnd, DeltaSurvivesDaemonRestartThroughRetryingClient) {
  temp_dir dir;
  server_options options;
  options.socket_path = dir.path + "/served.sock";
  options.cache_dir = dir.path + "/cache";
  options.threads = 2;
  auto srv = std::make_unique<server>(options);

  synth_request base = make_request_for_spec("c432");
  const aig base_net = load_request_circuit(base);

  endpoint ep;
  ep.socket_path = options.socket_path;
  retry_policy policy;
  policy.max_retries = 5;
  policy.initial_backoff_ms = 10;
  resilient_client rcli(ep, policy);
  ASSERT_TRUE(rcli.submit(base).ok);

  synth_delta_request dreq;
  dreq.base = base;
  dreq.base_content_hash = base_net.content_hash();
  dreq.edit_text = flip_gate_edit(base_net);
  const synth_response eco = rcli.submit_delta(dreq);
  ASSERT_TRUE(eco.ok);

  // Restart the daemon: the retained-network tier dies with the process and
  // the client's connection goes stale.  The delta request still carries
  // the base circuit, so the restarted daemon rebuilds the base, replays
  // the edit, and the retrying client never surfaces the outage.
  srv->stop();
  srv.reset();
  srv = std::make_unique<server>(options);

  const synth_response replayed = rcli.submit_delta(dreq);
  ASSERT_TRUE(replayed.ok);
  EXPECT_EQ(replayed.report, eco.report);
  EXPECT_EQ(replayed.content_hash, eco.content_hash);
  EXPECT_GE(rcli.reconnects(), 2u);

  client fresh(options.socket_path);
  const server_stats_reply stats = fresh.server_stats();
  EXPECT_EQ(stats.eco_requests, 1u);       // post-restart counters only
  EXPECT_EQ(stats.eco_retained_hits, 0u);  // the retained tier was lost...
  EXPECT_EQ(stats.eco_base_rebuilds, 1u);  // ...so the base was rebuilt
}

}  // namespace
}  // namespace xsfq
