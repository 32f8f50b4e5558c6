#include "netlist/netlist.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace xsfq {

const char* gate_kind_name(gate_kind kind) {
  switch (kind) {
    case gate_kind::constant0: return "CONST0";
    case gate_kind::constant1: return "CONST1";
    case gate_kind::buffer: return "BUFF";
    case gate_kind::inverter: return "NOT";
    case gate_kind::and_gate: return "AND";
    case gate_kind::or_gate: return "OR";
    case gate_kind::nand_gate: return "NAND";
    case gate_kind::nor_gate: return "NOR";
    case gate_kind::xor_gate: return "XOR";
    case gate_kind::xnor_gate: return "XNOR";
    case gate_kind::mux_gate: return "MUX";
    case gate_kind::dff: return "DFF";
  }
  return "?";
}

namespace {

/// Name hash for the net index: word-at-a-time multiply-xorshift, good
/// enough for the short identifiers netlists carry.
std::uint32_t hash_name(std::string_view s) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ s.size();
  const char* p = s.data();
  std::size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
  }
  h ^= h >> 29;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h);
}

}  // namespace

std::size_t netlist::find_slot(std::string_view name,
                               std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) return i;
    if (name_hash_[slot - 1] == hash && net_name(slot - 1) == name) return i;
  }
}

void netlist::rebuild_index(std::size_t capacity) {
  std::size_t size = 64;
  while (size < 2 * capacity) size *= 2;
  slots_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::size_t n = 0; n < name_hash_.size(); ++n) {
    std::size_t i = name_hash_[n] & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(n + 1);
  }
}

netlist::net_index netlist::add_net(std::string_view name, std::uint32_t hash,
                                    std::size_t slot) {
  const auto index = static_cast<net_index>(driver_.size());
  names_.append(name);
  name_begin_.push_back(names_.size());
  name_hash_.push_back(hash);
  driver_.push_back(-1);
  if (2 * driver_.size() > slots_.size()) {
    rebuild_index(driver_.size());
  } else {
    slots_[slot] = index + 1;
  }
  return index;
}

void netlist::reserve(std::size_t nets, std::size_t gates) {
  names_.reserve(nets * 8);
  name_begin_.reserve(nets + 1);
  name_hash_.reserve(nets);
  driver_.reserve(nets);
  if (2 * nets > slots_.size()) rebuild_index(nets);
  gates_.reserve(gates);
  fanin_begin_.reserve(gates + 1);
  fanins_.reserve(2 * gates);
}

netlist::net_index netlist::add_input(std::string_view name) {
  const net_index n = net_by_name(name);
  if (driver_[n] != -1) {
    throw std::invalid_argument("netlist: input net already driven: " +
                                std::string(name));
  }
  driver_[n] = -2;
  inputs_.push_back(n);
  return n;
}

void netlist::mark_output(net_index net) { outputs_.push_back(net); }

netlist::net_index netlist::add_gate(gate_kind kind,
                                     std::span<const net_index> fanins,
                                     std::string_view name, bool init) {
  return add_gate(kind, fanins, net_by_name(name), init);
}

netlist::net_index netlist::add_gate(gate_kind kind,
                                     std::span<const net_index> fanins,
                                     net_index output, bool init) {
  if (driver_[output] != -1) {
    throw std::invalid_argument("netlist: net driven twice: " +
                                std::string(net_name(output)));
  }
  driver_[output] = static_cast<std::int32_t>(gates_.size());
  gates_.push_back({output, kind, init});
  fanins_.insert(fanins_.end(), fanins.begin(), fanins.end());
  fanin_begin_.push_back(static_cast<std::uint32_t>(fanins_.size()));
  return output;
}

netlist::net_index netlist::net_by_name(std::string_view name) {
  if (slots_.empty()) rebuild_index(0);
  const std::uint32_t hash = hash_name(name);
  const std::size_t slot = find_slot(name, hash);
  if (slots_[slot] != 0) return slots_[slot] - 1;
  return add_net(name, hash, slot);
}

bool netlist::has_net(std::string_view name) const {
  return !slots_.empty() && slots_[find_slot(name, hash_name(name))] != 0;
}

std::size_t netlist::num_dffs() const {
  return static_cast<std::size_t>(
      std::count_if(gates_.begin(), gates_.end(), [](const gate_record& g) {
        return g.kind == gate_kind::dff;
      }));
}

bool netlist::is_fully_driven() const {
  return std::all_of(driver_.begin(), driver_.end(),
                     [](std::int32_t d) { return d != -1; });
}

std::vector<std::uint32_t> netlist::lowering_order() const {
  // File order and gate order are arbitrary (BENCH allows forward
  // references), so gates are lowered by "sweep": the pass in which a
  // repeated in-order scan would first find all of a gate's fanins ready.
  //   sweep(g) = max(1, max over combinational fanin drivers h of
  //                     sweep(h) + [h > g])
  // Inputs and DFF outputs are ready from the start.  Lowering in
  // (sweep, index) order keeps the node creation order of that scan while
  // costing one topological pass (Kahn) instead of one scan per level.
  const std::size_t n = gates_.size();
  const auto comb_driver = [&](net_index net) -> std::int32_t {
    const std::int32_t d = driver_[net];
    return d >= 0 && gates_[d].kind != gate_kind::dff ? d : -1;
  };
  std::vector<std::uint32_t> order;
  // Common case: every gate is listed after its drivers, so all sweeps
  // are 1 and the order is the index order.
  bool forward = true;
  for (std::size_t g = 0; g < n && forward; ++g) {
    if (gates_[g].kind == gate_kind::dff) continue;
    order.push_back(static_cast<std::uint32_t>(g));
    for (const net_index f : gate_at(g).fanins) {
      forward &= comb_driver(f) < static_cast<std::int32_t>(g);
    }
  }
  if (forward) return order;

  std::vector<std::uint32_t> unresolved(n, 0);
  std::vector<std::uint32_t> succ_begin(n + 1, 0);
  std::size_t combinational = 0;
  for (std::size_t g = 0; g < n; ++g) {
    if (gates_[g].kind == gate_kind::dff) continue;
    ++combinational;
    for (const net_index f : gate_at(g).fanins) {
      if (const std::int32_t h = comb_driver(f); h >= 0) {
        ++succ_begin[h + 1];
        ++unresolved[g];
      }
    }
  }
  for (std::size_t g = 0; g < n; ++g) succ_begin[g + 1] += succ_begin[g];
  std::vector<std::uint32_t> succ(succ_begin[n]);
  {
    std::vector<std::uint32_t> cursor(succ_begin.begin(), succ_begin.end() - 1);
    for (std::size_t g = 0; g < n; ++g) {
      if (gates_[g].kind == gate_kind::dff) continue;
      for (const net_index f : gate_at(g).fanins) {
        if (const std::int32_t h = comb_driver(f); h >= 0) {
          succ[cursor[h]++] = static_cast<std::uint32_t>(g);
        }
      }
    }
  }

  std::vector<std::uint32_t> sweep(n, 1);
  std::vector<std::uint32_t> topo;
  topo.reserve(combinational);
  for (std::size_t g = 0; g < n; ++g) {
    if (gates_[g].kind != gate_kind::dff && unresolved[g] == 0) {
      topo.push_back(static_cast<std::uint32_t>(g));
    }
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    const std::uint32_t h = topo[head];
    for (std::uint32_t e = succ_begin[h]; e < succ_begin[h + 1]; ++e) {
      const std::uint32_t g = succ[e];
      sweep[g] = std::max(sweep[g], sweep[h] + (h > g ? 1u : 0u));
      if (--unresolved[g] == 0) topo.push_back(g);
    }
  }
  if (topo.size() != combinational) {
    throw std::invalid_argument(
        "netlist::to_aig: combinational cycle detected");
  }

  // Counting sort by sweep; the index scan keeps ties in index order.
  std::vector<std::uint32_t> bucket(n + 2, 0);
  for (const std::uint32_t g : topo) ++bucket[sweep[g]];
  std::uint32_t offset = 0;
  for (std::uint32_t& b : bucket) {
    const std::uint32_t count = b;
    b = offset;
    offset += count;
  }
  order.assign(combinational, 0);
  for (std::size_t g = 0; g < n; ++g) {
    if (gates_[g].kind == gate_kind::dff) continue;
    order[bucket[sweep[g]]++] = static_cast<std::uint32_t>(g);
  }
  return order;
}

aig netlist::to_aig() const {
  if (!is_fully_driven()) {
    throw std::invalid_argument("netlist::to_aig: undriven nets present");
  }
  const std::vector<std::uint32_t> order = lowering_order();

  aig result;
  // Size the node array for the gates that can become AND nodes, so bulk
  // construction does not grow and rehash its way up.
  std::size_t expected_nodes = inputs_.size();
  for (const gate_record& g : gates_) {
    if (g.kind != gate_kind::buffer && g.kind != gate_kind::inverter &&
        g.kind != gate_kind::constant0 && g.kind != gate_kind::constant1) {
      ++expected_nodes;
    }
  }
  result.reserve(expected_nodes);
  std::vector<signal> value(num_nets(), result.get_constant(false));
  for (const net_index n : inputs_) {
    value[n] = result.create_pi(std::string(net_name(n)));
  }
  // DFF outputs are register outputs (combinational inputs).
  std::vector<std::uint32_t> dffs;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const gate_record& g = gates_[i];
    if (g.kind == gate_kind::dff) {
      value[g.output] = result.create_register_output(
          g.init, std::string(net_name(g.output)));
      dffs.push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::vector<signal> ins;
  for (const std::uint32_t i : order) {
    const gate g = gate_at(i);
    ins.clear();
    for (const net_index f : g.fanins) ins.push_back(value[f]);
    signal out = result.get_constant(false);
    switch (g.kind) {
      case gate_kind::constant0: out = result.get_constant(false); break;
      case gate_kind::constant1: out = result.get_constant(true); break;
      case gate_kind::buffer: out = ins[0]; break;
      case gate_kind::inverter: out = !ins[0]; break;
      case gate_kind::and_gate: out = result.create_and_n(ins); break;
      case gate_kind::or_gate: out = result.create_or_n(ins); break;
      case gate_kind::nand_gate: out = !result.create_and_n(ins); break;
      case gate_kind::nor_gate: out = !result.create_or_n(ins); break;
      case gate_kind::xor_gate: out = result.create_xor_n(ins); break;
      case gate_kind::xnor_gate: out = !result.create_xor_n(ins); break;
      case gate_kind::mux_gate:
        out = result.create_mux(ins[0], ins[1], ins[2]);
        break;
      case gate_kind::dff:
        throw std::logic_error("netlist::to_aig: unexpected gate kind");
    }
    value[g.output] = out;
  }

  for (const net_index n : outputs_) {
    result.create_po(value[n], std::string(net_name(n)));
  }
  for (std::size_t r = 0; r < dffs.size(); ++r) {
    result.set_register_input(r, value[gate_at(dffs[r]).fanins[0]]);
  }
  return result;
}

netlist netlist_from_aig(const aig& network, const std::string& model_name) {
  netlist result;
  result.set_name(model_name);

  // Net naming: CIs keep their names; gates get n<idx>; complement edges
  // materialize inverter gates (shared per node).
  std::vector<netlist::net_index> net_of(network.size());
  std::vector<std::int32_t> inverted_net_of(network.size(), -1);

  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    net_of[network.pi(i).index()] = result.add_input(network.pi_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    // Placeholder nets now; DFF gates added after combinational logic so
    // that their data fanin nets exist.
    net_of[network.register_at(i).output_node] =
        result.net_by_name(network.register_name(i));
  }
  const netlist::net_index const0 =
      result.add_gate(gate_kind::constant0, {}, "const0");
  net_of[0] = const0;

  auto net_for = [&](signal s) -> netlist::net_index {
    if (!s.is_complemented()) return net_of[s.index()];
    if (inverted_net_of[s.index()] < 0) {
      const std::string name =
          "ninv" + std::to_string(static_cast<unsigned long>(s.index()));
      inverted_net_of[s.index()] = static_cast<std::int32_t>(
          result.add_gate(gate_kind::inverter, {net_of[s.index()]}, name));
    }
    return static_cast<netlist::net_index>(inverted_net_of[s.index()]);
  };

  network.foreach_gate([&](aig::node_index n) {
    const std::string name = "n" + std::to_string(static_cast<unsigned long>(n));
    net_of[n] = result.add_gate(
        gate_kind::and_gate,
        {net_for(network.fanin0(n)), net_for(network.fanin1(n))}, name);
  });

  for (std::size_t i = 0; i < network.num_pos(); ++i) {
    const signal po = network.po_signal(i);
    // Emit a named buffer so output names survive.
    const netlist::net_index n = result.add_gate(
        gate_kind::buffer, {net_for(po)}, network.po_name(i));
    result.mark_output(n);
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const auto& reg = network.register_at(i);
    result.add_gate(gate_kind::dff, {net_for(reg.input)},
                    network.register_name(i), reg.init);
  }
  return result;
}

}  // namespace xsfq
