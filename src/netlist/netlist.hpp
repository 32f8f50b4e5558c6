#pragma once
/// \file netlist.hpp
/// \brief Technology-independent gate-level netlist (frontend interchange).
///
/// This plays the role of the Yosys frontend in the paper's flow: RTL-ish
/// circuit descriptions (BENCH/BLIF files, or the programmatic benchmark
/// generators) arrive as generic gate netlists and are lowered to the AIG
/// for optimization and xSFQ mapping.  Arbitrary-arity gates are supported;
/// DFFs model the sequential elements of ISCAS89-style circuits.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aig.hpp"

namespace xsfq {

enum class gate_kind : std::uint8_t {
  constant0,
  constant1,
  buffer,
  inverter,
  and_gate,
  or_gate,
  nand_gate,
  nor_gate,
  xor_gate,
  xnor_gate,
  mux_gate,  ///< fanins: select, then-input, else-input
  dff,       ///< fanins: data input; init value in `init`
};

/// Human-readable gate kind name ("AND", "DFF", ...), BENCH spelling.
const char* gate_kind_name(gate_kind kind);

/// A named net driven by a primary input or a gate.
///
/// Storage is flat so that filling it from a parsed file costs little more
/// than the parse: every net name lives in one arena string, the name index
/// is an open-addressing table keyed by string_view into that arena, and
/// the gates' fanins are one CSR array.
class netlist {
public:
  using net_index = std::uint32_t;

  /// A view of one stored gate; `fanins` points into the netlist and stays
  /// valid until the next add_gate.
  struct gate {
    gate_kind kind = gate_kind::constant0;
    std::span<const net_index> fanins;
    net_index output = 0;
    bool init = false;  ///< DFF initial value
  };

  /// The gates in creation order, as views (see gate).
  class gate_list {
  public:
    class iterator {
    public:
      using iterator_category = std::input_iterator_tag;
      using value_type = gate;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = gate;

      iterator(const netlist* owner, std::size_t i) : owner_(owner), i_(i) {}
      gate operator*() const { return owner_->gate_at(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator& other) const { return i_ == other.i_; }

    private:
      const netlist* owner_;
      std::size_t i_;
    };

    explicit gate_list(const netlist* owner) : owner_(owner) {}
    [[nodiscard]] std::size_t size() const { return owner_->num_gates(); }
    gate operator[](std::size_t i) const { return owner_->gate_at(i); }
    [[nodiscard]] iterator begin() const { return {owner_, 0}; }
    [[nodiscard]] iterator end() const { return {owner_, size()}; }

  private:
    const netlist* owner_;
  };

  /// Creates a primary-input net.
  net_index add_input(std::string_view name);
  /// Declares an existing net as a primary output.
  void mark_output(net_index net);
  /// Creates a gate driving the net named `name` (created if unknown).
  net_index add_gate(gate_kind kind, std::span<const net_index> fanins,
                     std::string_view name, bool init = false);
  net_index add_gate(gate_kind kind, std::initializer_list<net_index> fanins,
                     std::string_view name, bool init = false) {
    return add_gate(kind, std::span<const net_index>(fanins), name, init);
  }
  /// Creates a gate driving the existing net `output`.
  net_index add_gate(gate_kind kind, std::span<const net_index> fanins,
                     net_index output, bool init = false);
  net_index add_gate(gate_kind kind, std::initializer_list<net_index> fanins,
                     net_index output, bool init = false) {
    return add_gate(kind, std::span<const net_index>(fanins), output, init);
  }

  /// Finds a net by name; creates a placeholder net if unknown (resolved
  /// when its driver is later declared — BENCH files are unordered).
  net_index net_by_name(std::string_view name);
  [[nodiscard]] bool has_net(std::string_view name) const;

  /// Pre-sizes the stores for about this many nets and gates.  Purely an
  /// allocation hint.
  void reserve(std::size_t nets, std::size_t gates);

  [[nodiscard]] std::size_t num_nets() const { return driver_.size(); }
  [[nodiscard]] std::size_t num_inputs() const { return inputs_.size(); }
  [[nodiscard]] std::size_t num_outputs() const { return outputs_.size(); }
  [[nodiscard]] std::size_t num_gates() const { return gates_.size(); }
  /// Number of DFF gates.
  [[nodiscard]] std::size_t num_dffs() const;

  [[nodiscard]] const std::vector<net_index>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<net_index>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] gate_list gates() const { return gate_list(this); }
  [[nodiscard]] gate gate_at(std::size_t i) const {
    const gate_record& g = gates_[i];
    return {g.kind,
            std::span<const net_index>(fanins_.data() + fanin_begin_[i],
                                       fanin_begin_[i + 1] - fanin_begin_[i]),
            g.output, g.init};
  }
  /// The net's name; a view into the netlist, valid until the next net is
  /// created.
  [[nodiscard]] std::string_view net_name(net_index n) const {
    return std::string_view(names_).substr(name_begin_[n],
                                           name_begin_[n + 1] - name_begin_[n]);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string model_name) { name_ = std::move(model_name); }

  /// True when every non-input net has a driver.
  [[nodiscard]] bool is_fully_driven() const;

  /// Lowers the netlist to an AIG (DFFs become registers).  Throws if some
  /// net has no driver or the combinational gates form a cycle.
  [[nodiscard]] aig to_aig() const;

private:
  struct gate_record {
    net_index output = 0;
    gate_kind kind = gate_kind::constant0;
    bool init = false;
  };

  std::string name_ = "top";
  std::string names_;                      ///< every net name, back to back
  std::vector<std::size_t> name_begin_{0};  ///< net n is [begin[n], begin[n+1])
  std::vector<std::uint32_t> name_hash_;   ///< per net, 32-bit name hash
  std::vector<std::uint32_t> slots_;       ///< name index: net + 1, 0 = empty
  std::vector<net_index> inputs_;
  std::vector<net_index> outputs_;
  std::vector<gate_record> gates_;
  std::vector<std::uint32_t> fanin_begin_{0};  ///< CSR offsets into fanins_
  std::vector<net_index> fanins_;
  std::vector<std::int32_t> driver_;  ///< gate index driving net, -1 if none,
                                      ///< -2 if primary input

  [[nodiscard]] std::size_t find_slot(std::string_view name,
                                      std::uint32_t hash) const;
  net_index add_net(std::string_view name, std::uint32_t hash,
                    std::size_t slot);
  void rebuild_index(std::size_t capacity);
  /// Gate indices in the order to_aig lowers them; throws on a cycle.
  [[nodiscard]] std::vector<std::uint32_t> lowering_order() const;
};

/// Extracts a netlist view of an AIG (AND/INV gates, DFFs for registers);
/// used by the file writers.
netlist netlist_from_aig(const aig& network, const std::string& model_name);

}  // namespace xsfq
