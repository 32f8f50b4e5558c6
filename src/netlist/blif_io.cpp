#include "netlist/blif_io.hpp"

#include <bit>
#include <charconv>
#include <forward_list>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace xsfq {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("blif: line " + std::to_string(line) + ": " +
                              message);
}

/// Input-hardening cap shared with the bench reader: identifiers kilobytes
/// long are fuzz/attack input, not netlists — reject with the same typed
/// error any malformed line gets instead of growing name tables unboundedly.
constexpr std::size_t max_identifier_len = 4096;

/// Token separators: the C-locale isspace set.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

void tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) return;
    const std::size_t begin = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    tokens.push_back(line.substr(begin, i - begin));
  }
}

/// A line continues onto the next when it ends in a backslash (before an
/// optional CR).
bool continues(std::string_view line) {
  return line.ends_with('\\') || line.ends_with("\\\r");
}

/// One SOP cover row: input part and output bit.
struct cover_row {
  std::string_view mask;
  char out = '1';
};

/// A parsed .names block before lowering; its nets (inputs then output)
/// and rows are ranges of the reader's flat arrays.
struct names_block {
  std::size_t net_begin = 0;
  std::size_t net_end = 0;
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::size_t line = 0;
};

/// Splits the text into logical lines: comments stripped, blank lines
/// skipped, backslash continuations joined.  Tokens are views into the
/// text, or into a joined line kept alive for the whole parse.
class line_reader {
public:
  explicit line_reader(std::string_view text)
      : text_(text), first_nul_(text.find('\0')) {}

  /// Tokenizes the next non-blank logical line into `tokens`; false at
  /// the end of the text.
  bool next(std::vector<std::string_view>& tokens) {
    while (pos_ < text_.size()) {
      const std::size_t begin = pos_;
      std::string_view line = physical_line();
      if (first_nul_ >= begin && first_nul_ < begin + line.size()) {
        fail(line_number_, "NUL byte in input");
      }
      if (const auto hash = line.find('#'); hash != std::string_view::npos) {
        line = line.substr(0, hash);
      }
      if (continues(line)) {
        // Continuation lines are appended verbatim, comments and all.
        std::string& joined =
            joined_.emplace_front(line.substr(0, line.rfind('\\')));
        while (pos_ < text_.size()) {
          joined += physical_line();
          if (!continues(joined)) break;
          joined.resize(joined.rfind('\\'));
        }
        line = joined;
      }
      tokenize(line, tokens);
      if (!tokens.empty()) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t line_number() const { return line_number_; }

private:
  std::string_view text_;
  std::size_t first_nul_;
  std::size_t pos_ = 0;
  std::size_t line_number_ = 0;
  std::forward_list<std::string> joined_;

  std::string_view physical_line() {
    const std::size_t newline = text_.find('\n', pos_);
    const std::size_t end =
        newline == std::string_view::npos ? text_.size() : newline;
    const std::string_view line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++line_number_;
    return line;
  }
};

/// Lowers SOP covers to AND/OR/NOT netlist gates, naming helper nets
/// _blif<N>n (literal inverters) and _blif<N>a (product terms).
class cover_lowering {
public:
  explicit cover_lowering(netlist& result) : result_(result) {}

  /// `nets` are the block's net indices, inputs then output.
  void lower(std::span<const netlist::net_index> nets,
             std::span<const cover_row> rows, std::size_t line) {
    const std::size_t num_inputs = nets.size() - 1;
    const netlist::net_index output = nets.back();

    // Constant covers.
    if (num_inputs == 0) {
      const bool value = !rows.empty() && rows.front().out == '1';
      result_.add_gate(value ? gate_kind::constant1 : gate_kind::constant0,
                       {}, output);
      return;
    }

    // The reader guarantees one output polarity per cover; a '0' output
    // lists the offset instead of the onset.
    const bool onset = rows.empty() || rows.front().out == '1';

    products_.clear();
    for (const cover_row& row : rows) {
      if (row.mask.size() != num_inputs) {
        fail(line, "cover width mismatch in .names " +
                       std::string(result_.net_name(output)));
      }
      literals_.clear();
      for (std::size_t i = 0; i < num_inputs; ++i) {
        if (row.mask[i] == '-') continue;
        netlist::net_index n = nets[i];
        if (row.mask[i] == '0') {
          n = result_.add_gate(gate_kind::inverter, {n}, fresh_net('n'));
        } else if (row.mask[i] != '1') {
          fail(line, "bad cover character");
        }
        literals_.push_back(n);
      }
      if (literals_.empty()) {
        // Tautological cube: the cover is constant.
        result_.add_gate(onset ? gate_kind::constant1 : gate_kind::constant0,
                         {}, output);
        return;
      }
      if (literals_.size() == 1) {
        products_.push_back(literals_.front());
      } else {
        products_.push_back(
            result_.add_gate(gate_kind::and_gate, literals_, fresh_net('a')));
      }
    }

    if (products_.empty()) {
      // Empty cover: constant 0 onset (or constant 1 if offset listed).
      result_.add_gate(onset ? gate_kind::constant0 : gate_kind::constant1,
                       {}, output);
      return;
    }
    if (products_.size() == 1) {
      result_.add_gate(onset ? gate_kind::buffer : gate_kind::inverter,
                       {products_.front()}, output);
      return;
    }
    result_.add_gate(onset ? gate_kind::or_gate : gate_kind::nor_gate,
                     products_, output);
  }

private:
  netlist& result_;
  std::size_t fresh_ = 0;
  std::vector<netlist::net_index> literals_;
  std::vector<netlist::net_index> products_;

  /// A new net named _blif<N><tag>, skipping names already present (e.g.
  /// when re-reading our own output).
  netlist::net_index fresh_net(char tag) {
    char name[32] = "_blif";
    for (;;) {
      char* end = std::to_chars(name + 5, name + sizeof name - 1, fresh_++).ptr;
      *end++ = tag;
      const std::size_t before = result_.num_nets();
      const netlist::net_index n =
          result_.net_by_name(std::string_view(name, end - name));
      if (result_.num_nets() > before) return n;
    }
  }
};

}  // namespace

netlist read_blif_string(std::string_view text) {
  netlist result;
  // Written netlists lower to one net and one gate per 12-15 bytes of
  // text, helper inverters included.
  result.reserve(text.size() / 12, text.size() / 12);
  line_reader reader(text);
  std::vector<std::string_view> tokens;
  std::vector<std::string_view> pending_outputs;
  std::vector<names_block> blocks;
  std::vector<std::string_view> block_nets;
  std::vector<cover_row> rows;
  bool block_open = false;

  while (reader.next(tokens)) {
    const std::size_t line_number = reader.line_number();
    for (const std::string_view t : tokens) {
      if (t.size() > max_identifier_len) {
        fail(line_number, "token exceeds " +
                              std::to_string(max_identifier_len) +
                              " characters");
      }
    }
    const std::string_view head = tokens.front();
    if (head[0] == '.') {
      block_open = false;
      if (head == ".model") {
        if (tokens.size() > 1) result.set_name(std::string(tokens[1]));
      } else if (head == ".inputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          result.add_input(tokens[i]);
        }
      } else if (head == ".outputs") {
        pending_outputs.insert(pending_outputs.end(), tokens.begin() + 1,
                               tokens.end());
      } else if (head == ".names") {
        if (tokens.size() < 2) fail(line_number, ".names needs an output");
        names_block block;
        block.net_begin = block_nets.size();
        block_nets.insert(block_nets.end(), tokens.begin() + 1, tokens.end());
        block.net_end = block_nets.size();
        block.row_begin = block.row_end = rows.size();
        block.line = line_number;
        blocks.push_back(block);
        block_open = true;
      } else if (head == ".latch") {
        if (tokens.size() < 3) fail(line_number, ".latch needs input output");
        // Optional fields: [<type> <control>] [<init-val>]; init 1 only
        // when given as 1 (0, 2 = don't care, 3 = unknown all start at 0).
        const bool init = tokens.size() >= 4 && tokens.back() == "1";
        result.add_gate(gate_kind::dff, {result.net_by_name(tokens[1])},
                        tokens[2], init);
      } else if (head == ".end") {
        break;
      } else {
        fail(line_number, "unsupported directive " + std::string(head));
      }
      continue;
    }

    if (!block_open) fail(line_number, "cover line outside .names");
    names_block& block = blocks.back();
    const bool constant = block.net_end - block.net_begin == 1;
    if (constant && tokens.size() != 1) fail(line_number, "bad constant cover");
    if (!constant && tokens.size() != 2) fail(line_number, "bad cover line");
    const std::string_view out = tokens.back();
    if (out != "0" && out != "1") {
      fail(line_number, "cover output must be 0 or 1");
    }
    if (block.row_end > block.row_begin &&
        rows[block.row_begin].out != out[0]) {
      fail(line_number, "cover mixes onset and offset rows in .names " +
                            std::string(block_nets[block.net_end - 1]));
    }
    rows.push_back({constant ? std::string_view() : tokens[0], out[0]});
    block.row_end = rows.size();
  }

  // Register all declared net names before lowering so that generated
  // helper nets never collide with names later in the file.
  std::vector<netlist::net_index> block_net_ids;
  block_net_ids.reserve(block_nets.size());
  for (const std::string_view net : block_nets) {
    block_net_ids.push_back(result.net_by_name(net));
  }
  cover_lowering lowering(result);
  const std::span<const netlist::net_index> ids(block_net_ids);
  const std::span<const cover_row> all_rows(rows);
  for (const names_block& b : blocks) {
    lowering.lower(ids.subspan(b.net_begin, b.net_end - b.net_begin),
                   all_rows.subspan(b.row_begin, b.row_end - b.row_begin),
                   b.line);
  }
  for (const std::string_view net : pending_outputs) {
    result.mark_output(result.net_by_name(net));
  }
  if (!result.is_fully_driven()) {
    throw std::invalid_argument("blif: undriven nets referenced");
  }
  return result;
}

netlist read_blif_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::invalid_argument("blif: cannot open " + path);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  return read_blif_string(text);
}

void write_blif(const netlist& circuit, std::ostream& os) {
  os << ".model " << circuit.name() << "\n.inputs";
  for (const auto in : circuit.inputs()) {
    os << ' ' << circuit.net_name(in);
  }
  os << "\n.outputs";
  for (const auto out : circuit.outputs()) {
    os << ' ' << circuit.net_name(out);
  }
  os << '\n';

  for (const auto& g : circuit.gates()) {
    if (g.kind == gate_kind::dff) {
      os << ".latch " << circuit.net_name(g.fanins[0]) << ' '
         << circuit.net_name(g.output) << ' ' << (g.init ? 1 : 0) << '\n';
      continue;
    }
    os << ".names";
    for (const auto f : g.fanins) os << ' ' << circuit.net_name(f);
    os << ' ' << circuit.net_name(g.output) << '\n';
    const std::size_t arity = g.fanins.size();
    switch (g.kind) {
      case gate_kind::constant0:
        break;  // empty cover = constant 0
      case gate_kind::constant1:
        os << "1\n";
        break;
      case gate_kind::buffer:
        os << "1 1\n";
        break;
      case gate_kind::inverter:
        os << "0 1\n";
        break;
      case gate_kind::and_gate:
        os << std::string(arity, '1') << " 1\n";
        break;
      case gate_kind::nand_gate:
        os << std::string(arity, '1') << " 0\n";
        break;
      case gate_kind::or_gate:
        for (std::size_t i = 0; i < arity; ++i) {
          std::string mask(arity, '-');
          mask[i] = '1';
          os << mask << " 1\n";
        }
        break;
      case gate_kind::nor_gate:
        os << std::string(arity, '0') << " 1\n";
        break;
      case gate_kind::xor_gate:
      case gate_kind::xnor_gate: {
        if (arity > 16) {
          throw std::invalid_argument("blif: XOR arity too large to expand");
        }
        const bool odd_wanted = g.kind == gate_kind::xor_gate;
        for (std::uint32_t m = 0; m < (1u << arity); ++m) {
          const bool odd = (std::popcount(m) & 1) != 0;
          if (odd != odd_wanted) continue;
          std::string mask(arity, '0');
          for (std::size_t i = 0; i < arity; ++i) {
            if ((m >> i) & 1u) mask[i] = '1';
          }
          os << mask << " 1\n";
        }
        break;
      }
      case gate_kind::mux_gate:
        os << "11- 1\n0-1 1\n";
        break;
      case gate_kind::dff:
        break;  // handled above
    }
  }
  os << ".end\n";
}

std::string write_blif_string(const netlist& circuit) {
  std::ostringstream os;
  write_blif(circuit, os);
  return os.str();
}

void write_blif_file(const netlist& circuit, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::invalid_argument("blif: cannot open " + path);
  write_blif(circuit, os);
}

}  // namespace xsfq
