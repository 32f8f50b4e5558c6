#include "netlist/bench_io.hpp"

#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace xsfq {
namespace {

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

char upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/// Case-insensitive match of `s` against an upper-case `word`.
bool equals_upper(std::string_view s, std::string_view word) {
  if (s.size() != word.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (upper(s[i]) != word[i]) return false;
  }
  return true;
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("bench: line " + std::to_string(line) + ": " +
                              message);
}

/// Input-hardening caps shared with the BLIF reader: real netlists carry
/// identifiers of a few dozen characters, so anything kilobytes long (or
/// containing NUL — text formats never do) is fuzz/attack input, rejected
/// with the same typed error any other malformed line gets.
constexpr std::size_t max_identifier_len = 4096;

std::string_view check_identifier(std::string_view name,
                                  std::size_t line_number) {
  if (name.size() > max_identifier_len) {
    fail(line_number, "identifier exceeds " +
                          std::to_string(max_identifier_len) + " characters");
  }
  return name;
}

gate_kind kind_from_name(std::string_view name, std::size_t line) {
  static constexpr std::pair<std::string_view, gate_kind> kinds[] = {
      {"AND", gate_kind::and_gate},     {"OR", gate_kind::or_gate},
      {"NAND", gate_kind::nand_gate},   {"NOR", gate_kind::nor_gate},
      {"XOR", gate_kind::xor_gate},     {"XNOR", gate_kind::xnor_gate},
      {"NOT", gate_kind::inverter},     {"INV", gate_kind::inverter},
      {"BUF", gate_kind::buffer},       {"BUFF", gate_kind::buffer},
      {"MUX", gate_kind::mux_gate},     {"DFF", gate_kind::dff},
      {"CONST0", gate_kind::constant0}, {"GND", gate_kind::constant0},
      {"CONST1", gate_kind::constant1}, {"VDD", gate_kind::constant1},
  };
  for (const auto& [word, kind] : kinds) {
    if (equals_upper(name, word)) return kind;
  }
  fail(line, "unknown gate type '" + std::string(name) + "'");
}

}  // namespace

netlist read_bench_string(std::string_view text,
                          const std::string& model_name) {
  netlist result;
  result.set_name(model_name);
  // Written ISCAS-style netlists carry one net and one gate per 20-26
  // bytes of text.
  result.reserve(text.size() / 20, text.size() / 20);
  std::vector<std::string_view> pending_outputs;
  std::vector<netlist::net_index> fanins;
  // Reported when the scan reaches its line, so earlier errors win.
  const std::size_t first_nul = text.find('\0');
  std::size_t line_number = 0;

  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = text.find('\n', pos);
    const std::size_t end =
        newline == std::string_view::npos ? text.size() : newline;
    std::string_view line = text.substr(pos, end - pos);
    const std::size_t line_begin = pos;
    pos = end + 1;
    ++line_number;
    if (first_nul >= line_begin && first_nul < end) {
      fail(line_number, "NUL byte in input");
    }
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const bool is_input = equals_upper(line.substr(0, 6), "INPUT(");
    if (is_input || equals_upper(line.substr(0, 7), "OUTPUT(")) {
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (close == std::string_view::npos || close < open) {
        fail(line_number, "missing ')'");
      }
      const std::string_view net =
          trim(line.substr(open + 1, close - open - 1));
      if (net.empty()) fail(line_number, "empty port name");
      check_identifier(net, line_number);
      if (is_input) {
        result.add_input(net);
      } else {
        // Defer output marking: the net may not exist yet.
        pending_outputs.push_back(net);
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) fail(line_number, "expected '='");
    const std::string_view target =
        check_identifier(trim(line.substr(0, eq)), line_number);
    const std::string_view rhs = trim(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      fail(line_number, "expected GATE(args)");
    }
    const gate_kind kind = kind_from_name(trim(rhs.substr(0, open)),
                                          line_number);
    std::string_view args = rhs.substr(open + 1, close - open - 1);

    // Arguments resolve to nets left to right, except a DFF's optional
    // second argument: its init value.
    fanins.clear();
    std::string_view dff_init;
    std::size_t arity = 0;
    while (!args.empty()) {
      const auto comma = args.find(',');
      const std::string_view token = trim(args.substr(0, comma));
      args = comma == std::string_view::npos ? std::string_view()
                                             : args.substr(comma + 1);
      if (token.empty()) continue;
      check_identifier(token, line_number);
      if (++arity > 1 && kind == gate_kind::dff) {
        if (arity == 2) dff_init = token;
        continue;
      }
      fanins.push_back(result.net_by_name(token));
    }
    bool init = false;
    if (kind == gate_kind::dff) {
      if (arity == 0 || arity > 2) {
        fail(line_number, "DFF takes 1 or 2 arguments");
      }
      if (arity == 2 && dff_init != "0" && dff_init != "1") {
        fail(line_number, "DFF init must be 0 or 1");
      }
      init = dff_init == "1";
    } else {
      const bool unary = kind == gate_kind::inverter ||
                         kind == gate_kind::buffer;
      const bool nullary = kind == gate_kind::constant0 ||
                           kind == gate_kind::constant1;
      if (unary && arity != 1) fail(line_number, "unary gate needs 1 input");
      if (nullary && arity != 0) fail(line_number, "constant takes no input");
      if (kind == gate_kind::mux_gate && arity != 3) {
        fail(line_number, "MUX needs 3 inputs (sel, then, else)");
      }
      if (!unary && !nullary && kind != gate_kind::mux_gate && arity < 2) {
        fail(line_number, "gate needs at least 2 inputs");
      }
    }
    result.add_gate(kind, fanins, target, init);
  }

  for (const std::string_view net : pending_outputs) {
    result.mark_output(result.net_by_name(net));
  }
  if (!result.is_fully_driven()) {
    throw std::invalid_argument("bench: undriven nets referenced");
  }
  return result;
}

netlist read_bench_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::invalid_argument("bench: cannot open " + path);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  auto model = path;
  if (const auto slash = model.find_last_of('/'); slash != std::string::npos) {
    model = model.substr(slash + 1);
  }
  if (const auto dot = model.find_last_of('.'); dot != std::string::npos) {
    model = model.substr(0, dot);
  }
  return read_bench_string(text, model);
}

void write_bench(const netlist& circuit, std::ostream& os) {
  os << "# " << circuit.name() << " — written by xsfq\n";
  for (const auto in : circuit.inputs()) {
    os << "INPUT(" << circuit.net_name(in) << ")\n";
  }
  for (const auto out : circuit.outputs()) {
    os << "OUTPUT(" << circuit.net_name(out) << ")\n";
  }
  for (const auto& g : circuit.gates()) {
    os << circuit.net_name(g.output) << " = " << gate_kind_name(g.kind) << "(";
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) os << ", ";
      os << circuit.net_name(g.fanins[i]);
    }
    if (g.kind == gate_kind::dff && g.init) os << ", 1";
    os << ")\n";
  }
}

std::string write_bench_string(const netlist& circuit) {
  std::ostringstream os;
  write_bench(circuit, os);
  return os.str();
}

void write_bench_file(const netlist& circuit, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::invalid_argument("bench: cannot open " + path);
  write_bench(circuit, os);
}

}  // namespace xsfq
