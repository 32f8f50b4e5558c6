#pragma once
/// \file bench_io.hpp
/// \brief Reader/writer for the ISCAS BENCH netlist format.
///
/// BENCH is the distribution format of the ISCAS85/ISCAS89 benchmark suites
/// used in the paper's evaluation (Sec. 4.1).  The dialect accepted here:
///
///   INPUT(a)  OUTPUT(f)
///   f = AND(a, b)          # also OR/NAND/NOR/XOR/XNOR/NOT/BUFF/MUX
///   q = DFF(d)             # optional DFF(d, 1) sets the initial value
///   # comments and blank lines are ignored
///
/// Gates may be listed in any order (forward references are legal).

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace xsfq {

/// Parses BENCH text in one pass over `text`; throws std::invalid_argument
/// with a line number on malformed input.
netlist read_bench_string(std::string_view text,
                          const std::string& model_name = "top");
/// Reads the file into one buffer and parses it with read_bench_string;
/// the model is named after the file.
netlist read_bench_file(const std::string& path);

/// Writes a netlist in BENCH format (multi-input gates emitted natively).
void write_bench(const netlist& circuit, std::ostream& os);
std::string write_bench_string(const netlist& circuit);
void write_bench_file(const netlist& circuit, const std::string& path);

}  // namespace xsfq
