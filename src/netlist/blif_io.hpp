#pragma once
/// \file blif_io.hpp
/// \brief Reader/writer for the Berkeley Logic Interchange Format (BLIF).
///
/// BLIF is the distribution format of the EPFL benchmark suite used in the
/// paper's evaluation (Tables 3 and 4).  Supported subset: .model, .inputs,
/// .outputs, .names (SOP covers with '-' don't-cares), .latch (re/fe/ah/al/as
/// and clock fields optional, init 0/1/2/3), .end.  SOP covers are lowered to
/// AND/OR/NOT gates after parsing.  A cover row's output bit must be 0 or 1,
/// and all rows of one cover must share it (onset or offset, not both).

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace xsfq {

/// Parses BLIF text in one pass over `text`; throws std::invalid_argument
/// with a line number on malformed input.
netlist read_blif_string(std::string_view text);
/// Reads the file into one buffer and parses it with read_blif_string.
netlist read_blif_file(const std::string& path);

/// Writes the netlist as BLIF (.names covers; DFFs as .latch).
void write_blif(const netlist& circuit, std::ostream& os);
std::string write_blif_string(const netlist& circuit);
void write_blif_file(const netlist& circuit, const std::string& path);

}  // namespace xsfq
