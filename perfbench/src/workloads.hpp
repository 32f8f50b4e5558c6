#pragma once
/// \file workloads.hpp
/// \brief The benchmark's three workloads (README.md says why each exists).

#include "common.hpp"

namespace perfbench {

/// All registry circuits read from files and synthesized by one 4-worker
/// batch_runner with caches off, pass after pass.
run_result run_batch_corpus(const run_options& options);

/// Two persistent connections resubmitting already-synthesized file
/// circuits to a daemon with the disk tier on.
run_result run_serve_warm(const run_options& options);

/// Two interactive synth_delta sessions (c6288 at grain 24, c880 at grain
/// 64) on the same daemon configuration.
run_result run_serve_eco(const run_options& options);

}  // namespace perfbench
