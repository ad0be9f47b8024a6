// Reference evaluator of behavioral DFGs, independent of the program.
//
// It reads designs only through the public dfg API and computes every
// operation with its own 16-bit two's-complement arithmetic (no code of
// power/replay, power/rtlsim or power/trace), recursing through
// hierarchical nodes into the behaviors they name. The benchmark
// compares its outputs with simulate_rtl's outputs of each returned
// datapath.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/design.h"

namespace pb {

/// samples[t][i]: value of input (or output) i at sample t.
using Samples = std::vector<std::vector<std::int32_t>>;

/// Outputs of behavior `name` of `design` for every input sample, each
/// value sign-extended from 16 bits.
Samples reference_outputs(const hsyn::Design& design, const std::string& name,
                          const Samples& inputs);

/// A seeded trace of full-range 16-bit values (sign-extended), with a
/// few samples of extreme values mixed in.
Samples seeded_trace(int num_inputs, int num_samples, std::uint64_t seed);

}  // namespace pb
