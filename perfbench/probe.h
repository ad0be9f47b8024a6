// Per-layer counters of the traced benchmark programs.
//
// layers.cpp (traced programs) implements this interface with the
// link-time wrappers listed in layers.def; probe_off.cpp (untraced
// programs) implements it with nothing, so the untraced programs run
// the library's functions unwrapped.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace pb {

/// True in the traced programs.
bool layers_traced();

/// Current totals of every layer counter, summed over threads. Take one
/// before and one after a stretch of work and subtract.
std::vector<double> layer_snapshot();

/// Add `after - before` to `acc` (sized on first use).
void layer_accumulate(const std::vector<double>& before,
                      const std::vector<double>& after,
                      std::vector<double>* acc);

/// Per-layer metrics of an accumulated delta: `<prefix>.calls`, and for
/// timed layers `<prefix>.self_s` and `<prefix>.allocs`.
void layer_metrics(const std::vector<double>& acc,
                   std::map<std::string, double>* out);

}  // namespace pb
