// Heap-allocation counter of the benchmark programs.
//
// alloc_count.cpp replaces the global operator new/delete of every
// program that links it. Each thread counts its own allocations in a
// slot of a fixed table (one relaxed store per allocation, no lock, no
// shared cache line), so the count is cheap enough to keep in the
// untraced programs. Slots are never released, so allocations made by
// threads that have exited stay counted.
#pragma once

#include <cstdint>

namespace pb {

struct AllocTotals {
  std::uint64_t count = 0;  ///< calls of any operator new
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Sum over every thread that has allocated so far.
AllocTotals alloc_totals();

/// The calling thread's own totals.
AllocTotals thread_alloc_totals();

}  // namespace pb
