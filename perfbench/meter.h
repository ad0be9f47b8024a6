// What the benchmark measures around one synthesis job, the same way in
// the benchmark process (in-process workloads) and in the daemon (the
// run_job probe of daemon_probe.cpp), plus the one-line text form the
// daemon uses to hand its samples to the benchmark process.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

/// CLOCK_MONOTONIC in nanoseconds: the same clock in every process of
/// the machine, so daemon and client stamps can be subtracted.
std::int64_t now_ns();

struct JobSample {
  std::int64_t entry_ns = 0;  ///< when the job started (now_ns)
  double wall_s = 0;          ///< job wall time
  double cpu_s = 0;           ///< process CPU time (all threads) over the job
  double check_s = 0;         ///< wall time of the benchmark's checks after it
  double allocs = 0;          ///< heap allocations during the job
  double alloc_bytes = 0;     ///< bytes those allocations requested
  double regions = 0;         ///< runtime parallel regions sent to the pool
  double inline_regions = 0;  ///< runtime regions run serially
  double tasks = 0;           ///< runtime task indices executed
  double lookups = 0;         ///< eval-cache gets (hits + misses)
  double hits = 0;
  double evictions = 0;
  double cache_bytes = 0;     ///< bytes held by the eval caches at job end
  double maxrss_kb = 0;       ///< process peak RSS at job end
  std::vector<double> layers; ///< per-layer delta (traced programs)
  std::string error;          ///< first failed check; empty = all passed
};

/// Run `job` and fill every field but check_s and error.
JobSample measure_job(const std::function<void()>& job);

/// The host-speed probe: wall time of one run of a fixed piece of work
/// shaped like H-SYN's own inner loops (ordered-map inserts, lookups and
/// erases, short-lived small vectors), in seconds. It shares no code with
/// the program, so a change to the program never changes its time; only
/// the host's speed does.
double ref_kernel_s();

/// ref_kernel_s() on the quiet host of the README's reference figures.
/// Normalised times are scaled by kRefKernelNominalS / ref_kernel_s(),
/// so they read as seconds at that speed.
constexpr double kRefKernelNominalS = 0.010;

std::string to_line(const JobSample& s);
bool from_line(const std::string& line, JobSample* s);

}  // namespace pb
