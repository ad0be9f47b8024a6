// The benchmark's workloads and the metrics it reports for them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct RunConfig {
  std::string workload;     ///< hier_1t or daemon_1t
  std::uint64_t seed = 1;   ///< seeds the check traces
  double seconds = 20;      ///< start rounds until this much time is spent
  std::int64_t t0_ns = 0;   ///< now_ns() when the process was spawned
  std::string bin_dir;      ///< where pb_daemon / pb_daemon_traced live
  std::string work_dir;     ///< scratch directory for sockets and probes
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;      ///< end-to-end, or per-layer when traced
  std::vector<std::string> errors;  ///< every failed check, for stderr
};

bool known_workload(const std::string& name);

RunResult run_workload(const RunConfig& cfg);

}  // namespace pb
