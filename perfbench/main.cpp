// pb_run / pb_run_traced: run one workload and print its result as the
// last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"wall_s": {"value": 17.2, "unit": "s"}, ...}}
//
// Usage: pb_run --workload NAME --seed N --seconds S --t0-ns T
//               --work-dir DIR
// (run.py builds the programs and passes --t0-ns and --work-dir). The
// untraced program prints the end-to-end metrics, the traced one the
// per-layer metrics. Exits 1 when a check fails, 2 on bad arguments.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fputs("usage: pb_run --workload hier_1t|daemon_1t --seed N "
             "--seconds S --t0-ns T --work-dir DIR\n",
             stderr);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  cfg.t0_ns = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      cfg.workload = v;
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (k == "--t0-ns") {
      cfg.t0_ns = std::strtoll(v.c_str(), nullptr, 10);
    } else if (k == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !pb::known_workload(cfg.workload) || cfg.t0_ns < 0 ||
      cfg.work_dir.empty() || !(cfg.seconds >= 0)) {
    return usage();
  }
  char exe[PATH_MAX] = {};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  cfg.bin_dir = n > 0 ? std::string(exe, static_cast<std::size_t>(n)) : "";
  cfg.bin_dir = cfg.bin_dir.substr(0, cfg.bin_dir.rfind('/'));

  const pb::RunResult r = pb::run_workload(cfg);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  std::fflush(stderr);
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", r.metrics[i].value);
    out += (i ? ", \"" : "\"") + json_escape(r.metrics[i].name) +
           "\": {\"value\": " + num + ", \"unit\": \"" +
           json_escape(r.metrics[i].unit) + "\"}";
  }
  out += "}}\n";
  std::fflush(stdout);
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
