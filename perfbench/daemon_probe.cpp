// The run_job probe of the benchmark's daemon (pb_daemon).
//
// pb_daemon is the repository's hsyn CLI linked with -Wl,--wrap on
// serve::run_job, so every job the daemon's scheduler runs passes
// through __wrap_ below. It measures the job exactly as the in-process
// workloads do (meter.h), then runs the benchmark's per-job checks on
// the returned datapath -- which never leaves the daemon -- and appends
// one line per job to the file named by PB_PROBE_OUT. Checks run after
// the job's measurement window; their wall time is recorded so the
// client can take it out of its latency. PB_CHECK_SEED seeds the check
// traces. Without PB_PROBE_OUT the probe only forwards the call.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.h"
#include "meter.h"
#include "serve/jobs.h"

using hsyn::serve::JobHooks;
using hsyn::serve::JobOutcome;
using hsyn::serve::JobSpec;

extern "C" JobOutcome
__real__ZN4hsyn5serve7run_jobERKNS0_7JobSpecERKNS0_8JobHooksE(
    const JobSpec& spec, const JobHooks& hooks);

extern "C" JobOutcome
__wrap__ZN4hsyn5serve7run_jobERKNS0_7JobSpecERKNS0_8JobHooksE(
    const JobSpec& spec, const JobHooks& hooks) {
  static const char* const out_path = std::getenv("PB_PROBE_OUT");
  static const char* const seed_env = std::getenv("PB_CHECK_SEED");
  if (out_path == nullptr) {
    return __real__ZN4hsyn5serve7run_jobERKNS0_7JobSpecERKNS0_8JobHooksE(
        spec, hooks);
  }
  JobOutcome out;
  pb::JobSample s = pb::measure_job([&] {
    out = __real__ZN4hsyn5serve7run_jobERKNS0_7JobSpecERKNS0_8JobHooksE(
        spec, hooks);
  });
  const std::int64_t c0 = pb::now_ns();
  const std::uint64_t seed =
      seed_env ? std::strtoull(seed_env, nullptr, 10) : 0;
  try {
    s.error = pb::check_outcome(out, pb::job_trace_seed(seed, spec));
  } catch (const std::exception& e) {
    s.error = std::string("check threw: ") + e.what();
  }
  s.check_s = static_cast<double>(pb::now_ns() - c0) * 1e-9;
  if (std::FILE* f = std::fopen(out_path, "a")) {
    const std::string line = pb::to_line(s) + "\n";
    std::fputs(line.c_str(), f);
    std::fclose(f);
  }
  return out;
}
