// Output and property checks of the benchmark. Each returns an empty
// string when the check passes and the reason otherwise; selftest.cpp
// shows that each one can fail.
#pragma once

#include <cstdint>
#include <string>

#include "refeval.h"
#include "serve/jobs.h"

namespace pb {

/// The returned datapath's outputs equal the reference evaluator's,
/// sample by sample (compared on the 16 datapath bits).
std::string check_outputs(const Samples& expected, const Samples& got);

/// The schedule fits the sampling period: cycles x clock <= period.
std::string check_schedule(int cycles, double clock_ns, double period_ns);

/// Iterative improvement never returns a worse solution than the
/// initial one: final cost <= initial cost.
std::string check_cost(double initial_cost, double final_cost);

/// The paper's trade-off, per design: the area job's area is at most
/// the power job's area, and the power job's power at most the area
/// job's power.
std::string check_tradeoff(const std::string& design, double area_job_area,
                           double area_job_power, double power_job_area,
                           double power_job_power);

/// Two reports of the same spec are byte-identical once the timing line
/// ("synthesis time") is stripped.
std::string check_same_report(const std::string& a, const std::string& b);

/// The report without its wall-clock line.
std::string strip_timing(const std::string& report);

/// Every per-job check on an in-process outcome: the job succeeded and
/// passed RTL verification, its schedule and cost properties hold, and
/// simulate_rtl of the returned datapath on a trace seeded by
/// `trace_seed` matches the reference evaluator.
std::string check_outcome(const hsyn::serve::JobOutcome& out,
                          std::uint64_t trace_seed);

/// A seed for the check trace of one job, mixed from the workload seed
/// and the job's identity.
std::uint64_t job_trace_seed(std::uint64_t workload_seed,
                             const hsyn::serve::JobSpec& spec);

}  // namespace pb
