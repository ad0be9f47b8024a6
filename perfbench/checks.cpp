#include "checks.h"

#include <cstdio>
#include <sstream>

#include "power/rtlsim.h"

namespace pb {
namespace {

std::string fmt(const char* f, double a, double b, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

// Tolerance for comparing costs and times that the program computes in
// floating point along different paths.
constexpr double kRelTol = 1e-9;

}  // namespace

std::string check_outputs(const Samples& expected, const Samples& got) {
  if (expected.size() != got.size()) {
    return fmt("outputs: %g samples, expected %g", static_cast<double>(got.size()),
               static_cast<double>(expected.size()));
  }
  for (std::size_t t = 0; t < expected.size(); ++t) {
    if (expected[t].size() != got[t].size()) {
      return fmt("outputs: sample %g has %g values, expected %g",
                 static_cast<double>(t), static_cast<double>(got[t].size()),
                 static_cast<double>(expected[t].size()));
    }
    for (std::size_t i = 0; i < expected[t].size(); ++i) {
      if (((expected[t][i] ^ got[t][i]) & 0xFFFF) != 0) {
        return fmt("outputs: sample %g output %g differs from the reference "
                   "(got %g)",
                   static_cast<double>(t), static_cast<double>(i),
                   static_cast<double>(got[t][i]));
      }
    }
  }
  return {};
}

std::string check_schedule(int cycles, double clock_ns, double period_ns) {
  if (cycles <= 0 || clock_ns <= 0) return "schedule: empty or no clock";
  if (cycles * clock_ns > period_ns * (1 + kRelTol)) {
    return fmt("schedule: %g cycles x %g ns exceeds the period %g ns",
               cycles, clock_ns, period_ns);
  }
  return {};
}

std::string check_cost(double initial_cost, double final_cost) {
  if (!(final_cost <= initial_cost * (1 + kRelTol))) {
    return fmt("cost: final %g is worse than the initial %g", final_cost,
               initial_cost);
  }
  return {};
}

std::string check_tradeoff(const std::string& design, double area_job_area,
                           double area_job_power, double power_job_area,
                           double power_job_power) {
  if (area_job_area > power_job_area * (1 + kRelTol)) {
    return design + fmt(": area job's area %g exceeds the power job's %g",
                        area_job_area, power_job_area);
  }
  if (power_job_power > area_job_power * (1 + kRelTol)) {
    return design + fmt(": power job's power %g exceeds the area job's %g",
                        power_job_power, area_job_power);
  }
  return {};
}

std::string strip_timing(const std::string& report) {
  std::istringstream in(report);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find("synthesis time") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::string check_same_report(const std::string& a, const std::string& b) {
  if (strip_timing(a) != strip_timing(b)) return "reports differ";
  return {};
}

std::string check_outcome(const hsyn::serve::JobOutcome& out,
                          std::uint64_t trace_seed) {
  if (!out.ok) return "job failed: " + out.error;
  if (!out.verify_ok) return "RTL verification failed";
  if (!out.result || !out.bench || !out.lib) return "job returned no datapath";
  const hsyn::SynthResult& r = *out.result;
  std::string e = check_schedule(r.makespan, r.pt.clk_ns, r.sample_period_ns);
  if (e.empty()) e = check_cost(r.stats.initial_cost, r.stats.final_cost);
  if (!e.empty()) return e;

  const hsyn::Design& design = out.bench->design;
  const Samples trace =
      seeded_trace(design.top().num_inputs(), 48, trace_seed);
  const Samples expected = reference_outputs(design, design.top_name(), trace);
  const hsyn::RtlSimResult sim =
      hsyn::simulate_rtl(r.dp, 0, trace, *out.lib, r.pt);
  if (!sim.ok) {
    return "simulate_rtl: " +
           (sim.violations.empty() ? std::string("failed") : sim.violations[0]);
  }
  return check_outputs(expected, sim.outputs);
}

std::uint64_t job_trace_seed(std::uint64_t workload_seed,
                             const hsyn::serve::JobSpec& spec) {
  std::uint64_t h = 1469598103934665603ull ^ workload_seed;
  auto mix = [&h](unsigned char c) { h = (h ^ c) * 1099511628211ull; };
  for (const char c : spec.benchmark) mix(static_cast<unsigned char>(c));
  mix(static_cast<unsigned char>(spec.objective));
  mix(static_cast<unsigned char>(spec.mode));
  return h;
}

}  // namespace pb
