// pb_selftest: each of the benchmark's checks accepts a good result and
// rejects a bad one. The good result is a real job (test1, power,
// hierarchical); the bad ones are that job's outputs with one sample
// corrupted, its schedule stretched past the sampling period, a report
// swapped for another job's, and trade-off figures the wrong way round.
// Prints one line per case and exits 1 if any case goes the wrong way.
#include <cstdio>
#include <string>

#include "checks.h"
#include "power/rtlsim.h"
#include "serve/jobs.h"

namespace {

int failures = 0;

void expect(bool rejected_wanted, const std::string& verdict,
            const char* what) {
  const bool rejected = !verdict.empty();
  const bool good = rejected == rejected_wanted;
  if (!good) ++failures;
  std::printf("%s  %s%s%s\n", good ? "ok  " : "FAIL", what,
              rejected ? " -> rejected: " : " -> accepted",
              verdict.c_str());
}

hsyn::serve::JobOutcome run(const char* design, hsyn::Objective obj) {
  hsyn::serve::JobSpec spec;
  spec.benchmark = design;
  spec.objective = obj;
  return hsyn::serve::run_job(spec, {});
}

}  // namespace

int main() {
  using pb::check_outputs;
  const hsyn::serve::JobOutcome pw = run("test1", hsyn::Objective::Power);
  const hsyn::serve::JobOutcome ar = run("test1", hsyn::Objective::Area);
  const hsyn::serve::JobOutcome other = run("lat", hsyn::Objective::Power);
  if (!pw.ok || !ar.ok || !other.ok) {
    std::puts("FAIL  a reference job did not run");
    return 1;
  }
  expect(false, pb::check_outcome(pw, 7), "real job passes every check");

  // Output check: the datapath's own outputs, then one corrupted value.
  const hsyn::Design& d = pw.bench->design;
  const pb::Samples trace = pb::seeded_trace(d.top().num_inputs(), 16, 7);
  const pb::Samples ref = pb::reference_outputs(d, d.top_name(), trace);
  const hsyn::RtlSimResult sim =
      hsyn::simulate_rtl(pw.result->dp, 0, trace, *pw.lib, pw.result->pt);
  expect(false, check_outputs(ref, sim.outputs), "simulated outputs");
  pb::Samples bad = sim.outputs;
  bad[5][0] ^= 0x10;
  expect(true, check_outputs(ref, bad), "one output sample corrupted");
  bad = sim.outputs;
  bad.pop_back();
  expect(true, check_outputs(ref, bad), "one output sample missing");

  // Schedule: the real one fits; one more cycle at the same clock
  // stretched until it no longer does.
  const hsyn::SynthResult& r = *pw.result;
  expect(false, pb::check_schedule(r.makespan, r.pt.clk_ns, r.sample_period_ns),
         "real schedule");
  const int stretched =
      static_cast<int>(r.sample_period_ns / r.pt.clk_ns) + 1;
  expect(true, pb::check_schedule(stretched, r.pt.clk_ns, r.sample_period_ns),
         "schedule stretched past the period");

  // Cost: improvement may not end worse than it started.
  expect(false, pb::check_cost(r.stats.initial_cost, r.stats.final_cost),
         "real cost");
  expect(true, pb::check_cost(r.stats.final_cost, r.stats.final_cost * 1.01),
         "final cost above the initial cost");

  // Reports: a rerun's report matches, another job's does not.
  expect(false, pb::check_same_report(pw.report, run("test1", hsyn::Objective::Power).report),
         "rerun report");
  expect(true, pb::check_same_report(pw.report, other.report),
         "swapped report");
  expect(true, pb::check_same_report(pw.report, ar.report),
         "area report in place of the power report");

  // Trade-off: the real pair holds, the swapped pair does not.
  expect(false, pb::check_tradeoff("test1", ar.area, ar.power, pw.area, pw.power),
         "real area/power trade-off");
  expect(true, pb::check_tradeoff("test1", pw.area, pw.power, ar.area, ar.power),
         "area and power jobs swapped");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
