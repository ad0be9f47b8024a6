// Workloads of the H-SYN benchmark.
//
// Every job runs at L.F. 2.2 with the engine's fixed seed (JobSpec
// default, 42) and RTL verification on. The benchmark's --seed seeds the
// traces of the output check; it never changes what a job computes. A
// daemon_1t round sends the job list in a fixed order of its own
// (send_order).
//
//   hier_1t   the 8 bundled designs x {area, power}, hierarchical mode,
//             in-process through serve::run_job at 1 thread, eval caches
//             cleared before each job
//   daemon_1t the hier_1t specs without dct2d, each sent once plain and
//             once with --check-moves --verify-rewrites, to one pb_daemon
//             (--serve-unix, 1 pool thread) over one connection with one
//             job outstanding (closed loop); the caches are never cleared.
//             dct2d's four jobs would take 17 of a round's 33 s. One
//             thread: with more, every parallel region wakes a sleeping
//             pool thread, and on a shared host the daemon's job times
//             then follow the host's scheduling more than the program.
//
// A run sets up, then repeats whole rounds of its job list: at least
// kMinRounds, and another one while it is expected to end within
// `seconds` of the first round's start.
//
// The host is shared, and its speed drifts by tens of percent over
// minutes, CPU time as much as wall time. So after every job the
// benchmark times a fixed probe of its own (ref_kernel_s, meter.h) and
// rescales the round's job times by the probe's nominal time over its
// median time in that round; the raw times go to standard error. A job's
// time is the median of its normalised times over the rounds: the probe
// follows the host only in part, and a best-of would pick the rounds it
// over-corrected. Counts and circuit
// quality come from the first round, and so does peak memory
// in-process. A hier_1t round runs in a child forked from the set-up
// process, so every round starts from the same state. A daemon_1t round
// is one daemon lifetime, so every round starts cold; its peak RSS is
// the median over the first kMinRounds rounds, whose orders every run
// shares.
#include "workloads.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "benchmarks/benchmarks.h"
#include "checks.h"
#include "eval/engine.h"
#include "meter.h"
#include "probe.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/jobs.h"

extern char** environ;

namespace pb {
namespace {

using hsyn::Mode;
using hsyn::Objective;
using hsyn::serve::JobOutcome;
using hsyn::serve::JobSpec;

const char* const kDesigns[] = {"test1", "hier_paulin",      "dct",   "iir",
                                "lat",   "avenhaus_cascade", "fir16", "dct2d"};

struct Job {
  JobSpec spec;
  std::string design;
  bool gated = false;
};

std::uint64_t splitmix(std::uint64_t* x) {
  std::uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<Job> job_list(const std::string& workload) {
  std::vector<Job> jobs;
  for (const char* d : kDesigns) {
    if (workload != "hier_1t" && std::string(d) == "dct2d") continue;
    for (const Objective o : {Objective::Area, Objective::Power}) {
      Job j;
      j.design = d;
      j.spec.benchmark = d;
      j.spec.objective = o;
      j.spec.mode = Mode::Hierarchical;
      j.spec.laxity = 2.2;
      j.spec.verify = true;
      jobs.push_back(j);
      if (workload == "daemon_1t") {
        j.gated = true;
        j.spec.check_moves = true;
        j.spec.verify_rewrites = true;
        jobs.push_back(j);
      }
    }
  }
  return jobs;
}

/// The order in which daemon round `round` sends the jobs: a fixed
/// shuffle per round index, the same in every run. In-process jobs keep
/// the list's order. A daemon never clears its caches, so its peak RSS
/// follows the order of its jobs, by up to 7%; with orders seeded from
/// --seed, peak_rss_mb followed the seed more than the program. Each
/// round's reports must equal the first round's, so the other orders
/// also check that a job's result does not depend on what the daemon ran
/// before it.
std::vector<std::size_t> send_order(std::size_t n, std::size_t round) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t x = round;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[splitmix(&x) % i]);
  }
  return order;
}

std::string job_name(const Job& j) {
  return j.design + "/" + hsyn::objective_name(j.spec.objective) +
         (j.gated ? "/gated" : "");
}

/// What one round of a job produced, whichever way it ran.
struct JobRun {
  bool ok = false;
  std::string error;   ///< transport or synthesis failure
  std::string report;
  double area = 0, power = 0;
  JobSample s;
  double latency_s = 0;  ///< daemon: client round trip
  std::int64_t send_ns = 0;
  double probe_s = 0;    ///< ref_kernel_s() right after the job
  double speed = 1;      ///< the round's speed factor (set_speed)

  /// The job's time as its user sees it. For a daemon job that is the
  /// client's round trip, less the probe's checks inside it.
  double wall_s(bool daemon) const {
    return daemon ? latency_s - s.check_s : s.wall_s;
  }
};

/// "improvement : 3 passes, 90 moves applied, 4 kept, ..." -> (90, 4).
std::pair<double, double> moves_of(const std::string& report) {
  const std::size_t at = report.find("improvement");
  if (at == std::string::npos) return {0, 0};
  const std::string line = report.substr(at, report.find('\n', at) - at);
  int passes = 0, applied = 0, kept = 0;
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos ||
      std::sscanf(line.c_str() + colon + 1,
                  " %d passes, %d moves applied, %d kept", &passes, &applied,
                  &kept) != 3) {
    return {0, 0};
  }
  return {applied, kept};
}

double geomean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += std::log(x);
  return v.empty() ? 0 : std::exp(s / static_cast<double>(v.size()));
}

// Every run takes the median of at least this many rounds per job.
constexpr std::size_t kMinRounds = 3;

/// Whether a run that began at `start_ns` and has `done` rounds behind
/// it starts another: until kMinRounds, then while one more round of
/// the mean length so far ends within `seconds`.
bool another_round(std::int64_t start_ns, std::size_t done, double seconds) {
  const double spent = static_cast<double>(now_ns() - start_ns) * 1e-9;
  return done < kMinRounds ||
         spent + spent / static_cast<double>(done) <= seconds;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The round's speed factor: the probe's nominal time over the median of
/// its times after each job of the round.
void set_speed(std::vector<JobRun>* round) {
  std::vector<double> t;
  for (const JobRun& r : *round) t.push_back(r.probe_s);
  const double m = median(t);
  for (JobRun& r : *round) r.speed = m > 0 ? kRefKernelNominalS / m : 0;
}

/// One stderr line per round: its summed wall and CPU time, raw and
/// normalised, and the probe's median time.
void log_round(const std::vector<std::vector<JobRun>>& rounds, bool daemon) {
  double w = 0, c = 0, wn = 0, cn = 0;
  std::vector<double> probe;
  for (const JobRun& r : rounds.back()) {
    w += r.wall_s(daemon);
    c += r.s.cpu_s;
    wn += r.wall_s(daemon) * r.speed;
    cn += r.s.cpu_s * r.speed;
    probe.push_back(r.probe_s);
  }
  std::fprintf(stderr,
               "perfbench: round %zu: wall %.3f s, cpu %.3f s; normalised "
               "wall %.3f s, cpu %.3f s; probe %.3f ms\n",
               rounds.size(), w, c, wn, cn, median(probe) * 1e3);
}

// ---- in-process workloads ------------------------------------------------

/// One in-process round: every job, each followed by the probe and the
/// checks.
std::vector<JobRun> run_round(const RunConfig& cfg,
                              const std::vector<Job>& jobs) {
  std::vector<JobRun> round;
  for (const Job& j : jobs) {
    hsyn::eval::EvalEngine::instance().clear();
    JobOutcome out;
    JobRun r;
    r.s = measure_job([&] { out = hsyn::serve::run_job(j.spec, {}); });
    r.probe_s = ref_kernel_s();
    r.ok = out.ok;
    r.error = out.error;
    r.report = out.report;
    r.area = out.area;
    r.power = out.power;
    try {
      r.s.error = check_outcome(out, job_trace_seed(cfg.seed, j.spec));
    } catch (const std::exception& e) {
      r.s.error = std::string("check threw: ") + e.what();
    }
    round.push_back(std::move(r));
  }
  return round;
}

// A round's results cross from the child to the parent as, per job, the
// JobSample line of meter.h, then "run <ok> <area> <power> <probe_s>
// <error bytes> <report bytes>", then those bytes.
std::string encode(const std::vector<JobRun>& round) {
  std::string o;
  char buf[160];
  for (const JobRun& r : round) {
    std::snprintf(buf, sizeof buf, "run %d %.17g %.17g %.17g %zu %zu\n",
                  r.ok ? 1 : 0, r.area, r.power, r.probe_s, r.error.size(),
                  r.report.size());
    o += to_line(r.s) + "\n" + buf + r.error + r.report;
  }
  return o;
}

std::vector<JobRun> decode(const std::string& in) {
  std::vector<JobRun> round;
  std::size_t at = 0;
  while (at < in.size()) {
    JobRun r;
    const std::size_t nl1 = in.find('\n', at);
    const std::size_t nl2 = in.find('\n', nl1 + 1);
    if (nl1 == std::string::npos || nl2 == std::string::npos ||
        !from_line(in.substr(at, nl1 - at), &r.s)) {
      break;
    }
    int ok = 0;
    std::size_t elen = 0, rlen = 0;
    if (std::sscanf(in.c_str() + nl1 + 1, "run %d %lf %lf %lf %zu %zu", &ok,
                    &r.area, &r.power, &r.probe_s, &elen, &rlen) != 6 ||
        nl2 + 1 + elen + rlen > in.size()) {
      break;
    }
    r.ok = ok != 0;
    r.error = in.substr(nl2 + 1, elen);
    r.report = in.substr(nl2 + 1 + elen, rlen);
    at = nl2 + 1 + elen + rlen;
    round.push_back(std::move(r));
  }
  return round;
}

/// Runs one round in a child forked from the set-up process, so every
/// round starts from the same program state and the same heap: in one
/// process, each round runs slower than the one before (the MoveLedger
/// growth in CHANGES.md), so its rounds would not be alike.
std::vector<JobRun> run_round_forked(const RunConfig& cfg,
                                     const std::vector<Job>& jobs,
                                     std::vector<std::string>* errors) {
  int fd[2];
  if (pipe(fd) != 0) {
    errors->push_back("cannot make a pipe for a round");
    return {};
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fd[0]);
    const std::string out = encode(run_round(cfg, jobs));
    for (std::size_t at = 0; at < out.size();) {
      const ssize_t n = write(fd[1], out.data() + at, out.size() - at);
      if (n <= 0) _exit(1);
      at += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fd[1]);
  std::string in;
  if (pid > 0) {
    char buf[1 << 16];
    ssize_t n;
    while ((n = read(fd[0], buf, sizeof buf)) > 0) in.append(buf, static_cast<std::size_t>(n));
  }
  close(fd[0]);
  int st = 0;
  if (pid < 0 || waitpid(pid, &st, 0) != pid || !WIFEXITED(st) ||
      WEXITSTATUS(st) != 0) {
    errors->push_back("a round's process failed");
  }
  std::vector<JobRun> round = decode(in);
  if (round.size() != jobs.size()) {
    errors->push_back("a round returned " + std::to_string(round.size()) +
                      " of " + std::to_string(jobs.size()) + " jobs");
    for (std::size_t i = round.size(); i < jobs.size(); ++i) {
      round.emplace_back().error = "no result from the round";
    }
  }
  return round;
}

void run_in_process(const RunConfig& cfg, const std::vector<Job>& jobs,
                    std::vector<std::vector<JobRun>>* rounds,
                    double* setup_s, std::vector<std::string>* errors) {
  hsyn::runtime::set_threads(1);
  {
    const hsyn::Library lib = hsyn::default_library();
    for (const Job& j : jobs) {
      if (j.spec.objective == Objective::Area) {
        (void)hsyn::make_benchmark(j.design, lib);
      }
    }
  }
  *setup_s = static_cast<double>(now_ns() - cfg.t0_ns) * 1e-9;

  const std::int64_t start = now_ns();
  do {
    rounds->push_back(run_round_forked(cfg, jobs, errors));
    set_speed(&rounds->back());
    log_round(*rounds, false);
  } while (another_round(start, rounds->size(), cfg.seconds));
}

// ---- daemon workload -------------------------------------------------------

/// A spawned daemon; killed and reaped on destruction if still running.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::vector<std::string>& extra_env) {
    std::vector<std::string> env_s;
    for (char** e = environ; *e != nullptr; ++e) env_s.emplace_back(*e);
    for (const std::string& e : extra_env) env_s.push_back(e);
    std::vector<char*> argv, envp;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    for (std::string& e : env_s) envp.push_back(e.data());
    envp.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    if (posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                    envp.data()) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&fa);
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool started() const { return pid_ > 0; }

  /// Wait up to `timeout_s` for a clean exit; true when it exited 0.
  bool wait_exit(double timeout_s) {
    const std::int64_t until = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (pid_ > 0) {
      int st = 0;
      const pid_t r = waitpid(pid_, &st, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(st) && WEXITSTATUS(st) == 0;
      }
      if (now_ns() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
};

void run_daemon(const RunConfig& cfg, const std::vector<Job>& jobs,
                std::vector<std::vector<JobRun>>* rounds, double* setup_s,
                std::vector<std::string>* errors) {
  const std::string exe =
      cfg.bin_dir + (layers_traced() ? "/pb_daemon_traced" : "/pb_daemon");
  const std::string tag = cfg.work_dir + "/pb-" + std::to_string(getpid());
  const std::int64_t start = now_ns();
  do {
    const std::string sock = tag + ".sock";
    const std::string probe =
        tag + "-" + std::to_string(rounds->size()) + ".probe";
    std::remove(sock.c_str());
    std::remove(probe.c_str());
    std::vector<JobRun> round(jobs.size());
    const std::int64_t spawned = now_ns();
    Daemon daemon(exe, {"--serve-unix", sock, "--threads", "1"},
                  {"PB_PROBE_OUT=" + probe,
                   "PB_CHECK_SEED=" + std::to_string(cfg.seed)});
    if (!daemon.started()) {
      errors->push_back("cannot start " + exe);
      return;
    }
    hsyn::serve::Client client;
    std::string err;
    bool ready = false;
    while (now_ns() - spawned < 30'000'000'000) {
      if ((client.connected() || client.connect(sock, &err)) &&
          client.ping(&err)) {
        ready = true;
        break;
      }
      client.close();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (!ready) {
      errors->push_back("daemon did not answer ping: " + err);
      return;
    }
    if (rounds->empty()) *setup_s = static_cast<double>(now_ns() - cfg.t0_ns) * 1e-9;

    const std::vector<std::size_t> order =
        send_order(jobs.size(), rounds->size());
    for (const std::size_t i : order) {
      JobRun& r = round[i];
      JobOutcome out;
      r.send_ns = now_ns();
      const bool sent = client.run_job(jobs[i].spec, nullptr, &out, &err);
      r.latency_s = static_cast<double>(now_ns() - r.send_ns) * 1e-9;
      r.probe_s = ref_kernel_s();
      r.ok = sent && out.ok;
      r.error = sent ? out.error : "transport: " + err;
      r.report = out.report;
      r.area = out.area;
      r.power = out.power;
    }
    client.shutdown_server(&err);
    client.close();
    if (!daemon.wait_exit(30)) errors->push_back("daemon did not exit cleanly");

    std::ifstream in(probe);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
      if (n < round.size() && from_line(line, &round[order[n]].s)) ++n;
    }
    if (n != round.size()) {
      errors->push_back("daemon probe recorded " + std::to_string(n) + " of " +
                        std::to_string(round.size()) + " jobs");
      for (std::size_t k = n; k < round.size(); ++k) {
        round[order[k]].s.error = "no probe record";
      }
    }
    std::remove(probe.c_str());
    std::remove(sock.c_str());
    set_speed(&round);
    rounds->push_back(std::move(round));
    log_round(*rounds, true);
  } while (another_round(start, rounds->size(), cfg.seconds));
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "hier_1t" || name == "daemon_1t";
}

RunResult run_workload(const RunConfig& cfg) {
  RunResult res;
  const std::vector<Job> jobs = job_list(cfg.workload);
  std::vector<std::vector<JobRun>> rounds;
  double setup_s = 0;
  const bool daemon = cfg.workload == "daemon_1t";
  if (daemon) {
    run_daemon(cfg, jobs, &rounds, &setup_s, &res.errors);
  } else {
    run_in_process(cfg, jobs, &rounds, &setup_s, &res.errors);
  }

  // ---- checks ----
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobRun& jr = rounds[r][i];
      ++res.attempted;
      if (!jr.ok) {
        ++res.failed;
        res.errors.push_back(job_name(jobs[i]) + ": " + jr.error);
        continue;
      }
      std::string e = jr.s.error;
      if (e.empty() && r > 0) {
        e = check_same_report(rounds[0][i].report, jr.report);
        if (!e.empty()) e += " between rounds";
      }
      if (!e.empty()) res.errors.push_back(job_name(jobs[i]) + ": " + e);
    }
  }
  if (!rounds.empty()) {
    // Plain vs gated, and the per-design area/power trade-off.
    std::map<std::string, const JobRun*> by_name;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      by_name[job_name(jobs[i])] = &rounds[0][i];
    }
    for (const Job& j : jobs) {
      const JobRun* a = by_name[job_name(j)];
      if (j.gated) {
        Job plain = j;
        plain.gated = false;
        const JobRun* p = by_name[job_name(plain)];
        if (a->ok && p->ok) {
          const std::string e = check_same_report(p->report, a->report);
          if (!e.empty()) res.errors.push_back(job_name(j) + ": plain and gated " + e);
        }
      }
      if (j.gated || j.spec.objective != Objective::Area) continue;
      const JobRun* p = by_name[j.design + "/power"];
      if (!a->ok || !p->ok) continue;
      const std::string e =
          check_tradeoff(j.design, a->area, a->power, p->area, p->power);
      if (!e.empty()) res.errors.push_back(e);
    }
  }
  res.correct = res.errors.size() == res.failed && !rounds.empty();

  // ---- metrics ----
  double wall = 0, cpu = 0, wall_norm = 0, cpu_norm = 0;
  std::vector<double> probe;
  for (std::size_t i = 0; i < jobs.size() && !rounds.empty(); ++i) {
    std::vector<double> w, c, wn, cn;
    for (const auto& round : rounds) {
      const JobRun& jr = round[i];
      w.push_back(jr.wall_s(daemon));
      c.push_back(jr.s.cpu_s);
      wn.push_back(jr.wall_s(daemon) * jr.speed);
      cn.push_back(jr.s.cpu_s * jr.speed);
      probe.push_back(jr.probe_s);
    }
    wall += median(w);
    cpu += median(c);
    wall_norm += median(wn);
    cpu_norm += median(cn);
  }
  std::vector<double> daemon_peaks;
  for (std::size_t r = 0; r < rounds.size() && r < kMinRounds; ++r) {
    const auto& round = rounds[r];
    double peak = 0;
    for (const JobRun& jr : round) peak = std::max(peak, jr.s.maxrss_kb);
    daemon_peaks.push_back(peak);
  }
  const double daemon_rss_kb = median(daemon_peaks);
  JobSample first;  // round-1 totals
  double rss_kb = 0, cache_bytes = 0, applied = 0, kept = 0;
  double queue_wait = 0, overhead = 0;
  std::vector<double> areas, powers, layer_acc;
  std::int64_t last_entry = -1;
  for (std::size_t i = 0; i < jobs.size() && !rounds.empty(); ++i) {
    const JobRun& jr = rounds[0][i];
    const JobSample& s = jr.s;
    first.allocs += s.allocs;
    first.alloc_bytes += s.alloc_bytes;
    first.regions += s.regions;
    first.inline_regions += s.inline_regions;
    first.tasks += s.tasks;
    first.lookups += s.lookups;
    first.hits += s.hits;
    first.evictions += s.evictions;
    cache_bytes = std::max(cache_bytes, s.cache_bytes);
    if (s.entry_ns > last_entry) {
      last_entry = s.entry_ns;
      rss_kb = s.maxrss_kb;
    }
    if (!s.layers.empty()) {
      if (layer_acc.empty()) layer_acc.assign(s.layers.size(), 0.0);
      for (std::size_t k = 0; k < s.layers.size(); ++k) layer_acc[k] += s.layers[k];
    }
    const auto [ap, kp] = moves_of(jr.report);
    applied += ap;
    kept += kp;
    if (jr.ok) {
      (jobs[i].spec.objective == Objective::Area ? areas : powers)
          .push_back(jobs[i].spec.objective == Objective::Area ? jr.area
                                                               : jr.power);
    }
    if (daemon) {
      queue_wait += static_cast<double>(s.entry_ns - jr.send_ns) * 1e-9;
      overhead += jr.latency_s - s.wall_s - s.check_s;
    }
  }

  auto add = [&res](const std::string& n, double v, const char* unit) {
    res.metrics.push_back({n, std::isfinite(v) ? v : 0.0, unit});
  };
  if (!layers_traced()) {
    std::fprintf(stderr, "perfbench: median rounds: wall %.3f s, cpu %.3f s\n",
                 wall, cpu);
    add("setup_s", setup_s, "s");
    add("wall_norm_s", wall_norm, "s");
    add("cpu_norm_s", cpu_norm, "s");
    add("peak_rss_mb", (daemon ? daemon_rss_kb : rss_kb) / 1024.0, "MB");
    add("heap_allocs", first.allocs, "count");
    add("heap_alloc_mb", first.alloc_bytes / 1048576.0, "MB");
    add("area_geomean", geomean(areas), "a.u.");
    add("power_geomean", geomean(powers), "a.u.");
    return res;
  }
  std::map<std::string, double> layers;
  layer_metrics(layer_acc, &layers);
  for (const auto& [name, v] : layers) {
    const bool is_time = name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0;
    add(name, v, is_time ? "s" : "count");
  }
  add("synth.moves_applied", applied, "count");
  add("synth.moves_kept", kept, "count");
  add("synth.kept_ratio", applied > 0 ? kept / applied : 0, "ratio");
  add("eval.lookups", first.lookups, "count");
  add("eval.hit_ratio", first.lookups > 0 ? first.hits / first.lookups : 0,
      "ratio");
  add("eval.evictions", first.evictions, "count");
  add("eval.cache_mb", cache_bytes / 1048576.0, "MB");
  add("runtime.regions", first.regions, "count");
  add("runtime.inline_regions", first.inline_regions, "count");
  add("runtime.tasks", first.tasks, "count");
  const double all_regions = first.regions + first.inline_regions;
  add("runtime.parallel_ratio", all_regions > 0 ? first.regions / all_regions : 0,
      "ratio");
  add("serve.queue_wait_s", queue_wait, "s");
  add("serve.overhead_s", overhead, "s");
  add("perfbench.wall_s", wall, "s");
  add("perfbench.wall_norm_s", wall_norm, "s");
  add("perfbench.probe_ms", median(probe) * 1e3, "ms");
  return res;
}

}  // namespace pb
