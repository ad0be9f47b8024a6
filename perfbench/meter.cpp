#include "meter.h"

#include <sys/resource.h>
#include <time.h>

#include <cstddef>
#include <map>
#include <memory_resource>
#include <vector>
#include <sstream>

#include "alloc_count.h"
#include "eval/engine.h"
#include "probe.h"
#include "runtime/stats.h"

namespace pb {
namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Snap {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  AllocTotals alloc;
  hsyn::runtime::Stats rt;
  double lookups = 0, hits = 0, evictions = 0, bytes = 0;
  std::vector<double> layers;
};

template <class V>
void add_cache(const hsyn::eval::ShardedLruCache<V>& c, Snap* s) {
  const hsyn::eval::CacheCounters k = c.counters();
  s->lookups += static_cast<double>(k.hits + k.misses);
  s->hits += static_cast<double>(k.hits);
  s->evictions += static_cast<double>(k.evictions);
  s->bytes += static_cast<double>(k.bytes);
}

Snap snap() {
  Snap s;
  s.layers = layer_snapshot();
  s.rt = hsyn::runtime::stats_snapshot();
  hsyn::eval::EvalEngine& e = hsyn::eval::EvalEngine::instance();
  add_cache(e.energy_cache(), &s);
  add_cache(e.area_cache(), &s);
  add_cache(e.connectivity_cache(), &s);
  add_cache(e.edge_values_cache(), &s);
  add_cache(e.program_cache(), &s);
  add_cache(e.facts_cache(), &s);
  s.alloc = alloc_totals();
  s.cpu_ns = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  s.wall_ns = now_ns();
  return s;
}

}  // namespace

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

JobSample measure_job(const std::function<void()>& job) {
  const Snap a = snap();
  // Taken in reverse order of `a`, so the clocks bracket only the job
  // and the allocation count excludes the snapshots' own.
  job();
  const std::int64_t wall = now_ns();
  const std::int64_t cpu = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  const AllocTotals al = alloc_totals();
  Snap b = snap();

  JobSample s;
  s.entry_ns = a.wall_ns;
  s.wall_s = static_cast<double>(wall - a.wall_ns) * 1e-9;
  s.cpu_s = static_cast<double>(cpu - a.cpu_ns) * 1e-9;
  s.allocs = static_cast<double>(al.count - a.alloc.count);
  s.alloc_bytes = static_cast<double>(al.bytes - a.alloc.bytes);
  s.regions = static_cast<double>(b.rt.regions - a.rt.regions);
  s.inline_regions =
      static_cast<double>(b.rt.inline_regions - a.rt.inline_regions);
  s.tasks = static_cast<double>(b.rt.tasks - a.rt.tasks);
  s.lookups = b.lookups - a.lookups;
  s.hits = b.hits - a.hits;
  s.evictions = b.evictions - a.evictions;
  s.cache_bytes = b.bytes;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.maxrss_kb = static_cast<double>(ru.ru_maxrss);
  layer_accumulate(a.layers, b.layers, &s.layers);
  return s;
}

double ref_kernel_s() {
  // Its own memory, so the program's heap (its size, its fragmentation)
  // has no say in the probe's time: a pool over a fixed buffer that each
  // call starts afresh.
  alignas(64) static std::byte arena[4 << 20];
  static volatile std::size_t sink = 0;
  const std::int64_t t0 = now_ns();
  {
    std::pmr::monotonic_buffer_resource upstream(
        arena, sizeof arena, std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&upstream);
    std::uint64_t x = 3;
    std::pmr::map<std::uint32_t, std::uint32_t> m(&pool);
    std::pmr::vector<std::pmr::vector<int>> vs(&pool);
    vs.reserve(72);
    for (int i = 0; i < 45000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint32_t k = static_cast<std::uint32_t>(x >> 40) % 20000;
      m[k] += static_cast<std::uint32_t>(i);
      if ((i & 3) == 0) {
        vs.emplace_back(static_cast<std::size_t>(x >> 20) % 24 + 1, i);
        if (vs.size() > 64) vs.erase(vs.begin());
      }
      if ((i & 7) == 0) m.erase((k * 7) % 20000);
    }
    sink = sink + m.size() + vs.size();
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::string to_line(const JobSample& s) {
  std::ostringstream o;
  o.precision(17);
  o << "job " << s.entry_ns << ' ' << s.wall_s << ' ' << s.cpu_s << ' '
    << s.check_s << ' ' << s.allocs << ' ' << s.alloc_bytes << ' '
    << s.regions << ' ' << s.inline_regions << ' ' << s.tasks << ' '
    << s.lookups << ' ' << s.hits << ' ' << s.evictions << ' '
    << s.cache_bytes << ' ' << s.maxrss_kb << ' ' << s.layers.size();
  for (const double v : s.layers) o << ' ' << v;
  std::string err = s.error;
  for (char& c : err) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  o << " |" << err;
  return o.str();
}

bool from_line(const std::string& line, JobSample* s) {
  const std::size_t bar = line.find('|');
  if (bar == std::string::npos) return false;
  std::istringstream in(line.substr(0, bar));
  std::string tag;
  std::size_t n = 0;
  in >> tag >> s->entry_ns >> s->wall_s >> s->cpu_s >> s->check_s >>
      s->allocs >> s->alloc_bytes >> s->regions >> s->inline_regions >>
      s->tasks >> s->lookups >> s->hits >> s->evictions >> s->cache_bytes >>
      s->maxrss_kb >> n;
  if (!in || tag != "job" || n > 4096) return false;
  s->layers.assign(n, 0.0);
  for (double& v : s->layers) in >> v;
  s->error = line.substr(bar + 1);
  return static_cast<bool>(in);
}

}  // namespace pb
