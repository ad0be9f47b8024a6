// Link-time wrappers of the layer entry points listed in layers.def.
//
// Each thread keeps its counters in a slot of a fixed table (single
// writer, relaxed atomics) and a stack of the timed calls it is inside,
// so a layer's self time and self allocations exclude the wrapped calls
// nested in it. Timing uses steady_clock (two reads per timed call);
// Count layers only bump a counter.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "alloc_count.h"
#include "check/check.h"
#include "check/equiv.h"
#include "embed/embedder.h"
#include "obs/ledger.h"
#include "power/estimator.h"
#include "power/replay.h"
#include "power/rtlsim.h"
#include "probe.h"
#include "rtl/cost.h"
#include "rtl/datapath.h"
#include "sched/scheduler.h"
#include "sched/slack.h"
#include "synth/moves.h"

namespace pb {
namespace {

enum Kind { Timed, Count };

enum LayerId : int {
#define LAYER(sym, name, kind, ret, params, args) L_##sym,
#include "layers.def"
#undef LAYER
  kLayers
};

struct LayerInfo {
  const char* name;
  Kind kind;
};

constexpr LayerInfo kInfo[kLayers] = {
#define LAYER(sym, name, kind, ret, params, args) {name, kind},
#include "layers.def"
#undef LAYER
};

struct alignas(64) Block {
  std::atomic<std::uint64_t> calls[kLayers];
  std::atomic<std::uint64_t> self_ns[kLayers];
  std::atomic<std::uint64_t> allocs[kLayers];
};

constexpr int kBlocks = 1024;
Block g_blocks[kBlocks];
std::atomic<int> g_used{0};
thread_local Block* t_block = nullptr;

struct Frame {
  std::uint64_t t0;
  std::uint64_t child_ns;
  std::uint64_t a0;
  std::uint64_t child_allocs;
};
constexpr int kMaxDepth = 64;
thread_local Frame t_stack[kMaxDepth];
thread_local int t_depth = 0;

Block* block() {
  if (t_block == nullptr) {
    const int i = g_used.fetch_add(1, std::memory_order_relaxed);
    if (i >= kBlocks) {
      std::fputs("perfbench: more threads than layer counter blocks\n", stderr);
      std::abort();
    }
    t_block = &g_blocks[i];
  }
  return t_block;
}

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t v) {
  c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void count_call(int id) { bump(block()->calls[id], 1); }

/// One timed call: pushed on entry, charged on exit (also when the call
/// throws). Frames deeper than kMaxDepth are counted but not timed.
class Scope {
 public:
  explicit Scope(int id) : id_(id) {
    bump(block()->calls[id], 1);
    if (t_depth < kMaxDepth) {
      t_stack[t_depth] = {now_ns(), 0, thread_alloc_totals().count, 0};
    }
    ++t_depth;
  }
  ~Scope() {
    --t_depth;
    if (t_depth >= kMaxDepth) return;
    const Frame& f = t_stack[t_depth];
    const std::uint64_t d = now_ns() - f.t0;
    const std::uint64_t a = thread_alloc_totals().count - f.a0;
    Block* b = block();
    bump(b->self_ns[id_], d - f.child_ns);
    bump(b->allocs[id_], a - f.child_allocs);
    if (t_depth > 0) {
      Frame& parent = t_stack[t_depth - 1];
      parent.child_ns += d;
      parent.child_allocs += a;
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

}  // namespace
}  // namespace pb

using namespace hsyn;

#define PB_ENTER_Timed(id) const pb::Scope pb_scope_(id)
#define PB_ENTER_Count(id) pb::count_call(id)

// __real_<sym> is weak: when the library no longer defines <sym> (a
// renamed or re-typed function) the link still succeeds, nothing calls
// the wrapper, and report_missing_once() names the layer. A weak
// reference does not pull an object out of an archive, so the traced
// programs link libhsyn whole (CMakeLists.txt).
#define LAYER(sym, name, kind, ret, params, args) \
  extern "C" ret __real_##sym params __attribute__((weak)); \
  extern "C" ret __wrap_##sym params {                      \
    PB_ENTER_##kind(pb::L_##sym);                           \
    return __real_##sym args;                               \
  }
#include "layers.def"
#undef LAYER

namespace pb {
namespace {

void report_missing_once() {
  static const bool done = [] {
#define LAYER(sym, name, kind, ret, params, args)                          \
  if (reinterpret_cast<const void*>(&__real_##sym) == nullptr) {           \
    std::fprintf(stderr,                                                   \
                 "perfbench: %s: entry point %s not in the library; its "  \
                 "metrics read 0\n",                                       \
                 name, #sym);                                              \
  }
#include "layers.def"
#undef LAYER
    return true;
  }();
  (void)done;
}

}  // namespace

bool layers_traced() { return true; }

std::vector<double> layer_snapshot() {
  report_missing_once();
  std::vector<double> v(3 * kLayers, 0.0);
  const int n = g_used.load(std::memory_order_relaxed);
  for (int i = 0; i < n && i < kBlocks; ++i) {
    for (int l = 0; l < kLayers; ++l) {
      v[3 * l] += static_cast<double>(
          g_blocks[i].calls[l].load(std::memory_order_relaxed));
      v[3 * l + 1] += static_cast<double>(
          g_blocks[i].self_ns[l].load(std::memory_order_relaxed));
      v[3 * l + 2] += static_cast<double>(
          g_blocks[i].allocs[l].load(std::memory_order_relaxed));
    }
  }
  return v;
}

void layer_accumulate(const std::vector<double>& before,
                      const std::vector<double>& after,
                      std::vector<double>* acc) {
  if (acc->empty()) acc->assign(after.size(), 0.0);
  for (std::size_t i = 0; i < after.size(); ++i) {
    (*acc)[i] += after[i] - before[i];
  }
}

void layer_metrics(const std::vector<double>& acc,
                   std::map<std::string, double>* out) {
  for (int l = 0; l < kLayers; ++l) {
    const std::string name = kInfo[l].name;
    const double calls = acc.empty() ? 0.0 : acc[3 * l];
    if (kInfo[l].kind == Count) {
      (*out)[name] += calls;
      continue;
    }
    (*out)[name + ".calls"] += calls;
    (*out)[name + ".self_s"] += acc.empty() ? 0.0 : acc[3 * l + 1] * 1e-9;
    (*out)[name + ".allocs"] += acc.empty() ? 0.0 : acc[3 * l + 2];
  }
}

}  // namespace pb
