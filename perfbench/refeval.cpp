#include "refeval.h"

#include <stdexcept>

namespace pb {
namespace {

using hsyn::Dfg;
using hsyn::Op;
using u16 = std::uint16_t;

std::int32_t sext(u16 v) { return static_cast<std::int16_t>(v); }

u16 apply(Op op, u16 a, u16 b) {
  switch (op) {
    case Op::Add: return static_cast<u16>(a + b);
    case Op::Sub: return static_cast<u16>(a - b);
    case Op::Mult:
      return static_cast<u16>(static_cast<std::uint32_t>(a) *
                              static_cast<std::uint32_t>(b));
    case Op::ShiftL: return static_cast<u16>(static_cast<std::uint32_t>(a) << (b & 15u));
    case Op::ShiftR: {
      // Arithmetic: the vacated high bits copy the sign bit.
      const unsigned s = b & 15u;
      std::uint32_t v = a >> s;
      if ((a & 0x8000u) != 0 && s != 0) v |= (0xFFFFu << (16 - s)) & 0xFFFFu;
      return static_cast<u16>(v);
    }
    case Op::Cmp: {
      // Signed less-than: flip the sign bits and compare unsigned.
      return static_cast<u16>((a ^ 0x8000u) < (b ^ 0x8000u) ? 1 : 0);
    }
    case Op::And: return static_cast<u16>(a & b);
    case Op::Or: return static_cast<u16>(a | b);
    case Op::Xor: return static_cast<u16>(a ^ b);
    case Op::Neg: return static_cast<u16>(0u - a);
    case Op::Hier: break;
  }
  throw std::logic_error("reference evaluator: unexpected op");
}

std::vector<u16> eval(const hsyn::Design& design, const Dfg& dfg,
                      const std::vector<u16>& in, int depth) {
  if (depth > 64) throw std::logic_error("reference evaluator: deep hierarchy");
  if (static_cast<int>(in.size()) != dfg.num_inputs()) {
    throw std::logic_error("reference evaluator: input count of " + dfg.name());
  }
  std::vector<u16> edge(dfg.edges().size(), 0);
  std::vector<char> known(dfg.edges().size(), 0);
  for (int i = 0; i < dfg.num_inputs(); ++i) {
    const int e = dfg.primary_input_edge(i);
    if (e >= 0) {
      edge[static_cast<std::size_t>(e)] = in[static_cast<std::size_t>(i)];
      known[static_cast<std::size_t>(e)] = 1;
    }
  }
  auto operand = [&](int node, int port) {
    const int e = dfg.input_edge(node, port);
    if (e < 0 || !known[static_cast<std::size_t>(e)]) {
      throw std::logic_error("reference evaluator: unready operand in " +
                             dfg.name());
    }
    return edge[static_cast<std::size_t>(e)];
  };
  for (const int id : dfg.topo_order()) {
    const hsyn::Node& n = dfg.node(id);
    std::vector<u16> out;
    if (n.is_hier()) {
      std::vector<u16> args;
      for (int p = 0; p < n.num_inputs; ++p) args.push_back(operand(id, p));
      out = eval(design, design.behavior(n.behavior), args, depth + 1);
    } else {
      const u16 a = operand(id, 0);
      const u16 b = n.num_inputs > 1 ? operand(id, 1) : 0;
      out.push_back(apply(n.op, a, b));
    }
    for (int p = 0; p < static_cast<int>(out.size()); ++p) {
      const int e = dfg.output_edge(id, p);
      if (e < 0) continue;
      edge[static_cast<std::size_t>(e)] = out[static_cast<std::size_t>(p)];
      known[static_cast<std::size_t>(e)] = 1;
    }
  }
  std::vector<u16> res;
  for (int o = 0; o < dfg.num_outputs(); ++o) {
    const int e = dfg.primary_output_edge(o);
    if (e < 0 || !known[static_cast<std::size_t>(e)]) {
      throw std::logic_error("reference evaluator: undriven output of " +
                             dfg.name());
    }
    res.push_back(edge[static_cast<std::size_t>(e)]);
  }
  return res;
}

}  // namespace

Samples reference_outputs(const hsyn::Design& design, const std::string& name,
                          const Samples& inputs) {
  const Dfg& dfg = design.behavior(name);
  Samples outs;
  for (const auto& s : inputs) {
    std::vector<u16> in;
    for (const std::int32_t v : s) in.push_back(static_cast<u16>(v));
    std::vector<std::int32_t> o;
    for (const u16 v : eval(design, dfg, in, 0)) o.push_back(sext(v));
    outs.push_back(std::move(o));
  }
  return outs;
}

Samples seeded_trace(int num_inputs, int num_samples, std::uint64_t seed) {
  std::uint64_t x = seed;
  auto next = [&x] {  // splitmix64
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  static constexpr u16 kExtremes[] = {0x0000, 0x0001, 0x7FFF, 0x8000, 0xFFFF};
  Samples t;
  for (int s = 0; s < num_samples; ++s) {
    std::vector<std::int32_t> row;
    for (int i = 0; i < num_inputs; ++i) {
      const std::uint64_t r = next();
      const u16 v = (r >> 60) == 0 ? kExtremes[(r >> 16) % 5]
                                   : static_cast<u16>(r);
      row.push_back(sext(v));
    }
    t.push_back(std::move(row));
  }
  return t;
}

}  // namespace pb
