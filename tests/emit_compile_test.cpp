// The acid test for code generation: the emitted C program is compiled
// with the system C compiler, executed, and its output diffed against the
// plan interpreter.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <map>

#include "compiler/emit_standalone.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/ccs.hpp"
#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::Csr;
using formats::TripletBuilder;

// Compiles `program` with cc and returns its stdout lines as doubles;
// nullopt when no C compiler is available (test then skips).
std::optional<Vector> compile_and_run(const std::string& program,
                                      const std::string& tag) {
  std::string dir = ::testing::TempDir();
  std::string src = dir + "bernoulli_emit_" + tag + ".c";
  std::string bin = dir + "bernoulli_emit_" + tag + ".bin";
  {
    std::ofstream out(src);
    out << program;
  }
  std::string compile = "cc -O2 -o " + bin + " " + src + " 2>/dev/null";
  if (std::system(compile.c_str()) != 0) return std::nullopt;

  std::string run = bin + " > " + src + ".out";
  if (std::system(run.c_str()) != 0) return std::nullopt;

  Vector values;
  std::ifstream in(src + ".out");
  double v;
  while (in >> v) values.push_back(v);
  std::remove(src.c_str());
  std::remove(bin.c_str());
  std::remove((src + ".out").c_str());
  return values;
}

bool have_cc() {
  static int ok = -1;
  if (ok < 0) ok = std::system("cc --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return ok == 1;
}

TEST(EmitCompile, CsrMatvecRunsAndMatchesInterpreter) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";

  const index_t n = 18;
  SplitMix64 rng(1);
  TripletBuilder tb(n, n);
  for (int k = 0; k < 70; ++k)
    tb.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();
  Csr a = Csr::from_coo(coo);

  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(n), 0.0);

  Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  k.run();  // interpreter fills y

  std::string program = emit_standalone_c(
      k.emit("spmv"), "spmv",
      {{"A_ROWPTR", {a.rowptr().begin(), a.rowptr().end()}},
       {"A_COLIND", {a.colind().begin(), a.colind().end()}}},
      {{"A_VALS", {a.vals().begin(), a.vals().end()}},
       {"X", x},
       {"Y", Vector(static_cast<std::size_t>(n), 0.0)}},
      "Y", static_cast<std::size_t>(n));

  auto got = compile_and_run(program, "csr");
  ASSERT_TRUE(got.has_value()) << "emitted program failed to build/run:\n"
                               << program;
  ASSERT_EQ(got->size(), y.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR((*got)[i], y[i], 1e-14) << "row " << i;
}

TEST(EmitCompile, SparseVectorProbeRunsAndMatches) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";

  const index_t n = 12;
  SplitMix64 rng(2);
  TripletBuilder tb(n, n);
  for (int k = 0; k < 40; ++k)
    tb.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();
  Csr a = Csr::from_coo(coo);
  formats::SparseVector x(n, {{1, 2.0}, {4, -1.5}, {9, 0.5}});
  Vector y(static_cast<std::size_t>(n), 0.0);

  Bindings b;
  b.bind_csr("A", a);
  b.bind_sparse_vector("X", x);
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  // Merge joins emit a pseudo-C co-enumeration; force the probing plan,
  // which is fully compilable.
  PlannerOptions opts;
  opts.allow_merge = false;
  opts.force_order = std::vector<std::string>{"i", "j"};
  CompiledKernel k = compile(nest, b, opts);
  k.run();

  std::string program = emit_standalone_c(
      k.emit("spmv_sx"), "spmv_sx",
      {{"A_ROWPTR", {a.rowptr().begin(), a.rowptr().end()}},
       {"A_COLIND", {a.colind().begin(), a.colind().end()}},
       {"X_IND", {x.ind().begin(), x.ind().end()}}},
      {{"A_VALS", {a.vals().begin(), a.vals().end()}},
       {"X_VALS", {x.vals().begin(), x.vals().end()}},
       {"Y", Vector(static_cast<std::size_t>(n), 0.0)}},
      "Y", static_cast<std::size_t>(n));

  auto got = compile_and_run(program, "sx");
  ASSERT_TRUE(got.has_value()) << "emitted program failed to build/run:\n"
                               << program;
  ASSERT_EQ(got->size(), y.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR((*got)[i], y[i], 1e-14) << "row " << i;
}

// ---- LinkedPlan emission round-trip ---------------------------------
// emit_linked_c → system cc → dlopen → run, diffed against the serial
// linked engine under the full observability contract: bitwise outputs,
// identical executor.* counter deltas, identical fan-out histogram
// deltas, identical per-level stats. This is the same reconciliation
// bench_table2_executor --engine=specialized --check enforces.

std::map<std::string, long long> exec_delta(
    const support::MetricsSnapshot& before,
    const support::MetricsSnapshot& after) {
  std::map<std::string, long long> d;
  for (const auto& [name, v] : after.counts) {
    if (name.rfind("executor.", 0) != 0) continue;
    long long b = 0;
    if (auto it = before.counts.find(name); it != before.counts.end())
      b = it->second;
    if (v != b) d[name] = v - b;
  }
  return d;
}

std::map<std::string, std::vector<long long>> fanout_delta(
    const support::MetricsSnapshot& before,
    const support::MetricsSnapshot& after) {
  std::map<std::string, std::vector<long long>> d;
  for (const auto& [name, buckets] : after.histograms) {
    if (name.rfind("executor.fanout.", 0) != 0) continue;
    std::vector<long long> delta = buckets;
    if (auto it = before.histograms.find(name); it != before.histograms.end())
      for (std::size_t i = 0; i < delta.size() && i < it->second.size(); ++i)
        delta[i] -= it->second[i];
    bool any = false;
    for (long long v : delta) any = any || v != 0;
    if (any) d[name] = std::move(delta);
  }
  return d;
}

void linked_roundtrip(bool use_ccs) {
  const index_t rows = 19, cols = 23;
  SplitMix64 rng(use_ccs ? 8 : 7);
  TripletBuilder tb(rows, cols);
  for (int k = 0; k < 110; ++k)
    tb.add(rng.next_index(rows), rng.next_index(cols),
           rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();
  Csr csr = Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);

  Vector x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(rows), 0.0);

  Bindings b;
  if (use_ccs)
    b.bind_ccs("A", ccs);
  else
    b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  LinkedPlan lp = link_plan(k.plan(), k.query());
  LinkedMac mac = link_mac(k.query(), 1, {2, 3});

  // Reference: serial linked engine.
  const support::MetricsSnapshot ref0 = support::metrics_snapshot();
  RunStats ref_stats;
  LinkedRunner runner(link_plan(k.plan(), k.query()));
  runner.run(mac, &ref_stats);
  const support::MetricsSnapshot ref1 = support::metrics_snapshot();
  auto ref_delta = exec_delta(ref0, ref1);
  auto ref_fanout = fanout_delta(ref0, ref1);
  Vector y_ref = y;

  // The kernel borrows lp and mac; both outlive it here.
  SpecializedKernel spec(lp, mac);
  if (!spec.ok())
    GTEST_SKIP() << "specialization unavailable: " << spec.note();
  EXPECT_NE(spec.source().find("bernoulli_specialized_kernel"),
            std::string::npos);

  std::fill(y.begin(), y.end(), 0.0);
  const support::MetricsSnapshot s0 = support::metrics_snapshot();
  RunStats spec_stats;
  spec.run(&spec_stats);
  const support::MetricsSnapshot s1 = support::metrics_snapshot();
  EXPECT_EQ(ref_delta, exec_delta(s0, s1));
  EXPECT_EQ(ref_fanout, fanout_delta(s0, s1));
  EXPECT_EQ(ref_stats.tuples, spec_stats.tuples);
  ASSERT_EQ(ref_stats.levels.size(), spec_stats.levels.size());
  for (std::size_t d = 0; d < ref_stats.levels.size(); ++d) {
    EXPECT_EQ(ref_stats.levels[d].enumerated, spec_stats.levels[d].enumerated)
        << "level " << d;
    EXPECT_EQ(ref_stats.levels[d].produced, spec_stats.levels[d].produced)
        << "level " << d;
  }
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_ref[i]) << "row " << i;  // bitwise

  // Repeat runs through the cached .so stay stable.
  std::fill(y.begin(), y.end(), 0.0);
  spec.run();
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_ref[i]);
}

TEST(LinkedEmission, CsrRoundTripMatchesLinkedEngine) {
  linked_roundtrip(/*use_ccs=*/false);
}

TEST(LinkedEmission, CcsRoundTripMatchesLinkedEngine) {
  linked_roundtrip(/*use_ccs=*/true);
}

}  // namespace
}  // namespace bernoulli::compiler
