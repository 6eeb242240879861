// The acid test for code generation: the C that CompiledKernel::emit()
// prints is byte for byte the translation unit the specialized rung
// compiles (emit_linked_c → system cc → dlopen), and that unit reproduces
// the serial linked engine under the full observability contract:
// bitwise outputs, identical executor.* counter deltas, identical fan-out
// histogram deltas, identical per-level stats. This is the same
// reconciliation bench_table2_executor --engine=specialized --check
// enforces.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/ccs.hpp"
#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

#include "metrics_delta.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::Csr;
using formats::TripletBuilder;

enum class Input { kCsr, kCcs, kCsrSparseX };

void linked_roundtrip(Input input) {
  const index_t rows = 19, cols = 23;
  SplitMix64 rng(7 + static_cast<std::uint64_t>(input));
  TripletBuilder tb(rows, cols);
  for (int k = 0; k < 110; ++k)
    tb.add(rng.next_index(rows), rng.next_index(cols),
           rng.next_double(-1, 1));
  Coo coo = std::move(tb).build();
  Csr csr = Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);

  Vector x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  formats::SparseVector sx(cols, {{1, 2.0}, {4, -1.5}, {9, 0.5}, {20, 1.25}});
  Vector y(static_cast<std::size_t>(rows), 0.0);

  Bindings b;
  PlannerOptions opts;
  if (input == Input::kCcs)
    b.bind_ccs("A", ccs);
  else
    b.bind_csr("A", csr);
  if (input == Input::kCsrSparseX) {
    // Merge joins are not emitted; force the probing plan.
    b.bind_sparse_vector("X", sx);
    opts.allow_merge = false;
    opts.force_order = std::vector<std::string>{"i", "j"};
  } else {
    b.bind_dense_vector("X", ConstVectorView(x));
  }
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b, opts);

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

  // The kernel borrows lp and mac; both outlive it here. What emit()
  // prints is exactly the unit it compiles.
  SpecializedKernel spec(lp, mac);
  ASSERT_FALSE(spec.source().empty()) << spec.note();
  EXPECT_EQ(k.emit("bernoulli_specialized_kernel"), spec.source());
  if (!spec.ok())
    GTEST_SKIP() << "specialization unavailable: " << spec.note();

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
  linked_roundtrip(Input::kCsr);
}

TEST(LinkedEmission, CcsRoundTripMatchesLinkedEngine) {
  linked_roundtrip(Input::kCcs);
}

TEST(LinkedEmission, SparseXProbeRoundTripMatchesLinkedEngine) {
  linked_roundtrip(Input::kCsrSparseX);
}

}  // namespace
}  // namespace bernoulli::compiler
