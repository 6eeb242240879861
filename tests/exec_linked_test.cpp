// Differential test: the linked cursor engine (compiler/link.hpp +
// exec_linked.cpp) against the reference interpreter
// (execute_interpreted), across every format and plan shape the compiler
// sweep covers plus the merge-join, fill-in (sparse output insert),
// filtering-rejection and permutation paths. The contract is strict:
// bitwise-identical outputs, identical executor.* counter deltas and
// identical per-level enumerated/produced totals.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <stdexcept>

#include "blas/spgemm.hpp"
#include "compiler/explain.hpp"
#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/formats.hpp"
#include "relation/array_views.hpp"
#include "relation/hash_index.hpp"
#include "relation/jds_view.hpp"
#include "relation/spa_view.hpp"
#include "relation/sparse_vector_view.hpp"
#include "support/counters.hpp"
#include "support/histogram.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/rng.hpp"

#include "metrics_delta.hpp"

namespace bernoulli::compiler {
namespace {

using formats::Coo;
using formats::TripletBuilder;
using relation::Query;

Coo random_matrix(index_t rows, index_t cols, index_t nnz,
                  std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return std::move(b).build();
}

struct EngineRun {
  std::map<std::string, long long> deltas;
  RunStats stats;
};

EngineRun run_interpreted(const Plan& plan, const Query& q,
                          const Action& action) {
  EngineRun r;
  auto before = support::metrics_snapshot();
  execute_interpreted(plan, q, action, &r.stats);
  r.deltas = exec_delta(before, support::metrics_snapshot());
  return r;
}

EngineRun run_linked(const Plan& plan, const Query& q, const Action& action) {
  EngineRun r;
  auto before = support::metrics_snapshot();
  LinkedRunner runner(link_plan(plan, q));
  runner.run(action, &r.stats);
  r.deltas = exec_delta(before, support::metrics_snapshot());
  return r;
}

EngineRun run_linked_mac(const Plan& plan, const Query& q, index_t target,
                         const std::vector<index_t>& factors,
                         value_t scale = 1.0) {
  EngineRun r;
  auto before = support::metrics_snapshot();
  LinkedRunner runner(link_plan(plan, q));
  runner.run(link_mac(q, target, factors, scale), &r.stats);
  r.deltas = exec_delta(before, support::metrics_snapshot());
  return r;
}

void expect_same_work(const EngineRun& interp, const EngineRun& linked) {
  EXPECT_EQ(interp.deltas, linked.deltas);
  EXPECT_EQ(interp.stats.tuples, linked.stats.tuples);
  ASSERT_EQ(interp.stats.levels.size(), linked.stats.levels.size());
  for (std::size_t d = 0; d < interp.stats.levels.size(); ++d) {
    EXPECT_EQ(interp.stats.levels[d].enumerated,
              linked.stats.levels[d].enumerated)
        << "level " << d;
    EXPECT_EQ(interp.stats.levels[d].produced, linked.stats.levels[d].produced)
        << "level " << d;
  }
}

// ---- Format sweep: every storage binding of the sweep test ----------

enum class Storage {
  kCsr,
  kCcs,
  kCoo,
  kEll,
  kBsr,
  kSell,
  kDenseMatrix,
  kCsrHashed
};

std::string storage_name(Storage s) {
  switch (s) {
    case Storage::kCsr: return "csr";
    case Storage::kCcs: return "ccs";
    case Storage::kCoo: return "coo";
    case Storage::kEll: return "ell";
    case Storage::kBsr: return "bsr";
    case Storage::kSell: return "sell";
    case Storage::kDenseMatrix: return "dense";
    case Storage::kCsrHashed: return "csr_hashed";
  }
  return "?";
}

// Largest square block size from {4, 2} tiling both dimensions; BCSR
// test shapes that divide neither fall back to 1x1 blocks.
index_t block_for(index_t rows, index_t cols) {
  for (index_t r : {4, 2})
    if (rows % r == 0 && cols % r == 0) return r;
  return 1;
}

struct Case {
  Storage storage;
  index_t rows;
  index_t cols;
  index_t nnz;
  std::uint64_t seed;
};

class LinkedSweep : public ::testing::TestWithParam<Case> {};

TEST_P(LinkedSweep, MatchesInterpreterExactly) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = random_matrix(c.rows, c.cols, c.nnz, c.seed);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  // compile() lays relations out as I=0, target=1, factors in order.
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  EngineRun ir =
      run_interpreted(k.plan(), k.query(),
                      multiply_accumulate(k.query(), target, factors));
  Vector y_interp = y;

  std::fill(y.begin(), y.end(), 0.0);
  EngineRun lr = run_linked_mac(k.plan(), k.query(), target, factors);
  expect_same_work(ir, lr);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_interp[i]) << "row " << i;  // bitwise

  // The Action-sink path of the linked engine must agree as well.
  std::fill(y.begin(), y.end(), 0.0);
  EngineRun la = run_linked(k.plan(), k.query(),
                            multiply_accumulate(k.query(), target, factors));
  expect_same_work(ir, la);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 900;
  for (Storage s : {Storage::kCsr, Storage::kCcs, Storage::kCoo,
                    Storage::kEll, Storage::kBsr, Storage::kSell,
                    Storage::kDenseMatrix, Storage::kCsrHashed}) {
    cases.push_back({s, 1, 1, 1, seed++});
    cases.push_back({s, 10, 14, 40, seed++});
    cases.push_back({s, 14, 10, 40, seed++});
    cases.push_back({s, 32, 32, 64, seed++});   // sparse, empty rows
    cases.push_back({s, 24, 24, 400, seed++});  // dense-ish, duplicates
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStorages, LinkedSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           const Case& c = info.param;
                           std::ostringstream os;
                           os << storage_name(c.storage) << "_" << c.rows
                              << "x" << c.cols << "_nnz" << c.nnz;
                           return os.str();
                         });

// ---- Merge join (sparse A |><| sparse X), both planner modes --------

TEST(LinkedExec, MergeJoinAndProbeFallbackMatch) {
  Coo a = random_matrix(60, 60, 500, 21);
  formats::Csr csr = formats::Csr::from_coo(a);
  formats::SparseVector x(
      60, {{1, 1.0}, {5, -2.0}, {12, 0.25}, {30, 3.0}, {59, -1.0}});
  Vector y(60, 0.0);

  for (bool allow_merge : {true, false}) {
    Bindings b;
    b.bind_csr("A", csr);
    b.bind_sparse_vector("X", x);
    b.bind_dense_vector("Y", VectorView(y));
    LoopNest nest{{{"i", 60}, {"j", 60}},
                  {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
    PlannerOptions opts;
    opts.allow_merge = allow_merge;
    CompiledKernel k = compile(nest, b, opts);

    std::fill(y.begin(), y.end(), 0.0);
    EngineRun ir = run_interpreted(
        k.plan(), k.query(), multiply_accumulate(k.query(), 1, {2, 3}));
    Vector y_interp = y;

    std::fill(y.begin(), y.end(), 0.0);
    EngineRun lr = run_linked_mac(k.plan(), k.query(), 1, {2, 3});
    expect_same_work(ir, lr);
    if (allow_merge) {
      EXPECT_GT(lr.deltas["executor.merge_steps"], 0);
      EXPECT_GT(lr.deltas["executor.merge_segment_bytes"], 0);
    } else {
      // Index-nested-loop mode: X is probed and rejects most columns.
      EXPECT_GT(lr.deltas["executor.probe_misses"], 0);
    }
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
  }
}

// ---- Sparse-output fill-in: SpGEMM into a SPA -----------------------

TEST(LinkedExec, SpgemmFillInMatches) {
  Coo a = random_matrix(14, 18, 60, 22);
  Coo bm = random_matrix(18, 11, 55, 23);
  formats::Csr acsr = formats::Csr::from_coo(a);
  formats::Csr bcsr = formats::Csr::from_coo(bm);
  relation::CsrView aview("A", acsr);
  relation::CsrView bview("B", bcsr);
  relation::IntervalView iview("I", {14, 18, 11});

  auto make_query = [&](relation::SpaView& c) {
    Query q;
    q.vars = {"i", "k", "j"};
    q.relations.push_back({&iview, {"i", "k", "j"}, true, false, true});
    q.relations.push_back({&aview, {"i", "k"}, true, false, false});
    q.relations.push_back({&bview, {"k", "j"}, true, false, false});
    q.relations.push_back({&c, {"i", "j"}, false, true, false});
    return q;
  };

  // Fresh SPA per engine so every insert happens in both runs.
  relation::SpaView c_interp("C", 14, 11);
  Query q_interp = make_query(c_interp);
  Plan plan = plan_query(q_interp);
  EngineRun ir = run_interpreted(plan, q_interp,
                                 multiply_accumulate(q_interp, 3, {1, 2}));

  relation::SpaView c_linked("C", 14, 11);
  Query q_linked = make_query(c_linked);
  EngineRun lr = run_linked_mac(plan, q_linked, 3, {1, 2});

  expect_same_work(ir, lr);
  EXPECT_GT(lr.deltas["executor.fill_ins"], 0);
  EXPECT_EQ(c_interp.harvest(), c_linked.harvest());  // structure + values
  EXPECT_EQ(c_linked.harvest(), blas::spgemm(acsr, bcsr).to_coo());
}

// ---- Permutation relation (JDS, paper Eq. 6) ------------------------

TEST(LinkedExec, JdsPermutationMatvecMatches) {
  const index_t n = 20;
  Coo coo = random_matrix(n, n, 90, 24);
  formats::Jds jds = formats::Jds::from_coo(coo);

  SplitMix64 rng(25);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(n), 0.0);

  relation::JdsView aview("Ap", jds);
  relation::PermutationView pview("P", aview.original_to_permuted());
  relation::IntervalView iview("I", {n, n});
  relation::DenseVectorView xview("X", ConstVectorView(x));
  relation::DenseVectorView yview("Y", VectorView(y));

  Query q;
  q.vars = {"i", "ip", "j"};
  q.relations.push_back({&iview, {"i", "j"}, true, false, true});
  q.relations.push_back({&pview, {"i", "ip"}, true, false, false});
  q.relations.push_back({&aview, {"ip", "j"}, true, false, false});
  q.relations.push_back({&xview, {"j"}, false, false, false});
  q.relations.push_back({&yview, {"i"}, false, true, false});
  Plan plan = plan_query(q);

  EngineRun ir =
      run_interpreted(plan, q, multiply_accumulate(q, 4, {2, 3}));
  Vector y_interp = y;

  std::fill(y.begin(), y.end(), 0.0);
  EngineRun lr = run_linked_mac(plan, q, 4, {2, 3});
  expect_same_work(ir, lr);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

// ---- Runner reuse: repeated runs of one LinkedRunner ----------------

TEST(LinkedExec, RunnerReuseKeepsCountsStable) {
  Coo a = random_matrix(32, 32, 128, 26);
  formats::Csr csr = formats::Csr::from_coo(a);
  Vector x(32, 1.0), y(32, 0.0);

  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 32}, {"j", 32}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  LinkedRunner runner(link_plan(k.plan(), k.query()));
  LinkedMac mac = link_mac(k.query(), 1, {2, 3});
  EngineRun first;
  {
    auto before = support::metrics_snapshot();
    runner.run(mac, &first.stats);
    first.deltas = exec_delta(before, support::metrics_snapshot());
  }
  Vector y_first = y;
  for (int rep = 0; rep < 3; ++rep) {
    std::fill(y.begin(), y.end(), 0.0);
    EngineRun again;
    auto before = support::metrics_snapshot();
    runner.run(mac, &again.stats);
    again.deltas = exec_delta(before, support::metrics_snapshot());
    expect_same_work(first, again);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_first[i]);
  }
}

// ---- Parallel execution: ParallelRunner vs the interpreter ----------

class ParallelSweep : public ::testing::TestWithParam<Case> {};

// The contract extends to threads: for every storage and every thread
// count, ParallelRunner must reproduce the interpreter bitwise — outputs,
// merged executor.* counter deltas, merged fan-out histogram deltas and
// per-level stats. Plans the legality check rejects (e.g. CCS's
// column-outer order writing row-indexed Y) exercise the serial fallback
// through the very same assertions.
TEST_P(ParallelSweep, MatchesInterpreterForAllThreadCounts) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = random_matrix(c.rows, c.cols, c.nnz, c.seed);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  auto hist_before = support::metrics_snapshot();
  EngineRun ir =
      run_interpreted(k.plan(), k.query(),
                      multiply_accumulate(k.query(), target, factors));
  auto ir_fanout = fanout_delta(hist_before, support::metrics_snapshot());
  Vector y_interp = y;

  for (int threads : {1, 2, 4, 8}) {
    std::fill(y.begin(), y.end(), 0.0);
    const support::MetricsSnapshot before = support::metrics_snapshot();
    ParallelRunner runner(link_plan(k.plan(), k.query()), threads);
    EngineRun pr;
    runner.run(link_mac(k.query(), target, factors), &pr.stats);
    const support::MetricsSnapshot after = support::metrics_snapshot();
    pr.deltas = exec_delta(before, after);
    expect_same_work(ir, pr);
    EXPECT_EQ(ir_fanout, fanout_delta(before, after)) << "threads=" << threads;
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], y_interp[i]) << "threads=" << threads << " row " << i;
  }

  // The Action-sink path fans out too (distinct outer bindings only, so a
  // concurrently-invoked accumulate into disjoint rows is safe).
  std::fill(y.begin(), y.end(), 0.0);
  auto before = support::metrics_snapshot();
  ParallelRunner runner(link_plan(k.plan(), k.query()), 4);
  EngineRun pa;
  runner.run(multiply_accumulate(k.query(), target, factors), &pa.stats);
  pa.deltas = exec_delta(before, support::metrics_snapshot());
  expect_same_work(ir, pa);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

INSTANTIATE_TEST_SUITE_P(AllStorages, ParallelSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           const Case& c = info.param;
                           std::ostringstream os;
                           os << storage_name(c.storage) << "_" << c.rows
                              << "x" << c.cols << "_nnz" << c.nnz;
                           return os.str();
                         });

// ---- Bulk leaf-range drains: fused loop vs per-tuple callbacks ------

// The bulk path (set_bulk_drain(true), the default) streams a contiguous
// leaf range into the accumulate as one fused loop. The contract is the
// same as everywhere else in this file: against the per-tuple path it
// must be bitwise-identical in outputs AND indistinguishable in every
// observable — executor.* counter deltas, fan-out histogram deltas and
// per-level enumerated/produced totals, because the bulk booking settles
// probe hits from the enumerated index range instead of per element.
class BulkDrainSweep : public ::testing::TestWithParam<Case> {};

TEST_P(BulkDrainSweep, BulkPathIndistinguishableFromPerTuple) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = random_matrix(c.rows, c.cols, c.nnz, c.seed);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  // Reference: per-tuple callbacks, bulk drains disabled.
  set_bulk_drain(false);
  auto hb_slow = support::metrics_snapshot();
  EngineRun slow = run_linked_mac(k.plan(), k.query(), target, factors);
  auto slow_fanout =
      fanout_delta(hb_slow, support::metrics_snapshot());
  Vector y_slow = y;

  // Bulk drains back on (the process default) before any assertion can
  // bail out of the test body.
  set_bulk_drain(true);
  std::fill(y.begin(), y.end(), 0.0);
  auto hb_fast = support::metrics_snapshot();
  EngineRun fast = run_linked_mac(k.plan(), k.query(), target, factors);
  expect_same_work(slow, fast);
  EXPECT_EQ(slow_fanout,
            fanout_delta(hb_fast, support::metrics_snapshot()));
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_slow[i]) << "row " << i;  // bitwise
}

INSTANTIATE_TEST_SUITE_P(AllStorages, BulkDrainSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           const Case& c = info.param;
                           std::ostringstream os;
                           os << storage_name(c.storage) << "_" << c.rows
                              << "x" << c.cols << "_nnz" << c.nnz;
                           return os.str();
                         });

// ---- Profiling is a pure observer -----------------------------------

// Turning the per-level profiler on (support/profile.hpp) must not
// perturb a single observable of the linked engine: outputs stay
// bitwise-identical and executor.* counter deltas, fan-out histogram
// deltas and per-level enumerated/produced totals are unchanged — the
// profiler writes only to its own scratch, never to the run's state.
class ProfilingSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ProfilingSweep, ProfiledRunIndistinguishableFromUnprofiled) {
  const Case& c = GetParam();
  SplitMix64 rng(c.seed);
  Coo coo = random_matrix(c.rows, c.cols, c.nnz, c.seed);

  Vector x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(c.rows), 0.0);

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Ccs ccs = formats::Ccs::from_coo(coo);
  formats::Ell ell = formats::Ell::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, block_for(c.rows, c.cols));
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  formats::Dense dm = formats::Dense::from_coo(coo);
  relation::CsrView csr_base("A", csr);
  relation::HashIndexedView hashed(csr_base, 1);

  Bindings b;
  switch (c.storage) {
    case Storage::kCsr: b.bind_csr("A", csr); break;
    case Storage::kCcs: b.bind_ccs("A", ccs); break;
    case Storage::kCoo: b.bind_coo("A", coo); break;
    case Storage::kEll: b.bind_ell("A", ell); break;
    case Storage::kBsr: b.bind_bsr("A", bsr); break;
    case Storage::kSell: b.bind_sell("A", sell); break;
    case Storage::kDenseMatrix: b.bind_dense_matrix("A", dm); break;
    case Storage::kCsrHashed:
      b.bind_view("A", &hashed, {0, 1}, /*sparse=*/true);
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));

  LoopNest nest{{{"i", c.rows}, {"j", c.cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  // Reference: profiling off (the process default).
  auto hb_plain = support::metrics_snapshot();
  EngineRun plain = run_linked_mac(k.plan(), k.query(), target, factors);
  auto plain_fanout =
      fanout_delta(hb_plain, support::metrics_snapshot());
  Vector y_plain = y;

  // Profiling on — restored before any assertion can bail out of the
  // test body.
  support::set_profiling(true);
  std::fill(y.begin(), y.end(), 0.0);
  auto hb_prof = support::metrics_snapshot();
  EngineRun prof = run_linked_mac(k.plan(), k.query(), target, factors);
  const auto prof_fanout = fanout_delta(hb_prof, support::metrics_snapshot());
  support::set_profiling(false);
  support::metrics_reset();

  expect_same_work(plain, prof);
  EXPECT_EQ(plain_fanout, prof_fanout);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], y_plain[i]) << "row " << i;  // bitwise
}

INSTANTIATE_TEST_SUITE_P(AllStorages, ProfilingSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           const Case& c = info.param;
                           std::ostringstream os;
                           os << storage_name(c.storage) << "_" << c.rows
                              << "x" << c.cols << "_nnz" << c.nnz;
                           return os.str();
                         });

// ---- Fused two-level drain vs the per-row path ----------------------

// Dense rows over a compressed, blocked or sliced leaf run as one loop
// nest (try_fused). Against the per-row path (set_bulk_drain(false)) it
// must be bitwise-identical in outputs and indistinguishable in executor.*
// deltas, fan-out histograms and RunStats, serially and on 1-4 threads.
// The profile tells the two paths apart, so a silent fallback fails the
// test: the per-row path brackets level 0 on a fresh runner's first outer
// binding, while the fused drain books no level-0 sample and one level-1
// interval per invocation under its leaf's drain kind.
enum class Leaf { kCsr, kBcsr, kSell };

struct FusedCase {
  std::string name;
  Leaf leaf;
  index_t rows;  // loop extent of i; BCSR stores it rounded up to 4
  index_t cols;
  index_t nnz;
  value_t scale;
  bool alias;  // Y aliases X: the register-cached target must decline
  std::uint64_t seed;
};

struct FusedRun {
  Vector out;
  EngineRun run;
  std::map<std::string, std::vector<long long>> fanout;
  long long level0_samples = 0;
  long long fused_samples = 0;
};

class FusedDrain : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedDrain, MatchesPerRowPathOnEveryThreadCount) {
  const FusedCase& fc = GetParam();
  const index_t srows =
      fc.leaf == Leaf::kBcsr ? (fc.rows + 3) / 4 * 4 : fc.rows;
  const index_t scols =
      fc.leaf == Leaf::kBcsr ? (fc.cols + 3) / 4 * 4 : fc.cols;
  Coo coo = random_matrix(srows, scols, fc.nnz, fc.seed);
  formats::Csr csr;
  formats::Bsr bsr;
  formats::Sell sell;

  SplitMix64 rng(fc.seed);
  Vector x0(static_cast<std::size_t>(scols));
  for (auto& v : x0) v = rng.next_double(-1, 1);
  Vector x = x0;
  Vector y(static_cast<std::size_t>(fc.rows), 0.0);
  Vector& out = fc.alias ? x : y;

  Bindings b;
  int kind = support::kProfBulk;
  switch (fc.leaf) {
    case Leaf::kCsr:
      csr = formats::Csr::from_coo(coo);
      b.bind_csr("A", csr);
      break;
    case Leaf::kBcsr:
      bsr = formats::Bsr::from_coo(coo, 4);
      b.bind_bsr("A", bsr);
      kind = support::kProfBlocked;
      break;
    case Leaf::kSell:
      sell = formats::Sell::from_coo(coo, 4, 8);
      b.bind_sell("A", sell);
      kind = support::kProfSliced;
      break;
  }
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(out));
  LoopNest nest{{{"i", fc.rows}, {"j", scols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, fc.scale}};
  CompiledKernel k = compile(nest, b);
  const LinkedMac mac = link_mac(k.query(), 1, {2, 3}, fc.scale);

  // threads == 0: a serial LinkedRunner; otherwise a ParallelRunner.
  auto run_once = [&](bool bulk, int threads) {
    x = x0;
    std::fill(y.begin(), y.end(), 0.0);
    set_bulk_drain(bulk);
    support::metrics_reset();
    support::set_profiling(true);
    FusedRun fr;
    const support::MetricsSnapshot before = support::metrics_snapshot();
    if (threads == 0) {
      LinkedRunner(link_plan(k.plan(), k.query())).run(mac, &fr.run.stats);
    } else {
      ParallelRunner(link_plan(k.plan(), k.query()), threads)
          .run(mac, &fr.run.stats);
    }
    const support::MetricsSnapshot after = support::metrics_snapshot();
    support::set_profiling(false);
    set_bulk_drain(true);
    fr.out = out;
    fr.run.deltas = exec_delta(before, after);
    fr.fanout = fanout_delta(before, after);
    for (int kd = 0; kd < support::kProfKinds; ++kd)
      fr.level0_samples += after.profile.samples[0][kd];
    fr.fused_samples = after.profile.samples[1][kind];
    return fr;
  };

  const FusedRun ref = run_once(/*bulk=*/false, 0);
  EXPECT_GT(ref.level0_samples, 0) << "the per-row path went undetected";
  std::vector<int> thread_counts{0};
  if (!fc.alias) thread_counts.insert(thread_counts.end(), {1, 2, 3, 4});
  for (bool bulk : {false, true}) {
    for (int threads : thread_counts) {
      const FusedRun fr = run_once(bulk, threads);
      SCOPED_TRACE("bulk=" + std::to_string(bulk) +
                   " threads=" + std::to_string(threads));
      expect_same_work(ref.run, fr.run);
      EXPECT_EQ(ref.fanout, fr.fanout);
      for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(fr.out[i], ref.out[i]) << "row " << i;  // bitwise
      if (bulk && !fc.alias) {
        EXPECT_EQ(fr.level0_samples, 0) << "fused drain did not engage";
        EXPECT_GE(fr.fused_samples, 1) << "fused drain did not engage";
      } else {
        EXPECT_GT(fr.level0_samples, 0) << "expected the per-row path";
      }
    }
  }
  support::metrics_reset();
}

std::vector<FusedCase> make_fused_cases() {
  std::vector<FusedCase> cases;
  std::uint64_t seed = 1600;
  for (Leaf leaf : {Leaf::kCsr, Leaf::kBcsr, Leaf::kSell}) {
    const std::string f = leaf == Leaf::kCsr    ? "csr"
                          : leaf == Leaf::kBcsr ? "bcsr"
                                                : "sell";
    // Sparse enough that the planner drives level 1 from A's leaf (a
    // nearly full BCSR block row would lose to the dense iteration space).
    cases.push_back({f + "_empty_rows", leaf, 40, 40, 25, 1.0, false, seed++});
    cases.push_back({f + "_single_row", leaf, 1, 12, 6, 1.0, false, seed++});
    cases.push_back({f + "_wide", leaf, 16, 40, 30, 1.0, false, seed++});
    cases.push_back({f + "_tall", leaf, 40, 16, 30, 1.0, false, seed++});
    cases.push_back({f + "_scaled", leaf, 32, 32, 60, -2.5, false, seed++});
    cases.push_back({f + "_y_aliases_x", leaf, 32, 32, 60, 1.0, true,
                     seed++});
  }
  // BCSR whose loop extent ends inside a block row; SELL whose tail
  // window holds fewer than sigma = 8 rows (and a partial C = 4 chunk).
  cases.push_back({"bcsr_partial_block_row", Leaf::kBcsr, 30, 32, 40, 1.0,
                   false, seed++});
  cases.push_back({"sell_short_tail_window", Leaf::kSell, 21, 24, 60, 1.0,
                   false, seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Leaves, FusedDrain,
                         ::testing::ValuesIn(make_fused_cases()),
                         [](const ::testing::TestParamInfo<FusedCase>& info) {
                           return info.param.name;
                         });

// ---- BCSR and SELL-C-sigma vs the CRS reference, every rung ---------

// The acceptance contract for the blocked/sliced level kinds: the same
// matvec through BCSR or SELL storage must reproduce the CRS reference
// bitwise at every rung of the engine ladder — interpreted, linked
// (bulk drains on, the default), linked + threads, and specialized
// (dlopen) whenever a toolchain is available. Beyond bitwise outputs
// the SELL case also pins the observables to CRS's: SELL enumerates
// exactly nnz entries on ANY matrix (padding lanes sit beyond every
// row's ROWLEN and are never enumerated), so its executor.* counter
// deltas, fan-out histogram deltas and per-level stats are equal to the
// CRS run's, not merely internally consistent. BCSR is bitwise-equal to
// CRS only when no block-fill zeros exist (ascending block columns then
// enumerate the very same (j, value) sequence), so its matrix here is
// block-dense by construction.

struct RungRef {
  Vector y;                                             // bitwise reference
  EngineRun linked;                                     // serial linked run
  std::map<std::string, std::vector<long long>> fanout; // its fan-out delta
};

// Compiles the canonical i,j matvec over `b` and drives it through all
// four rungs, asserting every rung reproduces `y_ref` bitwise (when
// y_ref is null the serial linked run defines the reference). Returns
// the serial linked observables for cross-format comparison.
RungRef drive_all_rungs(Bindings& b, index_t rows, index_t cols, Vector& y,
                        const Vector* y_ref, const std::string& label) {
  LoopNest nest{{{"i", rows}, {"j", cols}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const index_t target = 1;
  const std::vector<index_t> factors{2, 3};

  // Serial linked rung (bulk drains on) — the rung whose observables we
  // hand back, and the in-test reference when none was supplied.
  std::fill(y.begin(), y.end(), 0.0);
  auto hb = support::metrics_snapshot();
  RungRef ref;
  ref.linked = run_linked_mac(k.plan(), k.query(), target, factors);
  ref.fanout = fanout_delta(hb, support::metrics_snapshot());
  ref.y = y;
  const Vector& want = y_ref ? *y_ref : ref.y;
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], want[i]) << label << " linked row " << i;

  // Interpreted rung: bitwise outputs and identical work accounting.
  std::fill(y.begin(), y.end(), 0.0);
  EngineRun ir =
      run_interpreted(k.plan(), k.query(),
                      multiply_accumulate(k.query(), target, factors));
  expect_same_work(ir, ref.linked);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], want[i]) << label << " interpreted row " << i;

  // Threaded rung (exercises the block-aligned chunk grid for BCSR).
  for (int threads : {2, 4}) {
    std::fill(y.begin(), y.end(), 0.0);
    const support::MetricsSnapshot t0 = support::metrics_snapshot();
    ParallelRunner runner(link_plan(k.plan(), k.query()), threads);
    EngineRun pr;
    runner.run(link_mac(k.query(), target, factors), &pr.stats);
    const support::MetricsSnapshot t1 = support::metrics_snapshot();
    pr.deltas = exec_delta(t0, t1);
    expect_same_work(ref.linked, pr);
    EXPECT_EQ(ref.fanout, fanout_delta(t0, t1))
        << label << " threads=" << threads;
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], want[i])
          << label << " threads=" << threads << " row " << i;
  }

  // Specialized rung — emitted C through the system toolchain. Skipping
  // silently (rather than GTEST_SKIP) keeps the other rungs' assertions
  // meaningful on toolchain-less machines.
  LinkedPlan lp = link_plan(k.plan(), k.query());
  LinkedMac mac = link_mac(k.query(), target, factors);
  SpecializedKernel spec(lp, mac);
  if (spec.ok()) {
    std::fill(y.begin(), y.end(), 0.0);
    const support::MetricsSnapshot s0 = support::metrics_snapshot();
    EngineRun sr;
    spec.run(&sr.stats);
    const support::MetricsSnapshot s1 = support::metrics_snapshot();
    sr.deltas = exec_delta(s0, s1);
    expect_same_work(ref.linked, sr);
    EXPECT_EQ(ref.fanout, fanout_delta(s0, s1)) << label << " specialized";
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], want[i]) << label << " specialized row " << i;
  }
  return ref;
}

TEST(BlockedSliced, SellMatchesCsrOnSkewedRowsAcrossAllRungs) {
  // Skewed row lengths: every 8th row is long, the rest short, so C=4
  // chunks mix lengths and SELL must pad heavily. Column step 5 is
  // coprime to cols, so each row's entries are distinct (no duplicate
  // merging changing the lengths).
  const index_t rows = 20, cols = 24;
  SplitMix64 rng(77);
  TripletBuilder tb(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = (i % 8 == 0) ? 20 : 1 + i % 4;
    for (index_t k = 0; k < len; ++k)
      tb.add(i, (i + k * 5) % cols, rng.next_double(-1, 1));
  }
  Coo coo = std::move(tb).build();

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Sell sell = formats::Sell::from_coo(coo, 4, 8);
  ASSERT_GT(sell.stored(), sell.nnz()) << "case must exercise padding";

  Vector x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(rows), 0.0);

  Bindings bc;
  bc.bind_csr("A", csr);
  bc.bind_dense_vector("X", ConstVectorView(x));
  bc.bind_dense_vector("Y", VectorView(y));
  RungRef csr_ref = drive_all_rungs(bc, rows, cols, y, nullptr, "csr");

  Bindings bs;
  bs.bind_sell("A", sell);
  bs.bind_dense_vector("X", ConstVectorView(x));
  bs.bind_dense_vector("Y", VectorView(y));
  RungRef sell_ref = drive_all_rungs(bs, rows, cols, y, &csr_ref.y, "sell");

  // Padding never books: SELL's observables equal CRS's exactly.
  EXPECT_EQ(csr_ref.linked.deltas, sell_ref.linked.deltas);
  EXPECT_EQ(csr_ref.fanout, sell_ref.fanout);
  EXPECT_EQ(csr_ref.linked.stats.tuples, sell_ref.linked.stats.tuples);
  ASSERT_EQ(csr_ref.linked.stats.levels.size(),
            sell_ref.linked.stats.levels.size());
  for (std::size_t d = 0; d < csr_ref.linked.stats.levels.size(); ++d) {
    EXPECT_EQ(csr_ref.linked.stats.levels[d].enumerated,
              sell_ref.linked.stats.levels[d].enumerated) << "level " << d;
    EXPECT_EQ(csr_ref.linked.stats.levels[d].produced,
              sell_ref.linked.stats.levels[d].produced) << "level " << d;
  }
}

TEST(BlockedSliced, BcsrMatchesCsrOnBlockDenseAcrossAllRungs) {
  // Block-dense 16x16 with 4x4 blocks: every stored block is full, so
  // BCSR introduces no fill zeros and enumerates the same (j, value)
  // sequence as CSR — the bitwise-equality precondition.
  const index_t n = 16, blk = 4;
  const index_t bpos[][2] = {{0, 0}, {0, 2}, {1, 1}, {1, 3},
                             {2, 0}, {2, 2}, {3, 1}, {3, 3}};
  SplitMix64 rng(91);
  TripletBuilder tb(n, n);
  for (const auto& bp : bpos)
    for (index_t r = 0; r < blk; ++r)
      for (index_t c = 0; c < blk; ++c)
        tb.add(bp[0] * blk + r, bp[1] * blk + c,
               (rng.next_double(0.0, 1.0) + 0.0625) *
                   ((r + c) % 2 ? -1.0 : 1.0));
  Coo coo = std::move(tb).build();

  formats::Csr csr = formats::Csr::from_coo(coo);
  formats::Bsr bsr = formats::Bsr::from_coo(coo, blk);
  ASSERT_EQ(bsr.stored(), csr.nnz()) << "matrix must be block-dense";

  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(n), 0.0);

  Bindings bc;
  bc.bind_csr("A", csr);
  bc.bind_dense_vector("X", ConstVectorView(x));
  bc.bind_dense_vector("Y", VectorView(y));
  RungRef csr_ref = drive_all_rungs(bc, n, n, y, nullptr, "csr");

  Bindings bb;
  bb.bind_bsr("A", bsr);
  bb.bind_dense_vector("X", ConstVectorView(x));
  bb.bind_dense_vector("Y", VectorView(y));
  RungRef bsr_ref = drive_all_rungs(bb, n, n, y, &csr_ref.y, "bsr");

  // No fill, so even the work accounting matches scalar CRS.
  EXPECT_EQ(csr_ref.linked.deltas, bsr_ref.linked.deltas);
  EXPECT_EQ(csr_ref.fanout, bsr_ref.fanout);
  EXPECT_EQ(csr_ref.linked.stats.tuples, bsr_ref.linked.stats.tuples);

  // The threaded rung above ran on a block-aligned chunk grid.
  LoopNest nest{{{"i", n}, {"j", n}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, bb);
  EXPECT_EQ(link_plan(k.plan(), k.query()).chunk_align, blk);
}

// A row-major matvec plan must actually fan out, and the merge-join test
// above (merge at the INNER level) stays legal — only an outer merge is
// disqualifying.
TEST(ParallelExec, CsrMatvecIsParallelLegal) {
  Coo coo = random_matrix(40, 40, 200, 31);
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(40, 1.0), y(40, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 40}, {"j", 40}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  LinkedPlan lp = link_plan(k.plan(), k.query());
  EXPECT_TRUE(lp.parallel_ok) << lp.parallel_note;
  ParallelRunner runner(std::move(lp), 4);
  EXPECT_TRUE(runner.parallel());
  EXPECT_EQ(runner.threads(), 4);
  EXPECT_NE(k.explain().find("parallel: outer level i chunked"),
            std::string::npos);
}

// An outer-level merge join cannot be chunked (splitting the k-finger
// sweep would change merge_steps): two sparse filtering drivers on the
// single loop variable force an outer merge, which must fall back.
TEST(ParallelExec, OuterMergeJoinFallsBackToSerial) {
  const index_t n = 50;
  formats::SparseVector x1(
      n, {{2, 1.0}, {7, 2.0}, {19, -1.0}, {23, 0.5}, {41, 3.0}});
  formats::SparseVector x2(n, {{7, 4.0}, {19, 0.25}, {23, -2.0}, {48, 1.0}});
  Vector y(static_cast<std::size_t>(n), 0.0);

  relation::IntervalView iview("I", {n});
  relation::SparseVectorView v1("X1", x1);
  relation::SparseVectorView v2("X2", x2);
  relation::DenseVectorView yview("Y", VectorView(y));

  Query q;
  q.vars = {"i"};
  q.relations.push_back({&iview, {"i"}, true, false, true});
  q.relations.push_back({&v1, {"i"}, true, false, false});
  q.relations.push_back({&v2, {"i"}, true, false, false});
  q.relations.push_back({&yview, {"i"}, false, true, false});
  Plan plan = plan_query(q);
  ASSERT_EQ(plan.levels[0].method, JoinMethod::kMerge);

  LinkedPlan lp = link_plan(plan, q);
  EXPECT_FALSE(lp.parallel_ok);
  EXPECT_NE(lp.parallel_note.find("merge join"), std::string::npos)
      << lp.parallel_note;
  EXPECT_NE(explain(plan, q).find("serial fallback"), std::string::npos);

  // The fallback still runs — and matches the interpreter exactly.
  EngineRun ir =
      run_interpreted(plan, q, multiply_accumulate(q, 3, {1, 2}));
  Vector y_interp = y;
  std::fill(y.begin(), y.end(), 0.0);
  auto before = support::metrics_snapshot();
  ParallelRunner runner(link_plan(plan, q), 8);
  EXPECT_FALSE(runner.parallel());
  EngineRun pr;
  runner.run(multiply_accumulate(q, 3, {1, 2}), &pr.stats);
  pr.deltas = exec_delta(before, support::metrics_snapshot());
  expect_same_work(ir, pr);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_interp[i]);
}

// Sparse-output fill-in grows shared storage mid-run: the SpGEMM plan
// must refuse to fan out, and the fallback must still insert correctly.
// (The SPA trips the legality scan at its first unsafe access — its row
// level is probed through a stateful virtual search; the insert-on-miss
// rule backs that up one level deeper — so the note names the output.)
TEST(ParallelExec, FillInFallsBackToSerial) {
  Coo a = random_matrix(14, 18, 60, 22);
  Coo bm = random_matrix(18, 11, 55, 23);
  formats::Csr acsr = formats::Csr::from_coo(a);
  formats::Csr bcsr = formats::Csr::from_coo(bm);
  relation::CsrView aview("A", acsr);
  relation::CsrView bview("B", bcsr);
  relation::IntervalView iview("I", {14, 18, 11});
  relation::SpaView cview("C", 14, 11);

  Query q;
  q.vars = {"i", "k", "j"};
  q.relations.push_back({&iview, {"i", "k", "j"}, true, false, true});
  q.relations.push_back({&aview, {"i", "k"}, true, false, false});
  q.relations.push_back({&bview, {"k", "j"}, true, false, false});
  q.relations.push_back({&cview, {"i", "j"}, false, true, false});
  Plan plan = plan_query(q);

  LinkedPlan lp = link_plan(plan, q);
  EXPECT_FALSE(lp.parallel_ok);
  EXPECT_NE(lp.parallel_note.find("C "), std::string::npos)
      << lp.parallel_note;
  EXPECT_NE(explain(plan, q).find("serial fallback"), std::string::npos);

  ParallelRunner runner(std::move(lp), 4);
  EXPECT_FALSE(runner.parallel());
  runner.run(link_mac(q, 3, {1, 2}));
  EXPECT_EQ(cview.harvest(), blas::spgemm(acsr, bcsr).to_coo());
}

// ---- Run booking: a run that throws books nothing --------------------

// Every engine books a run only once it completed (commit_run): an action
// that throws mid-run leaves every executor.* counter and the latency
// histogram untouched, so executor.runs and the execute.latency count
// stay equal. A later clean run of the same runner then books exactly
// what a fresh engine books — no half-filled delta leaks forward.
TEST(RunBooking, ThrowingActionBooksNothingOnEveryEngine) {
  Coo coo = random_matrix(80, 80, 500, 37);
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(80, 1.0), y(80, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 80}, {"j", 80}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);
  const Plan& plan = k.plan();
  const Query& q = k.query();

  std::atomic<int> calls{0};
  const Action boom = [&](const Env&) {
    if (calls.fetch_add(1) >= 50) throw std::runtime_error("boom");
  };
  support::LatencyHistogram& latency =
      support::metric_latency("execute.latency");
  auto expect_nothing_booked = [&](const char* engine,
                                   const std::function<void()>& run) {
    calls = 0;
    const auto before = support::metrics_snapshot();
    const long long samples0 = latency.snapshot().count;
    EXPECT_THROW(run(), std::runtime_error) << engine;
    const auto d = exec_delta(before, support::metrics_snapshot());
    const auto runs = d.find("executor.runs");
    EXPECT_EQ(runs == d.end() ? 0 : runs->second,
              latency.snapshot().count - samples0)
        << engine;
    EXPECT_TRUE(d.empty()) << engine;
  };

  LinkedRunner linked(link_plan(plan, q));
  ParallelRunner threaded(link_plan(plan, q), 4);
  ASSERT_TRUE(threaded.parallel());
  expect_nothing_booked("interpreted",
                        [&] { execute_interpreted(plan, q, boom); });
  expect_nothing_booked("linked", [&] { linked.run(boom); });
  expect_nothing_booked("threaded", [&] { threaded.run(boom); });

  const Action noop = [](const Env&) {};
  auto hist = support::metrics_snapshot();
  const EngineRun ref = run_interpreted(plan, q, noop);
  const auto ref_fanout = fanout_delta(hist, support::metrics_snapshot());
  EXPECT_EQ(ref.deltas.at("executor.runs"), 1);
  auto expect_clean_run = [&](const char* engine,
                              const std::function<void()>& run) {
    const support::MetricsSnapshot before = support::metrics_snapshot();
    run();
    const support::MetricsSnapshot after = support::metrics_snapshot();
    EXPECT_EQ(exec_delta(before, after), ref.deltas) << engine;
    EXPECT_EQ(fanout_delta(before, after), ref_fanout) << engine;
  };
  expect_clean_run("linked", [&] { linked.run(noop); });
  expect_clean_run("threaded", [&] { threaded.run(noop); });
}

// ---- CompiledKernel copy/move keeps the pre-linked program ----------

// Copies and moves share the kernel's linked program, and a
// moved-from-then-reassigned kernel must behave exactly like the
// original: same output, same executor.* deltas, and no observable
// re-link on first use.
TEST(CompiledKernelCache, CopyAndMoveKeepLinkedProgram) {
  Coo coo = random_matrix(24, 24, 100, 33);
  formats::Csr csr = formats::Csr::from_coo(coo);
  Vector x(24, 1.0), y(24, 0.0);
  Bindings b;
  b.bind_csr("A", csr);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  LoopNest nest{{{"i", 24}, {"j", 24}},
                {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
  CompiledKernel k = compile(nest, b);

  // Reference run (also builds the cache the copies must re-establish).
  std::fill(y.begin(), y.end(), 0.0);
  auto before = support::metrics_snapshot();
  k.run();
  auto ref_delta = exec_delta(before, support::metrics_snapshot());
  Vector y_ref = y;

  auto run_and_compare = [&](const CompiledKernel& kk, const char* label) {
    std::fill(y.begin(), y.end(), 0.0);
    auto b0 = support::metrics_snapshot();
    kk.run();
    EXPECT_EQ(exec_delta(b0, support::metrics_snapshot()), ref_delta)
        << label;
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], y_ref[i]) << label << " row " << i;
  };

  CompiledKernel copied(k);
  run_and_compare(copied, "copy ctor");

  CompiledKernel moved(std::move(copied));
  run_and_compare(moved, "move ctor");

  // Move-assign back into the hollowed-out shell and run again: the
  // reassigned kernel must match the original exactly.
  copied = std::move(moved);
  run_and_compare(copied, "move assign");

  CompiledKernel assigned;
  assigned = copied;
  run_and_compare(assigned, "copy assign");
  run_and_compare(k, "original after all of it");
}

}  // namespace
}  // namespace bernoulli::compiler
