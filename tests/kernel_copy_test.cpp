// Regression tests for CompiledKernel's concurrency contract. A kernel is
// a value over shared immutable state (query, plan, linked program, runner
// pool): copies taken while another thread runs must be safe and fully
// functional, copies/moves/reassignments must run bitwise-identically to
// the original, and concurrent runs of ONE kernel must each lease their
// own runner instead of racing on shared scratch.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
#include "relation/array_views.hpp"
#include "support/counters.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace bernoulli {
namespace {

formats::Csr random_csr(index_t rows, index_t cols, index_t nnz,
                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  formats::TripletBuilder b(rows, cols);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(rows), rng.next_index(cols),
          rng.next_double(-1.0, 1.0));
  return formats::Csr::from_coo(std::move(b).build());
}

compiler::CompiledKernel compile_spmv(compiler::Bindings& b,
                                      const formats::Csr& A,
                                      ConstVectorView x, VectorView y) {
  b.bind_csr("A", A);
  b.bind_dense_vector("x", x);
  b.bind_dense_vector("y", y);
  compiler::LoopNest nest;
  nest.loops = {{"i", A.rows()}, {"j", A.cols()}};
  nest.body.target = {"y", {"i"}};
  nest.body.factors = {{"A", {"i", "j"}}, {"x", {"j"}}};
  return compiler::compile(nest, b);
}

// y += A x in the engine's exact order and multiply chain (row-ascending,
// nonzero-ascending; prod = scale * A * x), so comparisons are bitwise.
void reference_spmv(const formats::Csr& A, const Vector& x, Vector& y) {
  const auto rowptr = A.rowptr();
  const auto colind = A.colind();
  const auto vals = A.vals();
  for (index_t i = 0; i < A.rows(); ++i) {
    for (index_t e = rowptr[static_cast<std::size_t>(i)];
         e < rowptr[static_cast<std::size_t>(i) + 1]; ++e) {
      value_t prod = 1.0;
      prod *= vals[static_cast<std::size_t>(e)];
      prod *= x[static_cast<std::size_t>(
          colind[static_cast<std::size_t>(e)])];
      y[static_cast<std::size_t>(i)] += prod;
    }
  }
}

TEST(KernelCopy, CopyRunsIndependentlyAndBitwiseEqual) {
  formats::Csr A = random_csr(50, 50, 400, 7);
  Vector x(50), y(50, 0.0);
  SplitMix64 rng(8);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  k.run();  // link first, so the copy shares an already-linked program
  Vector expect(50, 0.0);
  reference_spmv(A, x, expect);
  EXPECT_EQ(y, expect);

  const compiler::CompiledKernel copy = k;  // NOLINT: copy is the test
  std::fill(y.begin(), y.end(), 0.0);
  copy.run();
  EXPECT_EQ(y, expect);
}

// One thread loops run() (lazily linking, then reusing the linked
// program) while another thread takes copies of the same kernel. The
// copies must be race-free and fully functional afterwards.
TEST(KernelCopy, CopyWhileAnotherThreadRunsIsSafe) {
  formats::Csr A = random_csr(60, 60, 500, 9);
  Vector x(60), y(60, 0.0);
  SplitMix64 rng(10);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));

  // The runner keeps going past kRuns until at least one copy has been
  // taken, so the two loops always overlap however the threads are
  // scheduled.
  constexpr int kRuns = 300;
  std::atomic<bool> done{false};
  std::atomic<int> taken{0};
  int runs = 0;
  std::thread runner([&] {
    while (runs < kRuns || taken.load(std::memory_order_acquire) == 0) {
      k.run();
      ++runs;
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<compiler::CompiledKernel> copies;
  while (!done.load(std::memory_order_acquire)) {
    compiler::CompiledKernel c(k);
    taken.fetch_add(1, std::memory_order_release);
    if (copies.size() < 4) copies.push_back(std::move(c));
  }
  runner.join();
  EXPECT_GT(taken.load(), 0);
  EXPECT_GE(runs, kRuns);

  // The source accumulated `runs` sweeps into y; the copies, run serially
  // now, must produce the exact same increment (they borrow the same
  // views, so each run adds one more A*x into the shared target).
  Vector expect(60, 0.0);
  for (int i = 0; i < runs; ++i) reference_spmv(A, x, expect);
  EXPECT_EQ(y, expect);
  for (const compiler::CompiledKernel& c : copies) {
    reference_spmv(A, x, expect);
    c.run();
    EXPECT_EQ(y, expect);
  }
}

// Assignments and moves hand over the shared state; every destination
// must run bitwise-identically, including after its source is gone.
TEST(KernelCopy, ReassignmentAndMoveRelinkAgainstOwnStorage) {
  formats::Csr A = random_csr(40, 40, 300, 11);
  Vector x(40), y(40, 0.0);
  SplitMix64 rng(12);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  compiler::Bindings b;
  compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  k.run();  // link first, so assignments hand over a linked program
  Vector expect(40, 0.0);
  reference_spmv(A, x, expect);
  ASSERT_EQ(y, expect);

  compiler::CompiledKernel assigned;
  assigned = k;  // copy-assign over a default-constructed kernel
  std::fill(y.begin(), y.end(), 0.0);
  assigned.run();
  EXPECT_EQ(y, expect);

  compiler::CompiledKernel moved = std::move(k);  // move-construct
  std::fill(y.begin(), y.end(), 0.0);
  moved.run();
  EXPECT_EQ(y, expect);

  assigned = std::move(moved);  // move-assign over a linked kernel
  std::fill(y.begin(), y.end(), 0.0);
  assigned.run();
  EXPECT_EQ(y, expect);
}

// A dense target whose storage is per thread: updates land in the calling
// thread's buffer, so two threads can run ONE kernel concurrently without
// sharing output storage. It exposes no value array, so the engine books
// every update through value_add.
thread_local Vector* tl_target = nullptr;

class ThreadLocalTarget final : public relation::RelationView {
 public:
  explicit ThreadLocalTarget(index_t n)
      : shape_(static_cast<std::size_t>(n), 0.0),
        inner_("y", VectorView(shape_)) {}

  std::string name() const override { return "y"; }
  index_t arity() const override { return 1; }
  const relation::IndexLevel& level(index_t depth) const override {
    return inner_.level(depth);
  }
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override {
    return (*tl_target)[static_cast<std::size_t>(pos)];
  }
  bool writable() const override { return true; }
  void value_add(index_t pos, value_t delta) override {
    (*tl_target)[static_cast<std::size_t>(pos)] += delta;
  }
  void value_set(index_t pos, value_t v) override {
    (*tl_target)[static_cast<std::size_t>(pos)] = v;
  }

 private:
  Vector shape_;
  relation::DenseVectorView inner_;
};

// Two threads run the SAME kernel at once: each run leases its own runner
// from the kernel's pool, so outputs match serial bitwise and every run is
// booked exactly once.
TEST(KernelCopy, TwoThreadsRunOneKernelConcurrently) {
  formats::Csr A = random_csr(70, 70, 600, 13);
  Vector x(70);
  SplitMix64 rng(14);
  for (value_t& v : x) v = rng.next_double(-1.0, 1.0);
  ThreadLocalTarget target(70);
  compiler::Bindings b;
  b.bind_csr("A", A);
  b.bind_dense_vector("x", ConstVectorView(x));
  b.bind_view("y", &target, {0}, /*sparse=*/false);
  compiler::LoopNest nest;
  nest.loops = {{"i", A.rows()}, {"j", A.cols()}};
  nest.body.target = {"y", {"i"}};
  nest.body.factors = {{"A", {"i", "j"}}, {"x", {"j"}}};
  const compiler::CompiledKernel k = compiler::compile(nest, b);

  constexpr int kRuns = 200;
  Vector expect(70, 0.0);
  for (int i = 0; i < kRuns; ++i) reference_spmv(A, x, expect);

  support::Counter& runs = support::counter("executor.runs");
  support::LatencyHistogram& latency =
      support::metric_latency("execute.latency");
  const long long runs0 = runs.value();
  const long long samples0 = latency.snapshot().count;

  std::atomic<int> ready{0};
  Vector out[2] = {Vector(70, 0.0), Vector(70, 0.0)};
  auto body = [&](int t) {
    tl_target = &out[t];
    // Start together so the two threads' runs overlap.
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kRuns; ++i) k.run();
  };
  std::thread t0(body, 0);
  std::thread t1(body, 1);
  t0.join();
  t1.join();

  EXPECT_EQ(out[0], expect);
  EXPECT_EQ(out[1], expect);
  EXPECT_EQ(runs.value() - runs0, 2 * kRuns);
  EXPECT_EQ(latency.snapshot().count - samples0, 2 * kRuns);
}

}  // namespace
}  // namespace bernoulli
