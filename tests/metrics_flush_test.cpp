// Regression tests for the observability commit lock (PR 10, satellite:
// concurrent-safe per-run flush). A per-run flush books a GROUP — one
// execute.latency sample, the matching execute.wall_ns delta, the
// executor.* counters, fan-out buckets — and a concurrent
// metrics_snapshot() must never see half of it. The witness invariant:
// execute.latency.sum_ns == execute.wall_ns at EVERY snapshot, because
// both record the same integer nanoseconds at the same flush site.
// Before the commit lock, the mid-flight assertions below trip (a
// snapshot lands between the two bookings) and the interleavings race
// under ThreadSanitizer. The group spans several metric kinds (a
// counter, a latency histogram, log2 fan-out buckets), which is why there
// is ONE snapshot that reads them all under the lock: snapshots of the
// kinds taken one after another can disagree by the runs that committed
// in between.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <utility>

#include "compiler/loopnest.hpp"
#include "formats/formats.hpp"
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

// sum_ns vs wall_ns out of one snapshot; {0, 0} when nothing booked yet.
std::pair<long long, long long> latency_vs_wall(
    const support::MetricsSnapshot& s) {
  long long sum = 0;
  if (auto it = s.latencies.find("execute.latency"); it != s.latencies.end())
    sum = it->second.sum_ns;
  long long wall = 0;
  if (auto it = s.rates.find("execute.wall_ns"); it != s.rates.end())
    wall = it->second;
  return {sum, wall};
}

TEST(MetricsFlush, SerialRunsKeepLatencySumEqualToWall) {
  support::metrics_reset();
  formats::Csr A = random_csr(40, 40, 260, 101);
  Vector x(40, 0.5), y(40, 0.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  constexpr int kRuns = 25;
  for (int i = 0; i < kRuns; ++i) k.run();
  const support::MetricsSnapshot s = support::metrics_snapshot();
  const auto [sum, wall] = latency_vs_wall(s);
  EXPECT_EQ(sum, wall);
  EXPECT_EQ(s.latencies.at("execute.latency").count, kRuns);
}

// The regression: snapshots taken WHILE another thread flushes runs must
// always see a consistent group. Without the commit lock this fails on
// the first snapshot that lands between the latency booking and the
// wall_ns booking of one run.
TEST(MetricsFlush, ConcurrentSnapshotsNeverSeeTornFlush) {
  support::metrics_reset();
  formats::Csr A = random_csr(64, 64, 700, 102);
  Vector x(64, 1.0), y(64, 0.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  constexpr int kRuns = 400;

  // The runner starts only once the snapshot loop is about to begin, so
  // the two overlap even when the host delays the snapshot thread.
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::thread runner([&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kRuns; ++i) k.run();
    done.store(true, std::memory_order_release);
  });

  // The first torn snapshot ends the loop, and the runner is joined
  // before any assertion can return from the test body.
  long long checks = 0;
  std::pair<long long, long long> torn{0, 0};
  started.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    const support::MetricsSnapshot s = support::metrics_snapshot();
    const auto [sum, wall] = latency_vs_wall(s);
    if (sum != wall) {
      torn = {sum, wall};
      break;
    }
    ++checks;
  }
  runner.join();
  ASSERT_EQ(torn.first, torn.second)
      << "torn flush observed after " << checks << " consistent snapshots";

  const support::MetricsSnapshot s = support::metrics_snapshot();
  const auto [sum, wall] = latency_vs_wall(s);
  EXPECT_EQ(sum, wall);
  EXPECT_EQ(s.latencies.at("execute.latency").count, kRuns);
  EXPECT_GT(checks, 0) << "snapshot thread never overlapped the runs";
}

// One snapshot holds whole runs across EVERY kind a run books: the
// executor.runs counter, the execute.latency sample count and the
// executor.fanout.level0 histogram (level 0 is invoked exactly once per
// run, so its bucket total is the run count) must agree in every
// snapshot taken while another thread keeps running.
TEST(MetricsFlush, OneSnapshotHoldsWholeRuns) {
  support::metrics_reset();
  formats::Csr A = random_csr(48, 48, 400, 104);
  Vector x(48, 1.5), y(48, 0.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));
  constexpr int kRuns = 400;

  auto runs_in = [](const support::MetricsSnapshot& s) {
    long long counted = 0;
    if (auto it = s.counts.find("executor.runs"); it != s.counts.end())
      counted = it->second;
    long long sampled = 0;
    if (auto it = s.latencies.find("execute.latency"); it != s.latencies.end())
      sampled = it->second.count;
    long long fanned = 0;
    if (auto it = s.histograms.find("executor.fanout.level0");
        it != s.histograms.end())
      for (long long c : it->second) fanned += c;
    return std::array<long long, 3>{counted, sampled, fanned};
  };

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::thread runner([&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kRuns; ++i) k.run();
    done.store(true, std::memory_order_release);
  });

  // A torn snapshot ends the loop, and the runner is joined before any
  // assertion can return from the test body.
  long long checks = 0;
  std::array<long long, 3> torn{};
  started.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    const auto runs = runs_in(support::metrics_snapshot());
    if (runs[1] != runs[0] || runs[2] != runs[0]) {
      torn = runs;
      break;
    }
    ++checks;
  }
  runner.join();
  EXPECT_EQ(torn, (std::array<long long, 3>{}))
      << "runs / latency samples / level-0 fan-out disagree after " << checks
      << " whole snapshots";

  const auto [counted, sampled, fanned] = runs_in(support::metrics_snapshot());
  EXPECT_EQ(counted, kRuns);
  EXPECT_EQ(sampled, kRuns);
  EXPECT_EQ(fanned, kRuns);
  EXPECT_GT(checks, 0) << "snapshot thread never overlapped the runs";
}

// metrics_reset() is a reader-side participant too: resetting mid-flush
// must not split a group either (reset between a run's two bookings
// would leave wall_ns without its latency sample, breaking the invariant
// for every later snapshot).
TEST(MetricsFlush, ConcurrentResetKeepsGroupsAtomic) {
  support::metrics_reset();
  formats::Csr A = random_csr(32, 32, 180, 103);
  Vector x(32, 2.0), y(32, 0.0);
  compiler::Bindings b;
  const compiler::CompiledKernel k =
      compile_spmv(b, A, ConstVectorView(x), VectorView(y));

  std::atomic<bool> done{false};
  std::thread runner([&] {
    for (int i = 0; i < 200; ++i) k.run();
    done.store(true, std::memory_order_release);
  });
  std::pair<long long, long long> torn{0, 0};
  while (!done.load(std::memory_order_acquire)) {
    support::metrics_reset();
    const auto [sum, wall] = latency_vs_wall(support::metrics_snapshot());
    if (sum != wall) {
      torn = {sum, wall};
      break;
    }
  }
  runner.join();
  ASSERT_EQ(torn.first, torn.second);
  support::metrics_reset();
  const auto [sum, wall] = latency_vs_wall(support::metrics_snapshot());
  EXPECT_EQ(sum, wall);
}

}  // namespace
}  // namespace bernoulli
