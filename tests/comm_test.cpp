// CommSchedule unit tests: exchange semantics, overlap split, validation.
#include <gtest/gtest.h>

#include "spmd/comm.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace bernoulli::spmd {
namespace {

// Two ranks: rank 0 owns x[0..3), rank 1 owns x[3..6). Each needs one
// value from the other.
CommSchedule two_rank_schedule(int me) {
  CommSchedule s;
  s.nprocs = 2;
  s.owned = 3;
  s.ghosts = 1;
  s.send_local.assign(2, {});
  s.recv_count.assign(2, 0);
  s.ghost_base.assign(2, 0);
  int other = 1 - me;
  s.send_local[static_cast<std::size_t>(other)] = {me == 0 ? 2 : 0};
  s.recv_count[static_cast<std::size_t>(other)] = 1;
  s.ghost_base[static_cast<std::size_t>(other)] = 3;
  s.validate();
  return s;
}

TEST(CommSchedule, ExchangeFillsGhosts) {
  runtime::Machine machine(2);
  std::vector<Vector> xs(2);
  machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full{10.0 * p.rank() + 0, 10.0 * p.rank() + 1,
                  10.0 * p.rank() + 2, -1.0};
    s.exchange(p, x_full, 5);
    xs[static_cast<std::size_t>(p.rank())] = x_full;
  });
  EXPECT_DOUBLE_EQ(xs[0][3], 10.0);  // rank 1's local offset 0
  EXPECT_DOUBLE_EQ(xs[1][3], 2.0);   // rank 0's local offset 2
}

TEST(CommSchedule, PostCompleteSplitEquivalent) {
  runtime::Machine machine(2);
  std::vector<Vector> xs(2);
  machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full{1.0 + p.rank(), 2.0 + p.rank(), 3.0 + p.rank(), -1.0};
    s.post(p, x_full, 6);
    // ... compute would overlap here ...
    s.complete(p, x_full, 6);
    xs[static_cast<std::size_t>(p.rank())] = x_full;
  });
  EXPECT_DOUBLE_EQ(xs[0][3], 2.0);  // rank 1 local 0 = 1.0 + 1
  EXPECT_DOUBLE_EQ(xs[1][3], 3.0);  // rank 0 local 2 = 3.0 + 0
}

TEST(CommSchedule, ValidateCatchesBadLayout) {
  CommSchedule s = two_rank_schedule(0);
  s.ghosts = 2;  // recv counts sum to 1
  EXPECT_THROW(s.validate(), Error);

  CommSchedule t = two_rank_schedule(0);
  t.send_local[1] = {5};  // out of owned range
  EXPECT_THROW(t.validate(), Error);

  CommSchedule u = two_rank_schedule(0);
  u.ghost_base[1] = 1;  // overlaps owned region
  EXPECT_THROW(u.validate(), Error);
}

TEST(CommSchedule, EmptyScheduleNoMessages) {
  runtime::Machine machine(2);
  auto reports = machine.run([&](runtime::Process& p) {
    CommSchedule s;
    s.nprocs = 2;
    s.owned = 4;
    s.send_local.assign(2, {});
    s.recv_count.assign(2, 0);
    s.ghost_base.assign(2, 0);
    s.validate();
    Vector x_full(4, 1.0);
    s.exchange(p, x_full, 7);
  });
  EXPECT_EQ(reports[0].stats.messages, 0);
  EXPECT_EQ(reports[1].stats.messages, 0);
}

TEST(CommSchedule, RepeatedExchangesAreStable) {
  // An iterative executor reuses the schedule every iteration; values must
  // track the current x.
  runtime::Machine machine(2);
  std::vector<double> last(2, 0.0);
  machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full(4, 0.0);
    for (int iter = 0; iter < 5; ++iter) {
      for (int k = 0; k < 3; ++k)
        x_full[static_cast<std::size_t>(k)] = iter * 100.0 + p.rank() * 10 + k;
      s.exchange(p, x_full, 8);
    }
    last[static_cast<std::size_t>(p.rank())] = x_full[3];
  });
  EXPECT_DOUBLE_EQ(last[0], 400.0 + 10.0);  // iter 4, rank 1, local 0
  EXPECT_DOUBLE_EQ(last[1], 400.0 + 2.0);   // iter 4, rank 0, local 2
}

TEST(CommSchedule, ReverseExchangeReconcilesWithExchange) {
  // The scatter-add (reverse) direction walks the SAME send lists as the
  // gather direction, just transposed: every message an exchange sends,
  // reverse_exchange_add sends back. So on one schedule the two must book
  // identical message counts and identical byte totals — both in the
  // machine's CommStats and in the comm.* counter registry.
  support::metrics_reset();

  runtime::Machine machine(2);
  auto fwd = machine.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full{1.0 * p.rank(), 2.0, 3.0, 0.0};
    s.exchange(p, x_full, 21);
  });
  auto fwd_snap = support::metrics_snapshot();

  runtime::Machine machine2(2);
  auto rev = machine2.run([&](runtime::Process& p) {
    CommSchedule s = two_rank_schedule(p.rank());
    Vector x_full{0.0, 0.0, 0.0, 7.0 + p.rank()};
    s.reverse_exchange_add(p, x_full, 22);
  });
  auto rev_snap = support::metrics_snapshot();

  long long fwd_msgs = fwd[0].stats.messages + fwd[1].stats.messages;
  long long fwd_bytes = fwd[0].stats.bytes + fwd[1].stats.bytes;
  long long rev_msgs = rev[0].stats.messages + rev[1].stats.messages;
  long long rev_bytes = rev[0].stats.bytes + rev[1].stats.bytes;
  EXPECT_EQ(fwd_msgs, rev_msgs);
  EXPECT_EQ(fwd_bytes, rev_bytes);
  EXPECT_GT(fwd_msgs, 0);

  // Counter registry view of the same runs (rank threads book under the
  // default "main" phase). fwd_snap holds the exchange only; the reverse
  // run's delta is rev_snap minus fwd_snap.
  EXPECT_EQ(fwd_snap.counts["comm.main.messages"], fwd_msgs);
  EXPECT_EQ(fwd_snap.counts["comm.main.bytes"], fwd_bytes);
  EXPECT_EQ(rev_snap.counts["comm.main.messages"] -
                fwd_snap.counts["comm.main.messages"],
            rev_msgs);
  EXPECT_EQ(rev_snap.counts["comm.main.bytes"] -
                fwd_snap.counts["comm.main.bytes"],
            rev_bytes);

  // Schedule-level operation counters.
  EXPECT_EQ(fwd_snap.counts["comm.main.exchanges"], 2);  // one per rank
  EXPECT_EQ(rev_snap.counts["comm.main.reverse_exchanges"], 2);
}

}  // namespace
}  // namespace bernoulli::spmd
