// The linked cursor executor: runs a LinkedPlan with an explicit level
// stack, pull-style cursors and batched observability.
//
// Engine contract (enforced by tests/exec_linked_test.cpp): for any
// (Plan, Query) the interpreter accepts, this engine produces bitwise-
// identical results, identical executor.* counter deltas and identical
// per-level enumerated/produced totals. The differences are purely
// mechanical:
//   - iteration pulls through flat Cursors (one virtual begin_cursor per
//     level invocation) instead of pushing through EnumFn std::functions
//     (one virtual dispatch + one std::function call per element);
//   - probes run lowered SearchSpecs (inline bounds checks / binary
//     searches over raw arrays) instead of virtual search calls;
//   - the merge join streams its drivers with a k-finger sweep over live
//     cursors instead of materializing every segment first — same step
//     count, same enumerated totals (unconsumed elements are accounted at
//     frame close; every cursor knows its extent), no allocation;
//   - counters and fan-out buckets accumulate in a RunDelta and are
//     booked once per run by commit_run instead of per event.
//
// ParallelRunner (bottom of this file) workshares the outermost
// enumerate level across the shared thread pool when the link-time
// legality check passed (LinkedPlan::parallel_ok): a deterministic chunk
// grid over the outer cursor range, per-worker runners with private
// scratch and RunDelta shards, merged and committed once per run so
// observability stays exact — same executor.* deltas, same histogram
// samples, same trace span totals as a serial run, for any thread count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/link.hpp"
#include "support/counters.hpp"
#include "support/error.hpp"
#include "support/histogram.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace bernoulli::compiler {

namespace {

// The registry objects commit_run books into, resolved once per process
// so the per-run path does no by-name lookups. The latency histogram and
// execute.wall_ns receive the same integer nanoseconds, so
// execute.latency.sum_ns == execute.wall_ns and the latency count equals
// executor.runs for every engine.
struct RunRegistry {
  support::Counter& runs = support::counter("executor.runs");
  support::Counter& tuples = support::counter("executor.tuples");
  support::Counter& enumerated = support::counter("executor.enumerated");
  support::Counter& merge_steps = support::counter("executor.merge_steps");
  support::Counter& probe_hits = support::counter("executor.probe_hits");
  support::Counter& probe_misses = support::counter("executor.probe_misses");
  support::Counter& fill_ins = support::counter("executor.fill_ins");
  support::Counter& merge_segment_bytes =
      support::counter("executor.merge_segment_bytes");
  support::LatencyHistogram& latency =
      support::metric_latency("execute.latency");
  support::MetricRate& wall_ns = support::metric_rate("execute.wall_ns");
  support::MetricRate& model_bytes =
      support::metric_rate("execute.model_bytes");
  support::MetricRate& model_flops =
      support::metric_rate("execute.model_flops");
};

RunRegistry& run_registry() {
  static RunRegistry r;
  return r;
}

long long wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

index_t bin_search(const index_t* ind, index_t lo, index_t hi, index_t idx) {
  const index_t* first = ind + lo;
  const index_t* last = ind + hi;
  const index_t* it = std::lower_bound(first, last, idx);
  if (it != last && *it == idx) return static_cast<index_t>(it - ind);
  return -1;
}

std::atomic<bool> g_bulk_drain{true};

// Half-open value ranges [a, a+an) and [b, b+bn) overlap. std::less gives
// the pointer comparison a defined total order across unrelated arrays.
bool ranges_overlap(const value_t* a, std::size_t an, const value_t* b,
                    std::size_t bn) {
  if (an == 0 || bn == 0) return false;
  std::less<const value_t*> lt;
  return !(lt(a + an - 1, b) || lt(b + bn - 1, a));
}

}  // namespace

void set_bulk_drain(bool enabled) {
  g_bulk_drain.store(enabled, std::memory_order_relaxed);
}

bool bulk_drain_enabled() {
  return g_bulk_drain.load(std::memory_order_relaxed);
}

void commit_run(const RunDelta& delta, long long wall_ns,
                const PlanFootprint* footprint,
                std::span<support::Log2Histogram* const> fanout,
                const support::ProfileFlush* profile, int k) {
  RunRegistry& r = run_registry();
  // The whole group commits under the observability commit lock so a
  // concurrent metrics_snapshot() never sees part of a run.
  const std::unique_lock<std::mutex> commit = support::metrics_commit_lock();
  const long long base = wall_ns / k;
  const long long rem = wall_ns % k;
  for (int i = 0; i < k; ++i) r.latency.record_ns(base + (i < rem ? 1 : 0));
  r.wall_ns.add(wall_ns);
  if (footprint != nullptr && footprint->exact) {
    r.model_bytes.add(footprint->total_bytes() * k);
    r.model_flops.add(footprint->flops * k);
  }
  r.runs.add(k);
  r.tuples.add(delta.tuples * k);
  r.enumerated.add(delta.enumerated * k);
  r.merge_steps.add(delta.merge_steps * k);
  r.probe_hits.add(delta.probe_hits * k);
  r.probe_misses.add(delta.probe_misses * k);
  r.fill_ins.add(delta.fill_ins * k);
  r.merge_segment_bytes.add(delta.merge_segment_bytes * k);
  constexpr std::size_t kB = support::Log2Histogram::kBuckets;
  const std::size_t levels = std::min(fanout.size(), delta.fanout.size() / kB);
  for (std::size_t d = 0; d < levels; ++d) {
    for (std::size_t b = 0; b < kB; ++b) {
      const long long n = delta.fanout[d * kB + b];
      // Bucket b's representative value: bucket_of(rep) == b.
      if (n != 0) fanout[d]->add(b == 0 ? 0 : (1LL << (b - 1)), n * k);
    }
  }
  if (profile != nullptr) support::profile_commit(*profile);
}

bool LinkedRunner::resolve_probes(const LinkedLevel& lv, RunDelta& c) {
  for (const LinkedProbe& pr : lv.probes) {
    const index_t idx = vars_[static_cast<std::size_t>(pr.var_slot)];
    const index_t parent =
        pr.access.parent_slot < 0
            ? 0
            : pos_[static_cast<std::size_t>(pr.access.parent_slot)];
    index_t p = -1;
    const relation::SearchSpec& s = pr.search;
    switch (s.kind) {
      case relation::SearchSpec::Kind::kIdentity:
        p = (idx >= 0 && idx < s.extent) ? idx : -1;
        break;
      case relation::SearchSpec::Kind::kAffine:
        p = (idx >= 0 && idx < s.extent) ? parent * s.stride + idx : -1;
        break;
      case relation::SearchSpec::Kind::kSegmentBinary:
        p = bin_search(s.ind, s.ptr[parent], s.ptr[parent + 1], idx);
        break;
      case relation::SearchSpec::Kind::kListBinary:
        p = bin_search(s.ind, 0, s.extent, idx);
        break;
      case relation::SearchSpec::Kind::kFunction:
        p = s.map[parent] == idx ? parent : -1;
        break;
      case relation::SearchSpec::Kind::kVirtual:
        p = pr.access.level->search(parent, idx);
        break;
    }
    if (p < 0) {
      ++c.probe_misses;
      if (pr.filters) return false;
      if (pr.insert_on_miss) {
        ++c.fill_ins;
        // Same confinement as the interpreter: insertion is the one
        // mutating access-method operation, reached only by outputs.
        p = const_cast<relation::IndexLevel&>(*pr.access.level)
                .insert(parent, idx);
      } else {
        const auto& rel =
            lp_.query->relations[static_cast<std::size_t>(pr.access.rel)];
        BERNOULLI_CHECK_MSG(
            false, rel.view->name()
                       << " missed a non-filtering probe at "
                       << rel.vars[static_cast<std::size_t>(pr.access.depth)]
                       << " = " << idx);
      }
    } else {
      ++c.probe_hits;
    }
    pos_[static_cast<std::size_t>(pr.access.pos_slot)] = p;
  }
  return true;
}

void LinkedRunner::open_frame(std::size_t d) {
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];
  f.inv_enumerated = 0;
  f.inv_produced = 0;
  f.advance_pending = false;
  f.seg_bytes = 0;
  for (std::size_t s = 0; s < lv.drivers.size(); ++s) {
    const LinkedAccess& a = lv.drivers[s];
    const index_t parent =
        a.parent_slot < 0 ? 0 : pos_[static_cast<std::size_t>(a.parent_slot)];
    // The descriptor was captured at link time, so non-opaque levels open
    // with zero virtual calls; opaque levels (spa accumulators, hash
    // stores) go through the buffered adapter as before.
    if (a.desc.kind != relation::LevelDescriptor::Kind::kOpaque)
      relation::descriptor_cursor(a.desc, parent, f.cursors[s]);
    else
      a.level->begin_cursor(parent, f.cursors[s], f.bufs[s]);
  }
  if (lv.method == JoinMethod::kMerge) {
    // What the interpreter would materialize for this invocation (and what
    // the kBuffered fallbacks may actually have materialized into bufs).
    for (const relation::Cursor& cur : f.cursors)
      f.seg_bytes += static_cast<long long>(cur.remaining()) *
                     static_cast<long long>(sizeof(relation::IndexPos));
  }
}

bool LinkedRunner::next_binding(std::size_t d, RunDelta& c) {
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];

  if (lv.method == JoinMethod::kEnumerate) {
    relation::Cursor& cur = f.cursors[0];
    const std::size_t pos_slot =
        static_cast<std::size_t>(lv.drivers[0].pos_slot);
    const std::size_t var_slot = static_cast<std::size_t>(lv.var_slot);
    while (cur.valid()) {
      ++f.inv_enumerated;
      vars_[var_slot] = cur.index();
      pos_[pos_slot] = cur.pos();
      cur.advance();
      if (resolve_probes(lv, c)) {
        ++f.inv_produced;
        return true;
      }
    }
    return false;
  }

  // Multi-way merge join, streamed: the interpreter's k-finger sweep with
  // cursors as the fingers. advance_pending replays its advance-all-
  // fingers-after-a-match step when the caller pulls the next binding.
  const std::size_t k = lv.drivers.size();
  if (f.advance_pending) {
    f.advance_pending = false;
    for (std::size_t s = 0; s < k; ++s) {
      f.cursors[s].advance();
      ++f.inv_enumerated;
    }
  }
  while (true) {
    ++c.merge_steps;
    bool done = false;
    index_t target = -1;
    for (std::size_t s = 0; s < k; ++s) {
      if (!f.cursors[s].valid()) {
        done = true;
        break;
      }
      target = std::max(target, f.cursors[s].index());
    }
    if (done) return false;
    bool all_match = true;
    for (std::size_t s = 0; s < k; ++s) {
      relation::Cursor& cur = f.cursors[s];
      while (cur.valid() && cur.index() < target) {
        cur.advance();
        ++f.inv_enumerated;
      }
      if (!cur.valid()) {
        all_match = false;
        done = true;
        break;
      }
      if (cur.index() != target) all_match = false;
    }
    if (done) return false;
    if (all_match) {
      vars_[static_cast<std::size_t>(lv.var_slot)] = target;
      for (std::size_t s = 0; s < k; ++s)
        pos_[static_cast<std::size_t>(lv.drivers[s].pos_slot)] =
            f.cursors[s].pos();
      if (resolve_probes(lv, c)) {
        ++f.inv_produced;
        f.advance_pending = true;
        return true;
      }
      for (std::size_t s = 0; s < k; ++s) {
        f.cursors[s].advance();
        ++f.inv_enumerated;
      }
    }
  }
}

void LinkedRunner::close_frame(std::size_t d, RunDelta& c,
                               RunStats* stats) {
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];
  if (lv.method == JoinMethod::kMerge) {
    // Streaming stops at the first exhausted driver; the interpreter's
    // materialization counted every segment element. Cursors know their
    // extent, so the unconsumed tails reconcile the totals exactly.
    for (const relation::Cursor& cur : f.cursors)
      f.inv_enumerated += cur.remaining();
    c.merge_segment_bytes += f.seg_bytes;
  }
  c.enumerated += f.inv_enumerated;
  if (d == 0 && chunk_outer_produced_ != nullptr) {
    // Chunk mode: the serial engine books ONE level-0 fan-out sample per
    // run (one outer invocation), so per-chunk samples would inflate the
    // histogram total. Hand the count to the coordinator instead.
    *chunk_outer_produced_ += f.inv_produced;
  } else {
    c.add_fanout(d, f.inv_produced);
  }
  if (stats) {
    stats->levels[d].enumerated += f.inv_enumerated;
    stats->levels[d].produced += f.inv_produced;
  }
}

void LinkedRunner::begin_run() {
  delta_.clear();
  // A profiled run that threw left its scratch behind; never book it.
  if (prof_.levels != 0) prof_.reset(0);
  if (support::profiling_enabled())
    prof_.levels = static_cast<int>(
        std::min<std::size_t>(lp_.levels.size(), support::kProfileMaxLevels));
}

void LinkedRunner::commit(long long wall_ns) {
  // Per-level time attribution rides the same once-per-run commit; the
  // scratch is zero unless profiling was enabled during the run.
  std::optional<support::ProfileFlush> profile;
  if (prof_.any()) {
    profile = support::profile_estimate(prof_, wall_ns);
    prof_.reset(0);
  }
  commit_run(delta_, wall_ns, &lp_.footprint, lp_.fanout,
             profile ? &*profile : nullptr);
}

// Classifies the mac operands against the leaf level so try_bulk (below)
// can stream whole cursor ranges. Bulk drains engage only when:
//   - the leaf level is an enumerate (drain_enumerate_leaf's precondition);
//   - every leaf probe is an identity/affine bounds check (no binary
//     searches, no virtual probes, no fill-in inserts) — those are the
//     probes whose all-hit outcome is provable from an index range;
//   - the target and every factor expose flat value arrays (no virtual
//     value access mid-loop).
// Everything else falls back to the per-element path, which stays the
// ground truth the bulk path must reproduce bitwise.
void LinkedRunner::prepare_bulk(const LinkedMac& mac) {
  bulk_ok_ = false;
  bulk_acc_ok_ = false;
  bulk_ops_.clear();
  if (lp_.levels.empty()) return;
  const std::size_t leaf = lp_.levels.size() - 1;
  const LinkedLevel& lv = lp_.levels[leaf];
  if (lv.method != JoinMethod::kEnumerate) return;
  for (const LinkedProbe& pr : lv.probes) {
    if (pr.insert_on_miss) return;
    if (pr.search.kind != relation::SearchSpec::Kind::kIdentity &&
        pr.search.kind != relation::SearchSpec::Kind::kAffine)
      return;
  }
  if (mac.target_data.empty()) return;
  for (const LinkedMac::Factor& f : mac.factors)
    if (f.data.empty()) return;

  const int driver_slot = lv.drivers[0].pos_slot;
  auto classify = [&](std::size_t rel_slot) {
    BulkOp op;
    const int s = lp_.leaf_slot[rel_slot];
    if (s == driver_slot) {
      op.src = BulkOp::Src::kDriver;
      return op;
    }
    for (const LinkedProbe& pr : lv.probes) {
      if (pr.access.pos_slot != s) continue;
      if (pr.search.kind == relation::SearchSpec::Kind::kIdentity) {
        op.src = BulkOp::Src::kIdentity;
      } else {
        op.src = BulkOp::Src::kAffine;
        op.stride = pr.search.stride;
        op.parent_slot = pr.access.parent_slot;
      }
      return op;
    }
    // Bound at an outer level: constant for the whole drain.
    op.src = BulkOp::Src::kConst;
    op.slot = static_cast<std::size_t>(s);
    return op;
  };

  bulk_target_ = classify(mac.target_slot);
  for (const LinkedMac::Factor& f : mac.factors) {
    BulkOp op = classify(f.slot);
    op.data = f.data.data();
    bulk_ops_.push_back(op);
  }
  bulk_ok_ = true;
  // The accumulator register cache is only safe when the target element is
  // fixed for the whole drain AND no factor can read the target storage
  // mid-loop (the deferred store would then be observable).
  bulk_acc_ok_ = bulk_target_.src == BulkOp::Src::kConst;
  for (const LinkedMac::Factor& f : mac.factors)
    if (ranges_overlap(mac.target_data.data(), mac.target_data.size(),
                       f.data.data(), f.data.size()))
      bulk_acc_ok_ = false;
}

// Classifies the whole plan for the chunk-wide sliced drain. It engages
// only for the shape where storage-order windows are provably equivalent
// to the per-row walk:
//   - two enumerate levels, one driver each: dense rows over a sliced
//     (SELL-C-sigma) leaf;
//   - the leaf qualifies for register-accumulated bulk drains with
//     exactly two factors, each reading pos (the driver's values) or idx
//     (a dense operand) directly — no per-row affine/const rebasing;
//   - every probe at BOTH levels is proved all-hit at link time and none
//     inserts, so window pre-resolution cannot miss or mutate storage.
// Everything else keeps the per-row path, which stays the ground truth
// the window drain must reproduce bitwise.
void LinkedRunner::prepare_chunk(const LinkedMac& mac) {
  (void)mac;
  chunk_ok_ = false;
  if (!bulk_ok_ || !bulk_acc_ok_) return;
  if (lp_.levels.size() != 2) return;
  const LinkedLevel& l0 = lp_.levels[0];
  const LinkedLevel& l1 = lp_.levels[1];
  if (l0.method != JoinMethod::kEnumerate ||
      l1.method != JoinMethod::kEnumerate)
    return;
  if (l0.drivers.size() != 1 || l1.drivers.size() != 1) return;
  if (!l0.probes.empty() && !l0.proved_all_hit) return;
  if (!l1.probes.empty() && !l1.proved_all_hit) return;
  for (const LinkedProbe& pr : l0.probes)
    if (pr.insert_on_miss) return;
  const relation::LevelDescriptor& d0 = l0.drivers[0].desc;
  const relation::LevelDescriptor& d1 = l1.drivers[0].desc;
  if (d0.kind != relation::LevelDescriptor::Kind::kDense) return;
  if (d1.kind != relation::LevelDescriptor::Kind::kSliced) return;
  if (d1.chunk <= 0 || d1.sigma <= 0 || d1.sigma % d1.chunk != 0) return;
  if (bulk_ops_.size() != 2) return;
  for (const BulkOp& o : bulk_ops_)
    if (o.src != BulkOp::Src::kDriver && o.src != BulkOp::Src::kIdentity)
      return;
  chunk_c_ = d1.chunk;
  chunk_sigma_ = d1.sigma;
  chunk_off_ = d1.off;
  chunk_len_ = d1.len;
  chunk_ind_ = d1.ind;
  chunk_ok_ = true;
}

// The run(LinkedMac) sink. operator() is the per-element multiply-
// accumulate (unchanged semantics); try_bulk is the hook
// drain_enumerate_leaf offers a whole leaf invocation to. A local class
// cannot befriend templates, so this lives at class scope with full
// access to the runner internals.
struct LinkedRunner::MacSink {
  LinkedRunner& r;
  const LinkedMac& mac;
  std::size_t tslot;

  void operator()() const {
    value_t prod = mac.scale;
    for (std::size_t i = 0; i < mac.factors.size(); ++i) {
      const LinkedMac::Factor& f = mac.factors[i];
      const index_t p = r.pos_[r.mac_pslots_[i]];
      prod *= f.data.empty() ? f.view->value_at(p)
                             : f.data[static_cast<std::size_t>(p)];
    }
    const index_t tp = r.pos_[tslot];
    if (mac.target_data.empty())
      mac.target->value_add(tp, prod);
    else
      mac.target_data[static_cast<std::size_t>(tp)] += prod;
  }

  // Streams the whole remaining cursor range of leaf invocation `d` as one
  // fused loop, booking counters/stats in bulk. Returns false (nothing
  // consumed, nothing booked) when the invocation is not provably all-hit,
  // so the caller's per-element path keeps exact miss semantics.
  bool try_bulk(std::size_t d, RunDelta& c) const {
    if (!r.bulk_ok_ || !bulk_drain_enabled()) return false;
    Frame& f = r.frames_[d];
    const LinkedLevel& lv = r.lp_.levels[d];
    relation::Cursor& cur = f.cursors[0];
    if (cur.remaining() <= 0) return false;

    // All-hit window check: identity/affine probes hit iff
    // 0 <= idx < extent, so range membership of [mn, mx] settles every
    // element of an invocation.
    auto probes_hit = [&](index_t mn, index_t mx) {
      for (const LinkedProbe& pr : lv.probes)
        if (mn < 0 || mx >= pr.search.extent) return false;
      return true;
    };

    // Book the invocation in bulk: every element enumerates, hits every
    // probe, and produces — identical totals to the per-element path in
    // any order, because no element misses.
    auto book = [&](long long n) {
      f.inv_enumerated += n;
      f.inv_produced += n;
      c.tuples += n;
      c.probe_hits += n * static_cast<long long>(lv.probes.size());
    };

    // Flatten each operand to pos = base + mp*driver_pos + mi*idx for
    // this invocation (kConst slots and affine parents are fixed here).
    auto refresh = [&](BulkOp& o) {
      switch (o.src) {
        case BulkOp::Src::kConst:
          o.base = r.pos_[o.slot];
          o.mp = 0;
          o.mi = 0;
          break;
        case BulkOp::Src::kDriver:
          o.base = 0;
          o.mp = 1;
          o.mi = 0;
          break;
        case BulkOp::Src::kIdentity:
          o.base = 0;
          o.mp = 0;
          o.mi = 1;
          break;
        case BulkOp::Src::kAffine:
          o.base = (o.parent_slot < 0
                        ? 0
                        : r.pos_[static_cast<std::size_t>(o.parent_slot)]) *
                   o.stride;
          o.mp = 0;
          o.mi = 1;
          break;
      }
    };
    auto refresh_ops = [&] {
      refresh(r.bulk_target_);
      for (BulkOp& o : r.bulk_ops_) refresh(o);
    };

    value_t* const td = mac.target_data.data();
    const value_t scale = mac.scale;
    const std::size_t nf = r.bulk_ops_.size();
    auto prod_of = [&](index_t idx, index_t pos) {
      value_t prod = scale;
      for (std::size_t i = 0; i < nf; ++i) {
        const BulkOp& o = r.bulk_ops_[i];
        prod *= o.data[o.base + o.mp * pos + o.mi * idx];
      }
      return prod;
    };

    auto bulk = [&](auto index_of, auto pos_of, bool ascending) -> bool {
      const index_t k0 = cur.cur;
      const index_t k1 = cur.end;
      // proved_all_hit settled the window at link time from the level's
      // whole enumerable range; only unproved levels pay the per-
      // invocation min/max scan.
      if (!lv.probes.empty() && !lv.proved_all_hit) {
        index_t mn, mx;
        if (ascending) {
          mn = index_of(k0);
          mx = index_of(k1 - 1);
        } else {
          mn = mx = index_of(k0);
          for (index_t k = k0 + 1; k < k1; ++k) {
            const index_t v = index_of(k);
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
        }
        if (!probes_hit(mn, mx)) return false;
      }

      book(k1 - k0);
      refresh_ops();

      const BulkOp& t = r.bulk_target_;
      if (r.bulk_acc_ok_) {
        // Same addition sequence into the same element, accumulated in a
        // register: bitwise-identical to the per-element stores.
        value_t acc = td[t.base];
        if (nf == 2) {
          const BulkOp o0 = r.bulk_ops_[0];
          const BulkOp o1 = r.bulk_ops_[1];
          for (index_t k = k0; k < k1; ++k) {
            const index_t idx = index_of(k);
            const index_t pos = pos_of(k);
            value_t prod = scale;
            prod *= o0.data[o0.base + o0.mp * pos + o0.mi * idx];
            prod *= o1.data[o1.base + o1.mp * pos + o1.mi * idx];
            acc += prod;
          }
        } else {
          for (index_t k = k0; k < k1; ++k)
            acc += prod_of(index_of(k), pos_of(k));
        }
        td[t.base] = acc;
      } else {
        for (index_t k = k0; k < k1; ++k) {
          const index_t idx = index_of(k);
          const index_t pos = pos_of(k);
          td[t.base + t.mp * pos + t.mi * idx] += prod_of(idx, pos);
        }
      }
      cur.cur = k1;
      return true;
    };

    switch (cur.kind) {
      case relation::Cursor::Kind::kDenseRange: {
        const index_t base = cur.base;
        return bulk([](index_t k) { return k; },
                    [base](index_t k) { return base + k; },
                    /*ascending=*/true);
      }
      case relation::Cursor::Kind::kIndArray: {
        const index_t* ind = cur.ind;
        return bulk([ind](index_t k) { return ind[k]; },
                    [](index_t k) { return k; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kStrided: {
        const index_t* ind = cur.ind;
        const index_t base = cur.base;
        const index_t stride = cur.stride;
        return bulk([=](index_t k) { return ind[base + k * stride]; },
                    [=](index_t k) { return base + k * stride; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kOffsets: {
        const index_t* ind = cur.ind;
        const index_t* off = cur.off;
        const index_t base = cur.base;
        return bulk([=](index_t k) { return ind[off[k] + base]; },
                    [=](index_t k) { return off[k] + base; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kBuffered: {
        const relation::IndexPos* buf = cur.buf;
        return bulk([buf](index_t k) { return buf[k].idx; },
                    [buf](index_t k) { return buf[k].pos; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kBlocked: {
        // Register-blocked micro-kernel: one block-column load and one
        // position base per r×c block instead of a div/mod per lane. The
        // lane walk handles an arbitrary k0/k1 (a chunked outer range can
        // hand us a partial first or last block).
        const index_t* ind = cur.ind;
        const index_t ebase = cur.base;
        const index_t c0 = cur.stride;  // block width (lanes per block)
        const index_t bsz = cur.bsz;
        const index_t rofs = cur.rofs;
        const index_t k0 = cur.cur;
        const index_t k1 = cur.end;
        if (!lv.probes.empty() && !lv.proved_all_hit) {
          // Conservative lane window from the block columns this range
          // touches: every lane of block b lies in [ind[b]*c, ind[b]*c+c).
          const index_t b0 = ebase + k0 / c0;
          const index_t bN = ebase + (k1 - 1) / c0;
          index_t mnb = ind[b0];
          index_t mxb = ind[b0];
          for (index_t b = b0 + 1; b <= bN; ++b) {
            mnb = std::min(mnb, ind[b]);
            mxb = std::max(mxb, ind[b]);
          }
          if (!probes_hit(mnb * c0, mxb * c0 + c0 - 1)) return false;
        }
        book(k1 - k0);
        refresh_ops();
        const BulkOp& t = r.bulk_target_;
        if (r.bulk_acc_ok_ && nf == 2) {
          const BulkOp o0 = r.bulk_ops_[0];
          const BulkOp o1 = r.bulk_ops_[1];
          value_t acc = td[t.base];
          index_t k = k0;
          while (k < k1) {
            const index_t b = ebase + k / c0;
            const index_t cc0 = k % c0;
            const index_t cc1 = std::min<index_t>(c0, cc0 + (k1 - k));
            const index_t jb = ind[b] * c0;   // first lane index of block
            const index_t pb = b * bsz + rofs;  // this row's value base
            for (index_t cc = cc0; cc < cc1; ++cc) {
              const index_t idx = jb + cc;
              const index_t pos = pb + cc;
              value_t prod = scale;
              prod *= o0.data[o0.base + o0.mp * pos + o0.mi * idx];
              prod *= o1.data[o1.base + o1.mp * pos + o1.mi * idx];
              acc += prod;
            }
            k += cc1 - cc0;
          }
          td[t.base] = acc;
        } else {
          index_t k = k0;
          while (k < k1) {
            const index_t b = ebase + k / c0;
            const index_t cc0 = k % c0;
            const index_t cc1 = std::min<index_t>(c0, cc0 + (k1 - k));
            const index_t jb = ind[b] * c0;
            const index_t pb = b * bsz + rofs;
            for (index_t cc = cc0; cc < cc1; ++cc) {
              const index_t idx = jb + cc;
              const index_t pos = pb + cc;
              td[t.base + t.mp * pos + t.mi * idx] += prod_of(idx, pos);
            }
            k += cc1 - cc0;
          }
        }
        cur.cur = k1;
        return true;
      }
      case relation::Cursor::Kind::kSingleton:
        return false;  // one element: the per-element path is already tight
    }
    return false;
  }

  // Chunk-wide sliced drain: run_span offers the open level-0 frame
  // whenever the engine sits at the outer level. Consumes whole sigma-
  // aligned windows of outer rows, draining each storage chunk with ONE
  // unit-stride pass over its padded lane-interleaved storage instead of
  // a lane-strided walk per row. Padded lanes are never touched: within a
  // chunk the lanes are stored longest-first, so lanes retire as a suffix
  // while k ascends. Each lane accumulates its row in ascending k into a
  // private register — bitwise-identical stores to the per-row drains —
  // and rows are pre-resolved per window, so every counter, fan-out
  // sample and per-level stat books exactly what the per-row path books,
  // merely reordered across rows (all order-invariant totals). Rows it
  // does not consume — an unaligned thread-chunk prefix, the tail, a
  // window whose chunk shape does not verify — are left untouched for
  // the per-row path.
  void try_chunk(RunDelta& c, RunStats* st) const {
    if (!r.chunk_ok_ || !bulk_drain_enabled()) return;
    Frame& f0 = r.frames_[0];
    relation::Cursor& cur = f0.cursors[0];
    const index_t cw = r.chunk_c_;
    const index_t sigma = r.chunk_sigma_;
    if (cur.cur % sigma != 0 || cur.end - cur.cur < sigma) return;
    const index_t* off = r.chunk_off_;
    const index_t* len = r.chunk_len_;
    const index_t* ind = r.chunk_ind_;
    const LinkedLevel& lv0 = r.lp_.levels[0];
    const LinkedLevel& lv1 = r.lp_.levels[1];
    const std::size_t pos0 =
        static_cast<std::size_t>(lv0.drivers[0].pos_slot);
    const std::size_t var0 = static_cast<std::size_t>(lv0.var_slot);
    const std::size_t pslot =
        static_cast<std::size_t>(lv1.drivers[0].parent_slot);
    const long long nprobes1 = static_cast<long long>(lv1.probes.size());
    value_t* const td = mac.target_data.data();
    const value_t scale = mac.scale;
    // Factor forms are parent-independent here (prepare_chunk rejected
    // kConst/kAffine), so flatten once: pos-sourced (driver values) or
    // idx-sourced (dense operand).
    auto flat = [](const BulkOp& o) {
      BulkOp f = o;
      f.base = 0;
      f.mp = o.src == BulkOp::Src::kDriver ? 1 : 0;
      f.mi = o.src == BulkOp::Src::kIdentity ? 1 : 0;
      return f;
    };
    const BulkOp o0 = flat(r.bulk_ops_[0]);
    const BulkOp o1 = flat(r.bulk_ops_[1]);

    auto& ord = r.chunk_ord_;
    auto& rbase = r.chunk_base_;
    auto& rlen = r.chunk_lens_;
    auto& tpos = r.chunk_tpos_;
    auto& acc = r.chunk_acc_;
    const std::size_t S = static_cast<std::size_t>(sigma);
    ord.resize(S);
    rbase.resize(S);
    rlen.resize(S);
    tpos.resize(S);
    acc.resize(static_cast<std::size_t>(cw));

    // Sliced drains book ONE exact interval per invocation (covering every
    // window it consumes) — no sampling needed: two stamps amortize over
    // sigma rows of work. Outer rows consumed here also count as level-0
    // work so per-level work totals match the per-row path.
    const bool prof = support::profiling_enabled();
    const long long prof_t0 = prof ? support::profile_now_ns() : 0;
    const long long prof_w0 = prof ? c.tuples : 0;
    long long prof_rows = 0;
    const auto prof_book = [&] {
      if (!prof || prof_rows == 0) return;
      const long long w = c.tuples - prof_w0;
      r.prof_.add_work(0, support::kProfTuple, prof_rows);
      r.prof_.add_work(1, support::kProfSliced, w);
      r.prof_.book_ns(1, support::kProfSliced,
                      support::profile_now_ns() - prof_t0, w);
    };

    while (cur.cur % sigma == 0 && cur.end - cur.cur >= sigma) {
      const index_t w0 = cur.cur;
      // Pre-resolve the window's rows before booking any frame state: a
      // filtered row or an unverifiable chunk shape restores the probe
      // counts (all resolve_probes touches) and leaves the whole window to
      // the per-row path.
      const long long hits0 = c.probe_hits;
      const long long misses0 = c.probe_misses;
      const long long fills0 = c.fill_ins;
      bool ok = true;
      for (index_t s = 0; s < sigma; ++s) {
        const index_t row = w0 + s;
        r.vars_[var0] = row;
        r.pos_[pos0] = cur.base + row;
        if (!r.resolve_probes(lv0, c)) {
          ok = false;
          break;
        }
        const index_t prow = r.pos_[pslot];
        const std::size_t us = static_cast<std::size_t>(s);
        ord[us] = s;
        rbase[us] = off[prow];
        rlen[us] = len[prow];
        tpos[us] = r.pos_[tslot];
      }
      // Storage order: ascending per-row base recovers (chunk, lane).
      // Insertion sort — sigma is small.
      for (index_t a = 1; ok && a < sigma; ++a) {
        const index_t v = ord[static_cast<std::size_t>(a)];
        index_t b = a;
        for (; b > 0 && rbase[static_cast<std::size_t>(
                            ord[static_cast<std::size_t>(b - 1)])] >
                            rbase[static_cast<std::size_t>(v)];
             --b)
          ord[static_cast<std::size_t>(b)] =
              ord[static_cast<std::size_t>(b - 1)];
        ord[static_cast<std::size_t>(b)] = v;
      }
      // Verify the shape this drain assumes: each storage-order group of
      // cw rows shares one chunk (lane bases contiguous) and lane lengths
      // never increase, so padded lanes retire as a suffix.
      auto slot = [&](index_t j) {
        return static_cast<std::size_t>(ord[static_cast<std::size_t>(j)]);
      };
      for (index_t j = 0; ok && j < sigma; j += cw) {
        const index_t cb = rbase[slot(j)];
        for (index_t lane = 0; lane < cw; ++lane) {
          if (rbase[slot(j + lane)] != cb + lane ||
              (lane > 0 &&
               rlen[slot(j + lane)] > rlen[slot(j + lane - 1)])) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) {
        c.probe_hits = hits0;
        c.probe_misses = misses0;
        c.fill_ins = fills0;
        prof_book();
        return;
      }

      // Book the window: per row, exactly what next_binding plus a
      // per-row bulk drain book (probe hits already counted above).
      f0.inv_enumerated += sigma;
      f0.inv_produced += sigma;
      for (std::size_t us = 0; us < S; ++us) {
        const long long n = rlen[us];
        c.tuples += n;
        c.enumerated += n;
        c.probe_hits += n * nprobes1;
        c.add_fanout(1, n);
        if (st) {
          st->levels[1].enumerated += n;
          st->levels[1].produced += n;
        }
      }
      // One unit-stride pass per chunk over its padded storage.
      for (index_t j = 0; j < sigma; j += cw) {
        const index_t cb = rbase[slot(j)];
        for (index_t lane = 0; lane < cw; ++lane)
          acc[static_cast<std::size_t>(lane)] = td[tpos[slot(j + lane)]];
        const index_t kmax = rlen[slot(j)];
        index_t active = cw;
        for (index_t k = 0; k < kmax; ++k) {
          while (active > 0 && rlen[slot(j + active - 1)] <= k) --active;
          const index_t p = cb + k * cw;
          for (index_t lane = 0; lane < active; ++lane) {
            const index_t pp = p + lane;
            const index_t idx = ind[pp];
            value_t prod = scale;
            prod *= o0.data[o0.mp * pp + o0.mi * idx];
            prod *= o1.data[o1.mp * pp + o1.mi * idx];
            acc[static_cast<std::size_t>(lane)] += prod;
          }
        }
        for (index_t lane = 0; lane < cw; ++lane)
          td[tpos[slot(j + lane)]] = acc[static_cast<std::size_t>(lane)];
      }
      cur.cur += sigma;
      prof_rows += sigma;
    }
    prof_book();
  }
};

template <class Sink>
void LinkedRunner::drain_enumerate_leaf(std::size_t d, RunDelta& c,
                                        Sink&& sink, bool prof_time) {
  // Drain-kind attribution: the whole invocation books one work count (and,
  // inside a sampled bracket, one timestamp pair — never per tuple) under
  // the kind that actually drained it.
  const bool profiling = support::profiling_enabled();
  const long long prof_w0 = profiling ? c.tuples : 0;
  const long long prof_t0 = prof_time ? support::profile_now_ns() : 0;
  if constexpr (requires { sink.try_bulk(d, c); }) {
    const bool blocked =
        frames_[d].cursors[0].kind == relation::Cursor::Kind::kBlocked;
    if (sink.try_bulk(d, c)) {
      if (profiling) {
        const int kind =
            blocked ? support::kProfBlocked : support::kProfBulk;
        const long long w = c.tuples - prof_w0;
        prof_.add_work(static_cast<int>(d), kind, w);
        if (prof_time)
          prof_.book_ns(static_cast<int>(d), kind,
                        support::profile_now_ns() - prof_t0, w);
      }
      return;
    }
  }
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];
  relation::Cursor& cur = f.cursors[0];
  const std::size_t pos_slot =
      static_cast<std::size_t>(lv.drivers[0].pos_slot);
  const std::size_t var_slot = static_cast<std::size_t>(lv.var_slot);
  long long produced = 0;

  // One cursor-kind dispatch for the whole invocation; the loop bodies are
  // the Cursor accessors inlined, with the hot fields held in locals.
  auto drain = [&](auto index_of, auto pos_of) {
    const index_t end = cur.end;
    f.inv_enumerated += cur.remaining();
    for (index_t k = cur.cur; k < end; ++k) {
      vars_[var_slot] = index_of(k);
      pos_[pos_slot] = pos_of(k);
      if (resolve_probes(lv, c)) {
        ++produced;
        ++c.tuples;
        sink();
      }
    }
    cur.cur = end;
  };
  switch (cur.kind) {
    case relation::Cursor::Kind::kDenseRange: {
      const index_t base = cur.base;
      drain([](index_t k) { return k; },
            [base](index_t k) { return base + k; });
      break;
    }
    case relation::Cursor::Kind::kIndArray: {
      const index_t* ind = cur.ind;
      drain([ind](index_t k) { return ind[k]; },
            [](index_t k) { return k; });
      break;
    }
    case relation::Cursor::Kind::kBuffered: {
      const relation::IndexPos* buf = cur.buf;
      drain([buf](index_t k) { return buf[k].idx; },
            [buf](index_t k) { return buf[k].pos; });
      break;
    }
    default:
      while (cur.valid()) {
        ++f.inv_enumerated;
        vars_[var_slot] = cur.index();
        pos_[pos_slot] = cur.pos();
        cur.advance();
        if (resolve_probes(lv, c)) {
          ++produced;
          ++c.tuples;
          sink();
        }
      }
      break;
  }
  f.inv_produced += produced;
  if (profiling) {
    prof_.add_work(static_cast<int>(d), support::kProfTuple, produced);
    if (prof_time)
      prof_.book_ns(static_cast<int>(d), support::kProfTuple,
                    support::profile_now_ns() - prof_t0, produced);
  }
}

template <class Sink>
void LinkedRunner::run_impl(Sink&& sink, RunStats* stats) {
  const long long t0 = wall_now_ns();
  begin_run();
  const std::size_t L = lp_.levels.size();
  if (stats) {
    stats->tuples = 0;
    stats->levels.assign(L, LevelRunStats{});
  }
  if (L == 0) {
    ++delta_.tuples;
    sink();
  } else {
    run_span(sink, delta_, stats, 0, -1);
  }
  if (stats) stats->tuples = delta_.tuples;
  commit(wall_now_ns() - t0);
}

template <class Sink>
void LinkedRunner::run_span(Sink&& sink, RunDelta& c, RunStats* stats,
                            index_t chunk_begin, index_t chunk_count) {
  std::fill(vars_.begin(), vars_.end(), static_cast<index_t>(-1));
  std::fill(pos_.begin(), pos_.end(), static_cast<index_t>(-1));

  const std::size_t leaf = lp_.levels.size() - 1;
  std::size_t d = 0;
  open_frame(0);
  if (chunk_count >= 0) {
    // Clamp the outer cursor onto this chunk's offsets. Every cursor kind
    // iterates cur in [cur, end), so clamping the two counters restricts
    // any driver — dense ranges, ind arrays, buffered fallbacks — to the
    // same deterministic slice regardless of which worker pulls it.
    relation::Cursor& cur = frames_[0].cursors[0];
    const index_t lo = std::min<index_t>(cur.end, cur.cur + chunk_begin);
    const index_t hi = std::min<index_t>(cur.end, lo + chunk_count);
    cur.cur = lo;
    cur.end = hi;
  }
  // Sampled switch-clock (support/profile.hpp): every kProfileSampleEvery-th
  // outer binding opens a timing bracket; inside a bracket, one timestamp
  // per level TRANSITION books the elapsed segment to the level the engine
  // was executing (self time; book_ns also feeds every enclosing level's
  // inclusive slot). Leaf drains bracket the whole invocation. Work counts
  // are always on while profiling so the commit can extrapolate sampled
  // nanoseconds by the exact work ratio.
  const bool prof_on = support::profiling_enabled();
  bool prof_bracket = false;
  long long prof_last = 0;
  const auto prof_kind_of = [this](std::size_t lvl) {
    return lp_.levels[lvl].method == JoinMethod::kMerge
               ? support::kProfMerge
               : support::kProfTuple;
  };
  while (true) {
    // At the outer level, offer any whole sliced windows to the chunk-
    // wide drain first (no-op unless prepare_chunk engaged and the
    // cursor sits on a window boundary with a full window left).
    if constexpr (requires { sink.try_chunk(c, stats); }) {
      if (d == 0) sink.try_chunk(c, stats);
    }
    if (d == leaf && lp_.levels[d].method == JoinMethod::kEnumerate) {
      if (prof_bracket) {
        // Segment since the last transition: this level's frame setup.
        const long long t = support::profile_now_ns();
        prof_.book_ns(static_cast<int>(d), prof_kind_of(d), t - prof_last,
                      0);
      }
      // A single-level plan drains the whole run in one invocation —
      // bracket it exactly rather than sampling.
      drain_enumerate_leaf(d, c, sink,
                           prof_bracket || (prof_on && leaf == 0));
      if (prof_bracket) prof_last = support::profile_now_ns();
      close_frame(d, c, stats);
      if (d == 0) break;
      --d;
    } else if (next_binding(d, c)) {
      if (prof_on) {
        prof_.add_work(static_cast<int>(d), prof_kind_of(d), 1);
        if (d == 0) {
          // Outer-binding boundary: close the open bracket (the trailing
          // segment covers this binding's enumeration) and open a new one
          // every kProfileSampleEvery-th binding.
          if (prof_bracket) {
            const long long t = support::profile_now_ns();
            prof_.book_ns(0, prof_kind_of(0), t - prof_last, 1);
            prof_bracket = false;
          }
          if (prof_outer_++ % support::kProfileSampleEvery == 0) {
            prof_bracket = true;
            prof_last = support::profile_now_ns();
          }
        } else if (prof_bracket && d != leaf) {
          // Descending: the segment was level-d enumeration + probes.
          const long long t = support::profile_now_ns();
          prof_.book_ns(static_cast<int>(d), prof_kind_of(d),
                        t - prof_last, 1);
          prof_last = t;
        }
        // Per-tuple leaf bindings take no stamp; their time books at the
        // frame close below.
      }
      if (d == leaf) {
        ++c.tuples;
        sink();
      } else {
        ++d;
        open_frame(d);
      }
    } else {
      if (prof_bracket) {
        const long long t = support::profile_now_ns();
        prof_.book_ns(static_cast<int>(d), prof_kind_of(d), t - prof_last,
                      0);
        prof_last = t;
        if (d == 0) prof_bracket = false;
      }
      close_frame(d, c, stats);
      if (d == 0) break;
      --d;
    }
  }
}

namespace {

// Trace emission identical to the interpreter path — same span names, same
// per-level args — so the trace-reconciliation checks hold on either
// engine. The spans are synthetic intervals nested by depth (levels
// interleave; no level has a contiguous real interval).
template <class Body>
void traced(const LinkedPlan& lp, RunStats* stats, const Body& body) {
  if (!support::trace_enabled()) {
    body(stats);
    return;
  }
  RunStats local;
  RunStats* st = stats ? stats : &local;
  support::TraceSpan span("execute", "compiler");
  const double t0 = support::trace_now_us();
  body(st);
  const double t1 = support::trace_now_us();
  detail::emit_join_spans(*lp.plan, *st, t0, t1);
}

}  // namespace

const RunDelta& LinkedRunner::run(const Action& action, RunStats* stats) {
  traced(lp_, stats, [&](RunStats* st) {
    run_impl(
        [&] {
          // Actions see the per-relation leaf positions through Env; the
          // gather lives here so the mac fast path below can skip it.
          for (std::size_t r = 0; r < leaf_.size(); ++r)
            leaf_[r] = pos_[static_cast<std::size_t>(lp_.leaf_slot[r])];
          Env env{vars_, leaf_};
          action(env);
        },
        st);
  });
  return delta_;
}

const RunDelta& LinkedRunner::run(const LinkedMac& mac, RunStats* stats) {
  // Resolve each operand's leaf position slot once per run: the sink reads
  // pos_ directly and skips the per-tuple leaf_ gather entirely.
  mac_pslots_.clear();
  for (const LinkedMac::Factor& f : mac.factors)
    mac_pslots_.push_back(static_cast<std::size_t>(lp_.leaf_slot[f.slot]));
  const std::size_t tslot =
      static_cast<std::size_t>(lp_.leaf_slot[mac.target_slot]);
  prepare_bulk(mac);
  prepare_chunk(mac);
  traced(lp_, stats, [&](RunStats* st) {
    run_impl(MacSink{*this, mac, tslot}, st);
  });
  return delta_;
}

void execute(const Plan& plan, const relation::Query& q,
             const Action& action) {
  LinkedRunner runner(link_plan(plan, q));
  runner.run(action);
}

// ---- Parallel outer-level worksharing ---------------------------------

ParallelRunner::ParallelRunner(LinkedPlan lp, int threads)
    : threads_(std::max(1, threads)) {
  parallel_ = threads_ > 1 && lp.parallel_ok;
  const int nworkers = parallel_ ? threads_ : 1;
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w)
    workers_.push_back(std::make_unique<LinkedRunner>(lp));
  if (parallel_) support::shared_pool(threads_);  // spawn once, not per run
}

// The coordinator: deterministic chunk grid over the outer cursor range,
// guided assignment (workers pull the next chunk off one atomic), shards
// merged and committed ONCE — counters, fan-out histograms, stats and the
// trace all reconcile exactly with a serial run of the same plan.
template <class MakeSink>
void ParallelRunner::run_parallel(MakeSink&& make_sink, RunStats* stats) {
  LinkedRunner& r0 = *workers_.front();
  const std::size_t L = r0.lp_.levels.size();
  traced(r0.lp_, stats, [&](RunStats* st) {
    // One latency sample per run covering the whole fan-out, booked by the
    // coordinator's single commit — same sample count as a serial run.
    const long long t0 = wall_now_ns();
    // The outer extent, probed once: every worker's level-0 cursor opens
    // on the same root parent, so worker 0's view of the range is THE
    // range the chunk grid must cover.
    index_t extent = 0;
    {
      const LinkedAccess& a = r0.lp_.levels[0].drivers[0];
      relation::Cursor cur;
      relation::CursorBuffer buf;
      a.level->begin_cursor(0, cur, buf);
      extent = cur.remaining();
    }
    // Chunk grid: fixed size, independent of which worker runs what, a
    // few chunks per worker so uneven rows still balance. Blocked levels
    // round the chunk up to a whole number of block rows so one thread
    // owns each block row's ptr/ind/vals segment (chunk_align = 1
    // otherwise).
    index_t chunk =
        std::max<index_t>(1, (extent + threads_ * 4 - 1) /
                                 std::max(1, threads_ * 4));
    const index_t align = r0.lp_.chunk_align;
    if (align > 1) chunk = ((chunk + align - 1) / align) * align;

    struct WorkerState {
      RunStats stats;
      long long outer_produced = 0;
      long long chunks = 0;
    };
    std::vector<WorkerState> states(workers_.size());
    std::atomic<index_t> next{0};
    const bool tracing = support::trace_enabled();

    support::shared_pool(threads_).run_slots(
        threads_, [&](int slot) {
          LinkedRunner& r = *workers_[static_cast<std::size_t>(slot)];
          WorkerState& ws = states[static_cast<std::size_t>(slot)];
          ws.stats.levels.assign(L, LevelRunStats{});
          r.chunk_outer_produced_ = &ws.outer_produced;
          r.begin_run();
          auto sink = make_sink(r);
          std::unique_ptr<support::TraceSpan> span;
          if (tracing) {
            support::trace_name_thread(
                1, support::trace_track().tid,
                "exec worker " + std::to_string(slot));
            span = std::make_unique<support::TraceSpan>("execute.worker",
                                                        "compiler");
          }
          while (true) {
            const index_t k = next.fetch_add(1, std::memory_order_relaxed);
            const index_t begin = k * chunk;
            if (begin >= extent) break;
            r.run_span(sink, r.delta_, &ws.stats, begin, chunk);
            ++ws.chunks;
          }
          r.chunk_outer_produced_ = nullptr;
          if (span)
            span->arg("chunks", ws.chunks).arg("tuples", r.delta_.tuples);
        });

    // Merge the shards: plain sums for counters, fan-out buckets and
    // per-level stats, with the withheld level-0 counts folded into the
    // single per-run sample serial books.
    long long outer_produced = 0;
    RunStats merged;
    merged.levels.assign(L, LevelRunStats{});
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WorkerState& ws = states[w];
      outer_produced += ws.outer_produced;
      for (std::size_t d = 0; d < L; ++d) {
        merged.levels[d].enumerated += ws.stats.levels[d].enumerated;
        merged.levels[d].produced += ws.stats.levels[d].produced;
      }
      if (w != 0) {
        r0.delta_ += workers_[w]->delta_;
        // Profile shards merge exactly like the counter shards: plain
        // sums into the coordinator's scratch, committed once below.
        r0.prof_.merge(workers_[w]->prof_);
        workers_[w]->prof_.reset(0);
      }
    }
    r0.delta_.add_fanout(0, outer_produced);
    r0.commit(wall_now_ns() - t0);
    if (st) {
      st->tuples = r0.delta_.tuples;
      st->levels = std::move(merged.levels);
    }
  });
}

void ParallelRunner::run(const Action& action, RunStats* stats) {
  if (!parallel_) {
    workers_.front()->run(action, stats);
    return;
  }
  run_parallel(
      [&](LinkedRunner& r) {
        return [&] {
          for (std::size_t rel = 0; rel < r.leaf_.size(); ++rel)
            r.leaf_[rel] =
                r.pos_[static_cast<std::size_t>(r.lp_.leaf_slot[rel])];
          Env env{r.vars_, r.leaf_};
          action(env);
        };
      },
      stats);
}

void ParallelRunner::run(const LinkedMac& mac, RunStats* stats) {
  if (!parallel_) {
    workers_.front()->run(mac, stats);
    return;
  }
  run_parallel(
      [&](LinkedRunner& r) {
        // Per-worker copy of the serial mac fast path: operand leaf slots
        // and the bulk-drain plan resolved once per run per worker.
        r.mac_pslots_.clear();
        for (const LinkedMac::Factor& f : mac.factors)
          r.mac_pslots_.push_back(
              static_cast<std::size_t>(r.lp_.leaf_slot[f.slot]));
        const std::size_t tslot =
            static_cast<std::size_t>(r.lp_.leaf_slot[mac.target_slot]);
        r.prepare_bulk(mac);
        r.prepare_chunk(mac);
        return LinkedRunner::MacSink{r, mac, tslot};
      },
      stats);
}

void execute_parallel(const Plan& plan, const relation::Query& q,
                      const Action& action, int threads) {
  ParallelRunner runner(link_plan(plan, q), threads);
  runner.run(action);
}

}  // namespace bernoulli::compiler
