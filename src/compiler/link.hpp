// Plan linking: lower a validated (Plan, Query) pair ONCE into a flat,
// slot-addressed program the cursor executor (exec_linked.cpp) can run
// with no name lookups, no per-element virtual dispatch and no allocation
// inside the data loop.
//
// The interpreter in executor.cpp re-resolves everything per run and per
// tuple: variable names to slots, accesses to IndexLevel objects, probes
// through virtual search, enumeration through std::function callbacks.
// Linking is the inspector/executor split applied to our own executor —
// the same specialize-then-run move TACO-style format abstraction makes
// ahead of the data loop: resolve the access-method hierarchy into flat
// op records first, then run a tight loop over raw arrays.
//
// A LinkedPlan BORROWS the Plan, the Query and the views behind it; all
// must stay alive and unmoved while the linked plan runs. Call sites that
// execute the same plan repeatedly (CompiledKernel::run through its
// RunnerPool, the distributed kernels that re-run one local plan per
// solver iteration) reuse LinkedRunners so linking and scratch allocation
// happen once, not per iteration.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "compiler/executor.hpp"
#include "relation/cursor.hpp"
#include "support/histogram.hpp"
#include "support/profile.hpp"

namespace bernoulli::compiler {

/// A driver access, fully resolved: the concrete level plus flat slot
/// indices for its own and its parent's positions.
struct LinkedAccess {
  const relation::IndexLevel* level = nullptr;
  index_t rel = 0;    // index into Query::relations (diagnostics)
  index_t depth = 0;  // hierarchy depth (diagnostics)
  int pos_slot = 0;   // flat position-array slot this access writes
  int parent_slot = -1;  // slot holding the parent position; -1 = root (0)
  // Level descriptor captured at link time. Non-opaque descriptors let the
  // runner open cursors by switching on the kind directly — zero virtual
  // calls per frame open (opaque levels fall back to the buffered adapter).
  relation::LevelDescriptor desc;
};

/// A probe access: the driver fields plus the lowered search method and
/// the slot of the (already bound) variable that feeds the search.
struct LinkedProbe {
  LinkedAccess access;
  relation::SearchSpec search;
  int var_slot = 0;
  bool filters = false;         // miss rejects the iteration
  bool insert_on_miss = false;  // written + insertable: sparse fill-in
};

struct LinkedLevel {
  JoinMethod method = JoinMethod::kEnumerate;
  int var_slot = 0;
  std::vector<LinkedAccess> drivers;  // 1 for enumerate, 2+ for merge
  std::vector<LinkedProbe> probes;
  // Link-time always-hit proof: every probe at this level is an identity /
  // affine search with no insert-on-miss, and the driver's whole index
  // range provably lands inside every probe's accepting window. When true
  // the bulk leaf drain skips its per-invocation min/max range scan, and
  // the fused two-level drain may compute positions instead of resolving
  // probes.
  bool proved_all_hit = false;
};

/// Static data-movement footprint of one plan, derived at link time from
/// the same flat cursor specs the bulk-drain proof uses: how many index
/// and value bytes ONE run(LinkedMac) execution touches per operand, and
/// how many FLOPs it performs, assuming every probe hits (the exactness
/// conditions below). This is the numerator/denominator pair the roofline
/// section of a run report needs (arithmetic intensity = flops / bytes).
///
/// `exact` is true only when the walk could prove the totals: every level
/// enumerates a flat EnumSpec, every probe is an always-hit identity or
/// affine search with no filtering and no fill-in, and segmented /
/// per-parent-count levels are invoked exactly once per parent segment.
/// When false, `note` says which condition failed and the totals are 0 —
/// callers must not report a roofline from an inexact footprint.
struct PlanFootprint {
  struct Operand {
    std::string name;          // RelationView::name()
    long long index_bytes = 0; // ptr/ind/off/len/map array bytes read
    long long value_bytes = 0; // value array bytes (written operands: 2x)
  };
  std::vector<Operand> operands;  // one per query relation, in order
  long long leaf_tuples = 0;      // surviving leaf bindings per run
  long long flops = 0;            // multiply-accumulate flops per run
  // Slack bytes a padded layout (SELL-C-σ lanes) stores but never
  // enumerates: storage overhead, excluded from index/value traffic.
  long long padding_bytes = 0;
  bool exact = false;
  std::string note;

  long long index_bytes() const {
    long long total = 0;
    for (const Operand& o : operands) total += o.index_bytes;
    return total;
  }
  long long value_bytes() const {
    long long total = 0;
    for (const Operand& o : operands) total += o.value_bytes;
    return total;
  }
  long long total_bytes() const { return index_bytes() + value_bytes(); }
};

struct LinkedPlan {
  std::vector<LinkedLevel> levels;
  std::vector<int> leaf_slot;  // per relation: slot of its deepest position
  int pos_slots = 0;           // flat position array size
  const Plan* plan = nullptr;            // borrowed (trace labels)
  const relation::Query* query = nullptr;  // borrowed (diagnostics, arity)
  // Link-time parallelizability verdict for the outermost level (see
  // plan_parallel_legality): when false, ParallelRunner runs serially and
  // parallel_note says why (also surfaced by EXPLAIN).
  bool parallel_ok = false;
  std::string parallel_note;
  // Thread-chunk alignment for the outer variable: when the plan walks a
  // blocked level whose block rows group `chunk_align` consecutive outer
  // bindings, chunk boundaries must fall on multiples of it so no block
  // row straddles two threads. 1 = no constraint.
  index_t chunk_align = 1;
  // Static per-run data-movement model (see PlanFootprint). Derived by
  // link_plan; feeds execute.model_bytes / execute.model_flops metrics and
  // the roofline section of run reports.
  PlanFootprint footprint;
  // executor.fanout.level<d> per level, resolved once at link time.
  std::vector<support::Log2Histogram*> fanout;
};

/// Validates `q` and lowers the pair. The result borrows both arguments.
LinkedPlan link_plan(const Plan& plan, const relation::Query& q);

/// Structural fingerprint of a (Plan, Query) pair: a stable FNV-1a hash
/// over the plan's EXPLAIN document plus each relation's view name,
/// variable binding and access role. Two pairs with equal fingerprints
/// link to the same program STRUCTURE — join order and methods, access
/// paths, level descriptors and format kinds (all of which EXPLAIN
/// renders). Deliberately excluded: storage identity and contents — a
/// cache key layers those on top (the KernelServer appends the concrete
/// array identity and the distribution tag; see docs/SERVING.md).
std::uint64_t plan_fingerprint(const Plan& plan, const relation::Query& q);

/// Whether the outermost plan level may be chunked across threads, and
/// why (not). Legal iff the outer level is an enumerate (a chunked
/// k-finger merge would change merge_steps), no access anywhere inserts
/// on miss (fill-in grows shared storage mid-run), no probe goes through
/// a stateful virtual search (e.g. the lazily built hash index), and
/// every written relation binds the outer variable at its root level —
/// distinct outer bindings then touch disjoint output rows, so any chunk
/// assignment reproduces the serial result bitwise with no reduction.
struct ParallelLegality {
  bool ok = false;
  std::string note;
};
ParallelLegality plan_parallel_legality(const Plan& plan,
                                        const relation::Query& q);

/// Walks the plan's flat cursor specs and derives the static data-movement
/// footprint link_plan attaches to the LinkedPlan. Exposed for tests (the
/// differential footprint test cross-checks leaf_tuples and bytes against
/// measured executor.* counters).
PlanFootprint derive_footprint(const Plan& plan, const relation::Query& q);

/// The multiply-accumulate statement, lowered: relation slots resolved and
/// raw value arrays captured where the views expose them (empty spans fall
/// back to the virtual value accessors — e.g. sparse accumulators, whose
/// storage grows mid-run).
struct LinkedMac {
  relation::RelationView* target = nullptr;
  std::size_t target_slot = 0;
  std::span<value_t> target_data;  // empty: use target->value_add
  value_t scale = 1.0;
  struct Factor {
    const relation::RelationView* view = nullptr;
    std::size_t slot = 0;
    std::span<const value_t> data;  // empty: use view->value_at
  };
  std::vector<Factor> factors;
};

LinkedMac link_mac(const relation::Query& q, index_t target_rel,
                   const std::vector<index_t>& factor_rels,
                   value_t scale = 1.0);

/// Process-wide toggle for the bulk drains of run(LinkedMac)
/// (exec_linked.cpp): the per-row leaf drain, which streams a leaf
/// invocation whose probes provably hit through one tight multiply-
/// accumulate loop instead of per-element probe resolution, and the fused
/// two-level drain, which runs a whole dense-rows x compressed / blocked /
/// sliced plan as one loop nest. Outputs, executor.* counter deltas,
/// fan-out histograms and per-level stats are bitwise-identical either way
/// (BulkDrainSweep and FusedDrain in tests/exec_linked_test.cpp enforce
/// it); the toggle exists so tests and ablations can compare the paths.
/// Default: enabled.
void set_bulk_drain(bool enabled);
bool bulk_drain_enabled();

/// One run's observability delta: the executor.* counts plus the per-level
/// fan-out bucket counts. Every engine accumulates one of these in plain
/// locals during a run and books it with commit_run() afterwards; the
/// threaded coordinator sums worker shards with +=, and the KernelServer
/// replays one k-fold for a batched sweep that stands in for k runs.
struct RunDelta {
  long long tuples = 0;
  long long enumerated = 0;
  long long merge_steps = 0;
  long long probe_hits = 0;
  long long probe_misses = 0;
  long long fill_ins = 0;
  long long merge_segment_bytes = 0;
  /// Fan-out bucket counts, level-major, Log2Histogram::kBuckets per level:
  /// fanout[d * kBuckets + b] invocations of level d produced a count in
  /// bucket b.
  std::vector<long long> fanout;

  explicit RunDelta(std::size_t levels = 0)
      : fanout(levels * support::Log2Histogram::kBuckets, 0) {}

  /// One invocation of level `d` that produced `produced` bindings.
  void add_fanout(std::size_t d, long long produced) {
    ++fanout[d * support::Log2Histogram::kBuckets +
             static_cast<std::size_t>(
                 support::Log2Histogram::bucket_of(produced))];
  }

  /// Zeroes every count, keeping the fan-out capacity (no allocation).
  void clear();

  RunDelta& operator+=(const RunDelta& o);
};

/// Books `k` runs' observability as ONE group under the metrics commit
/// lock, so a concurrent snapshot sees whole runs only: `k` execute.latency
/// samples splitting `wall_ns` with an exact integer sum, execute.wall_ns,
/// execute.model_bytes/model_flops from `footprint` when it is exact, the
/// executor.* counters (executor.runs += k, the rest delta * k), the
/// fan-out buckets into `fanout` (one histogram per plan level) and the
/// per-level profile when `profile` is set. The one place in the engines
/// that books a run; registry references are resolved once per process.
void commit_run(const RunDelta& delta, long long wall_ns,
                const PlanFootprint* footprint,
                std::span<support::Log2Histogram* const> fanout,
                const support::ProfileFlush* profile = nullptr, int k = 1);

/// The executor.fanout.level<d> histograms for a plan of `levels` levels.
std::vector<support::Log2Histogram*> fanout_histograms(std::size_t levels);

/// Runs a LinkedPlan. Owns all executor scratch (frames, cursor buffers,
/// merge state, the per-run RunDelta), reused across runs — after the
/// first run of a given plan, steady state performs no heap allocation.
/// Observability is batched: executor.* counts and fan-out buckets are
/// accumulated in the RunDelta and committed once per run, preserving the
/// exact totals the interpreter books.
class LinkedRunner {
 public:
  explicit LinkedRunner(LinkedPlan lp);

  const LinkedPlan& linked() const { return lp_; }

  /// One run, invoking `action` per surviving tuple (interpreter-identical
  /// results, counters and per-level stats). Returns the delta the run
  /// booked (valid until the next run).
  const RunDelta& run(const Action& action, RunStats* stats = nullptr);

  /// One run of a lowered multiply-accumulate statement — the fast path
  /// that also skips the per-tuple std::function and virtual value access.
  const RunDelta& run(const LinkedMac& mac, RunStats* stats = nullptr);

 private:
  struct Frame {
    std::vector<relation::Cursor> cursors;     // one per driver
    std::vector<relation::CursorBuffer> bufs;  // per-driver fallback scratch
    long long seg_bytes = 0;      // merge: summed segment bytes at open
    bool advance_pending = false;  // merge: fingers sit on the last match
    long long inv_enumerated = 0;
    long long inv_produced = 0;
  };

  template <class Sink>
  void run_impl(Sink&& sink, RunStats* stats);

  // Shared body of the serial run and the parallel chunk run: iterates
  // the level stack over outer-cursor offsets [chunk_begin, chunk_begin +
  // chunk_count) (chunk_count < 0 = the whole range), accumulating into
  // `c` without committing. In chunk mode (see
  // chunk_outer_produced_) the level-0 fan-out sample is withheld so the
  // coordinator can book ONE merged sample per run, exactly like serial.
  template <class Sink>
  void run_span(Sink&& sink, RunDelta& c, RunStats* stats,
                index_t chunk_begin, index_t chunk_count);

  // Innermost-level fast path: produces every binding of an enumerate leaf
  // frame in one tight loop (cursor kind dispatched once per invocation,
  // not per element) and fires the sink inline, instead of re-entering the
  // level state machine per element. `prof_time` brackets the invocation
  // with one timestamp pair (set inside sampled profiler brackets only).
  template <class Sink>
  void drain_enumerate_leaf(std::size_t d, RunDelta& c, Sink&& sink,
                            bool prof_time);

  void open_frame(std::size_t d);
  void close_frame(std::size_t d, RunDelta& c, RunStats* stats);
  bool next_binding(std::size_t d, RunDelta& c);
  bool resolve_probes(const LinkedLevel& lv, RunDelta& c);
  // Zeroes the per-run delta and profile scratch (a run that threw may
  // have left them half-filled) and sizes the profile for this plan.
  void begin_run();
  // Books delta_ and the profile scratch through commit_run with
  // `wall_ns`, the measured wall time of the run. The parallel runner
  // times the whole fan-out and commits ONCE through the coordinator, so
  // serial and threaded runs book the same number of samples.
  void commit(long long wall_ns);

  // --- Bulk drains (run(LinkedMac) only) ------------------------------
  // One mac operand's leaf position, classified against the leaf level:
  // constant across the drain (bound at an outer level), the driver's own
  // position, or derived from the bound index through an identity/affine
  // probe. Resolved once per run; the per-row leaf drain (try_bulk)
  // refreshes the per-invocation bases (kConst slot reads, kAffine
  // parent*stride), while the fused two-level drain (try_fused) admits
  // only operands whose position needs no per-row rebasing.
  struct BulkOp {
    enum class Src : unsigned char { kConst, kDriver, kIdentity, kAffine };
    Src src = Src::kConst;
    const value_t* data = nullptr;  // factor value array (target: unused)
    std::size_t slot = 0;           // kConst: pos_ slot read per invocation
    index_t stride = 0;             // kAffine
    int parent_slot = -1;           // kAffine
    // Per-invocation flattened form: pos = base + mp*driver_pos + mi*idx.
    index_t base = 0;
    index_t mp = 0;
    index_t mi = 0;
  };
  // The run(LinkedMac) sink: per-element multiply-accumulate plus the
  // try_bulk hook drain_enumerate_leaf detects and the try_fused hook
  // run_span offers the outer range to. Defined in exec_linked.cpp
  // (local to the engine); ParallelRunner builds one per worker.
  struct MacSink;
  // Classifies the mac against the leaf level and fills bulk_* members.
  void prepare_bulk(const LinkedMac& mac);
  // Classifies the whole plan once per run for the fused two-level drain
  // and sets fused_ok_ (see try_fused in exec_linked.cpp).
  void prepare_fused();

  LinkedPlan lp_;
  std::vector<index_t> vars_;
  std::vector<index_t> pos_;
  std::vector<index_t> leaf_;
  std::vector<Frame> frames_;
  // run(LinkedMac) scratch: each operand's resolved leaf position slot.
  // Member (not a local) so repeated runs reuse the capacity.
  std::vector<std::size_t> mac_pslots_;
  // Bulk-drain plan (prepare_bulk): factor operand forms in factor order,
  // the target's form, and the two eligibility verdicts. Members so
  // steady-state runs allocate nothing.
  std::vector<BulkOp> bulk_ops_;
  BulkOp bulk_target_;
  bool bulk_ok_ = false;      // leaf level + operands admit bulk drains
  bool bulk_acc_ok_ = false;  // target constant and alias-free: cache it
  // Fused two-level drain (run(LinkedMac) only): when a two-level plan
  // enumerates dense rows over a compressed, blocked or sliced leaf with
  // every probe proved all-hit, a row-constant register-cacheable target
  // and two factors read at the driver's position or the bound index, the
  // whole outer cursor range runs as one loop nest picked by the leaf
  // LevelDescriptor kind instead of one state-machine hand-off per row.
  // Per-row accumulation order is unchanged, so results, counters, fan-out
  // histograms and per-level stats are identical to the per-row path.
  bool fused_ok_ = false;
  // This run's executor.* counts and fan-out buckets, committed once per
  // run (ParallelRunner: one shard per worker, summed into worker 0's).
  RunDelta delta_;
  // Chunk mode (set by ParallelRunner): close_frame(0) adds the outer
  // level's produced count here instead of booking a fan-out sample per
  // chunk — the serial engine books exactly one sample per run.
  long long* chunk_outer_produced_ = nullptr;
  // Per-run time-attribution scratch (support/profile.hpp): exact per-
  // (level, drain-kind) work counts plus sampled level-transition
  // intervals, committed once per run by commit(). The ParallelRunner
  // merges worker shards into the coordinator's scratch before its single
  // commit, so work counts stay bitwise serial-identical for any thread
  // count.
  support::ProfileScratch prof_;
  // Outer-binding counter driving the sampling gate (every
  // kProfileSampleEvery-th outer binding opens a timing bracket).
  long long prof_outer_ = 0;

  friend class ParallelRunner;
};

/// Runs a LinkedPlan across the shared thread pool by chunking the
/// outermost enumerate level: a deterministic chunk grid over the outer
/// cursor range, pulled guided-style by `threads` workers, each with its
/// own LinkedRunner (scratch, counters, fan-out shards, trace buffer).
/// Shards merge once per run into the same registry objects the serial
/// engine feeds, so executor.* deltas, fan-out histograms and per-level
/// stats are EXACTLY the serial engine's, for any thread count.
///
/// When the plan is not parallelizable (see plan_parallel_legality) or
/// threads <= 1 every run delegates to a single serial LinkedRunner —
/// same results, no pool involvement. Callers of run(Action) must pass an
/// action that is safe to invoke concurrently for distinct outer
/// bindings; run(LinkedMac) is safe whenever the plan is parallel-legal
/// (disjoint output rows).
class ParallelRunner {
 public:
  ParallelRunner(LinkedPlan lp, int threads);

  const LinkedPlan& linked() const { return workers_.front()->linked(); }
  int threads() const { return threads_; }
  /// True when runs actually fan out (legal plan and threads > 1).
  bool parallel() const { return parallel_; }

  void run(const Action& action, RunStats* stats = nullptr);
  void run(const LinkedMac& mac, RunStats* stats = nullptr);

 private:
  template <class MakeSink>
  void run_parallel(MakeSink&& make_sink, RunStats* stats);

  int threads_ = 1;
  bool parallel_ = false;
  // workers_[0] doubles as the serial fallback runner.
  std::vector<std::unique_ptr<LinkedRunner>> workers_;
};

/// One-shot parallel execution of a (Plan, Query) pair — links, runs the
/// action across `threads` workers (serial fallback applies), discards
/// the program. Repeated runs should hold a ParallelRunner instead.
void execute_parallel(const Plan& plan, const relation::Query& q,
                      const Action& action, int threads);

/// One linked program's runner scratch, shared by every caller that runs
/// it: a LinkedPlan plus a mutex-guarded freelist of LinkedRunners over
/// it. lease() hands out an idle runner (building a new one only when all
/// are busy) and the Lease returns it on destruction, so N concurrent runs
/// hold N runners and steady state allocates nothing. Thread-safe; the
/// freelist is scratch, not state, hence the const interface.
class RunnerPool {
 public:
  explicit RunnerPool(LinkedPlan lp) : lp_(std::move(lp)) {}

  const LinkedPlan& linked() const { return lp_; }

  class Lease {
   public:
    Lease(const RunnerPool& pool, std::unique_ptr<LinkedRunner> r)
        : pool_(&pool), runner_(std::move(r)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { pool_->give_back(std::move(runner_)); }
    LinkedRunner* operator->() const { return runner_.get(); }

   private:
    const RunnerPool* pool_;
    std::unique_ptr<LinkedRunner> runner_;
  };

  Lease lease() const;

 private:
  void give_back(std::unique_ptr<LinkedRunner> r) const;

  LinkedPlan lp_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<LinkedRunner>> free_;
};

}  // namespace bernoulli::compiler
