// Serving-era metrics: rates, gauges, and latency histograms.
//
// A second process-global registry next to the counter registry
// (counters.hpp), for the numbers a *server* needs rather than the numbers
// a *compiler* needs: how long did each execute take (distribution, not
// just total), how many model-bytes did it move, what is the current
// residual. Three metric kinds:
//
//   MetricRate       monotonic long long, like Counter but thread-sharded
//   MetricGauge      last-write-wins double (e.g. cg.residual)
//   LatencyHistogram fixed-bucket log-linear histogram over integer
//                    nanoseconds with exact count/sum/min/max and
//                    deterministic p50/p95/p99
//
// Shard-and-flush discipline: every recording path books into the calling
// thread's shard with one relaxed atomic op — no locks, no contention on
// the hot path — and snapshots merge the shards in fixed shard order.
// Because every merged quantity is an integer sum (or min/max), the merge
// is order-independent: a serial run and a `--threads=N` run that record
// the same multiset of values produce bitwise-identical snapshots. This is
// the same discipline as the ParallelRunner counter shards, extended to
// distributions.
//
// Latencies are recorded as integer NANOSECONDS (llround of seconds), so
// histogram sums reconcile exactly against the `execute.wall_ns` rate
// booked at the same site: hist.sum_ns == rate by construction, asserted
// in tests and by bench `--check`.
//
// Bucket layout (HDR-style log-linear, 164 buckets):
//   values 0..15         one bucket each (buckets 0..15)
//   values >= 16         4 sub-buckets per power-of-two group,
//                        groups 2^4..2^40 (buckets 16..163; ~40 min cap,
//                        larger values clamp into the last bucket)
// Relative quantile error is bounded by the sub-bucket width (< 1/4 of
// the value); percentiles are additionally clamped to the exact observed
// [min, max], so single-value and uniform-value histograms report exact
// percentiles.
#pragma once

#include <atomic>
#include <climits>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bernoulli::support {

/// Number of shards per metric. Threads map onto shards round-robin; two
/// threads sharing a shard stay correct (atomics), just contended.
inline constexpr int kMetricShards = 16;

/// Stable per-thread shard id in [0, kMetricShards).
int metric_shard();

/// Monotonic rate, thread-sharded. Totals are exact; value() merges the
/// shards in fixed order (integer sums: order-independent).
class MetricRate {
 public:
  void add(long long delta = 1) {
    shards_[metric_shard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const {
    long long total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<long long> v{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (e.g. the current CG residual).
class MetricGauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Merged view of one LatencyHistogram. Percentiles are a deterministic
/// function of the merged buckets, clamped to the exact observed min/max.
struct LatencySnapshot {
  long long count = 0;
  long long sum_ns = 0;
  long long min_ns = 0;
  long long max_ns = 0;
  std::vector<long long> buckets;  // size LatencyHistogram::kBuckets

  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
  /// q in [0, 1]. Walks the cumulative bucket counts to the ceil(q*count)-th
  /// recorded value and reports that bucket's upper bound, clamped to the
  /// exact [min_ns, max_ns]. Deterministic; 0 when empty.
  long long quantile_ns(double q) const;
  long long p50_ns() const { return quantile_ns(0.50); }
  long long p95_ns() const { return quantile_ns(0.95); }
  long long p99_ns() const { return quantile_ns(0.99); }
};

/// Fixed-bucket latency histogram over integer nanoseconds. record_ns is
/// one shard lookup plus five relaxed atomic ops; snapshot() merges.
class LatencyHistogram {
 public:
  static constexpr int kLinearBuckets = 16;  // values 0..15, exact
  static constexpr int kSubBuckets = 4;      // per power-of-two group
  static constexpr int kMaxPow = 40;         // last group covers 2^40..2^41
  static constexpr int kBuckets =
      kLinearBuckets + (kMaxPow - 4 + 1) * kSubBuckets;  // 164

  /// Bucket index for a value (negatives clamp to 0, huge values to the
  /// last bucket).
  static int bucket_of(long long ns);
  /// Smallest value mapping to bucket b.
  static long long bucket_lower(int b);
  /// Largest value mapping to bucket b (LLONG_MAX for the last bucket).
  static long long bucket_upper(int b);

  void record_ns(long long ns);
  void record_seconds(double seconds) {
    record_ns(std::llround(seconds * 1e9));
  }

  LatencySnapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<long long> count{0};
    std::atomic<long long> sum{0};
    std::atomic<long long> min{LLONG_MAX};
    std::atomic<long long> max{LLONG_MIN};
    std::atomic<long long> buckets[kBuckets] = {};
  };
  Shard shards_[kMetricShards];
};

/// Registry lookups; register on first use, references stay valid for the
/// life of the process (same leaked-registry contract as counter()).
MetricRate& metric_rate(const std::string& name);
MetricGauge& metric_gauge(const std::string& name);
LatencyHistogram& metric_latency(const std::string& name);

struct MetricsSnapshot {
  std::map<std::string, long long> rates;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencySnapshot> latencies;
};

/// The process-wide observability COMMIT lock. Individual metric and
/// counter updates are atomic, but a per-run flush books a GROUP of them
/// (one latency sample, the matching execute.wall_ns delta, the
/// executor.* counters, the fan-out buckets) that must appear all-or-
/// nothing to readers: a snapshot taken between two bookings of the same
/// run would observe a torn state where
/// execute.latency.sum_ns != execute.wall_ns. compiler::commit_run, the
/// one place every engine and the server's batch replay book a run, holds
/// this lock for the duration of the group booking, and
/// metrics_snapshot()/counters_snapshot() hold it while merging — so
/// snapshots only ever see whole runs. The hot path (recording inside a run) never touches it;
/// only the once-per-run commit and the readers do.
std::mutex& metrics_commit_mutex();

/// RAII convenience over metrics_commit_mutex().
inline std::unique_lock<std::mutex> metrics_commit_lock() {
  return std::unique_lock<std::mutex>(metrics_commit_mutex());
}

/// Snapshot of every registered metric (zero-valued ones included), taken
/// under the commit lock so concurrent per-run flushes appear atomic.
MetricsSnapshot metrics_snapshot();

/// Zeroes every registered metric; names and addresses survive.
void metrics_reset();

/// `bernoulli.metrics.v1` JSON document:
///   {"schema": "bernoulli.metrics.v1",
///    "rates": {name: value, ...},
///    "gauges": {name: value, ...},
///    "latency": {name: {"count", "sum_ns", "min_ns", "max_ns", "mean_ns",
///                       "p50_ns", "p95_ns", "p99_ns",
///                       "buckets": [[lower_ns, count], ...]}, ...}}
/// Bucket pairs list only non-zero buckets, sorted by lower bound.
std::string metrics_json(int indent = 0);

/// Prometheus text exposition (counter / gauge / histogram families,
/// names sanitized `a.b.c` -> `bernoulli_a_b_c`, histogram `le` labels in
/// seconds). Each family carries `# TYPE`; ends with a trailing newline.
std::string metrics_prometheus_text();

/// Writes metrics_prometheus_text() to `path`; false on I/O failure.
bool metrics_write_prometheus(const std::string& path);

/// Aligned text block for humans (rates, then gauges, then latency
/// summaries), sorted by name. `skip_zero` elides empty metrics.
std::string metrics_text(bool skip_zero = true);

}  // namespace bernoulli::support
