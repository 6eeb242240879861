#include "support/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <variant>

#include "support/error.hpp"
#include "support/json_writer.hpp"

namespace bernoulli::support {

namespace {

// The one registry. Leaked on purpose: worker threads may book during
// late shutdown, past static destruction, and a leaked registry keeps
// every returned reference valid for the whole process lifetime. Each
// entry owns exactly one metric of one kind; the map is the only storage
// (node-based, so entries never move).
using Entry = std::variant<std::unique_ptr<Counter>,
                           std::unique_ptr<TimeCounter>,
                           std::unique_ptr<Log2Histogram>,
                           std::unique_ptr<MetricRate>,
                           std::unique_ptr<MetricGauge>,
                           std::unique_ptr<LatencyHistogram>>;

struct Registry {
  std::mutex mu;  // guards by_name
  std::map<std::string, Entry> by_name;
  ProfileSnapshot profile;  // guarded by metrics_commit_mutex(), not mu
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

template <typename T>
T& lookup(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.by_name.find(name);
  if (it == r.by_name.end())
    it = r.by_name.emplace(name, std::make_unique<T>()).first;
  auto* held = std::get_if<std::unique_ptr<T>>(&it->second);
  BERNOULLI_CHECK_MSG(held != nullptr,
                      "metric '" << name
                                 << "' is already registered as another kind");
  return **held;
}

// One entry's value into the snapshot map of its kind. The registry walk
// is in name order, so every insert lands at the end (hinted, O(1)).
template <typename Map, typename V>
void put(Map& m, const std::string& name, V&& v) {
  m.emplace_hint(m.end(), name, std::forward<V>(v));
}

void read(MetricsSnapshot& s, const std::string& n, const Counter& m) {
  put(s.counts, n, m.value());
}
void read(MetricsSnapshot& s, const std::string& n, const TimeCounter& m) {
  put(s.seconds, n, m.seconds());
}
void read(MetricsSnapshot& s, const std::string& n, const Log2Histogram& m) {
  std::vector<long long> buckets(Log2Histogram::kBuckets);
  for (int i = 0; i < Log2Histogram::kBuckets; ++i)
    buckets[static_cast<std::size_t>(i)] = m.bucket(i);
  put(s.histograms, n, std::move(buckets));
}
void read(MetricsSnapshot& s, const std::string& n, const MetricRate& m) {
  put(s.rates, n, m.value());
}
void read(MetricsSnapshot& s, const std::string& n, const MetricGauge& m) {
  put(s.gauges, n, m.value());
}
void read(MetricsSnapshot& s, const std::string& n,
          const LatencyHistogram& m) {
  put(s.latencies, n, m.snapshot());
}

// `a.b.c` -> `a_b_c`: Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int metric_shard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

int LatencyHistogram::bucket_of(long long ns) {
  if (ns < 0) ns = 0;
  if (ns < kLinearBuckets) return static_cast<int>(ns);
  // Power-of-two group k = floor(log2 ns) >= 4, split into kSubBuckets
  // equal sub-ranges addressed by the two bits below the leading bit.
  const int k = std::bit_width(static_cast<unsigned long long>(ns)) - 1;
  const int sub = static_cast<int>((ns >> (k - 2)) & 3);
  const int b = kLinearBuckets + (k - 4) * kSubBuckets + sub;
  return std::min(b, kBuckets - 1);
}

long long LatencyHistogram::bucket_lower(int b) {
  if (b < kLinearBuckets) return b;
  const int g = b - kLinearBuckets;
  const int k = 4 + g / kSubBuckets;
  const int sub = g % kSubBuckets;
  return (1LL << k) + static_cast<long long>(sub) * (1LL << (k - 2));
}

long long LatencyHistogram::bucket_upper(int b) {
  if (b >= kBuckets - 1) return LLONG_MAX;
  return bucket_lower(b + 1) - 1;
}

void LatencyHistogram::record_ns(long long ns) {
  if (ns < 0) ns = 0;
  Shard& s = shards_[metric_shard()];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(ns, std::memory_order_relaxed);
  s.buckets[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS min/max: no fetch_min in the standard library.
  long long cur = s.min.load(std::memory_order_relaxed);
  while (ns < cur &&
         !s.min.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (ns > cur &&
         !s.max.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

LatencySnapshot LatencyHistogram::snapshot() const {
  LatencySnapshot snap;
  snap.buckets.assign(kBuckets, 0);
  long long mn = LLONG_MAX;
  long long mx = LLONG_MIN;
  // Fixed shard order; every merged quantity is an integer sum or min/max,
  // so the result is independent of which thread recorded into which shard.
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum_ns += s.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, s.min.load(std::memory_order_relaxed));
    mx = std::max(mx, s.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; ++b)
      snap.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[b].load(std::memory_order_relaxed);
  }
  snap.min_ns = snap.count == 0 ? 0 : mn;
  snap.max_ns = snap.count == 0 ? 0 : mx;
  return snap;
}

void LatencyHistogram::reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(LLONG_MAX, std::memory_order_relaxed);
    s.max.store(LLONG_MIN, std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b)
      s.buckets[b].store(0, std::memory_order_relaxed);
  }
}

long long LatencySnapshot::quantile_ns(double q) const {
  if (count == 0) return 0;
  const long long want = static_cast<long long>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count)));
  const long long rank = std::clamp(want, 1LL, count);
  long long cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= rank)
      return std::clamp(LatencyHistogram::bucket_upper(static_cast<int>(b)),
                        min_ns, max_ns);
  }
  return max_ns;
}

Counter& counter(const std::string& name) { return lookup<Counter>(name); }

TimeCounter& time_counter(const std::string& name) {
  return lookup<TimeCounter>(name);
}

Log2Histogram& histogram(const std::string& name) {
  return lookup<Log2Histogram>(name);
}

MetricRate& metric_rate(const std::string& name) {
  return lookup<MetricRate>(name);
}

MetricGauge& metric_gauge(const std::string& name) {
  return lookup<MetricGauge>(name);
}

LatencyHistogram& metric_latency(const std::string& name) {
  return lookup<LatencyHistogram>(name);
}

std::mutex& metrics_commit_mutex() {
  // Leaked like the registry: flush sites may run during late shutdown.
  static std::mutex* mu = new std::mutex();
  return *mu;
}

ProfileSnapshot& profile_totals() { return registry().profile; }

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  // Calibrated once per process; kept outside the lock so the first
  // snapshot never holds the commit lock through the calibration loop.
  const long long timer_cost_ns = profile_timer_cost_ns();
  Registry& r = registry();
  const std::unique_lock<std::mutex> commit = metrics_commit_lock();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& [name, entry] : r.by_name)
      std::visit([&](const auto& m) { read(snap, name, *m); }, entry);
  }
  snap.profile = r.profile;
  snap.profile.timer_cost_ns = timer_cost_ns;
  return snap;
}

void metrics_reset() {
  Registry& r = registry();
  const std::unique_lock<std::mutex> commit = metrics_commit_lock();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    for (auto& [name, entry] : r.by_name)
      std::visit([](const auto& m) { m->reset(); }, entry);
  }
  r.profile = ProfileSnapshot{};
}

std::string metrics_json(const MetricsSnapshot& snap, int indent) {
  JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("bernoulli.metrics.v1");
  w.key("rates").begin_object();
  for (const auto& [name, v] : snap.rates) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) w.key(name).value(v);
  w.end_object();
  w.key("latency").begin_object();
  for (const auto& [name, h] : snap.latencies) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("sum_ns").value(h.sum_ns);
    w.key("min_ns").value(h.min_ns);
    w.key("max_ns").value(h.max_ns);
    w.key("mean_ns").value(h.mean_ns());
    w.key("p50_ns").value(h.p50_ns());
    w.key("p95_ns").value(h.p95_ns());
    w.key("p99_ns").value(h.p99_ns());
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      w.begin_array();
      w.value(LatencyHistogram::bucket_lower(static_cast<int>(b)));
      w.value(h.buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string metrics_prometheus_text(const MetricsSnapshot& snap) {
  std::ostringstream os;
  for (const auto& [name, v] : snap.rates) {
    const std::string p = "bernoulli_" + prom_name(name) + "_total";
    os << "# TYPE " << p << " counter\n" << p << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string p = "bernoulli_" + prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << prom_double(v) << "\n";
  }
  for (const auto& [name, h] : snap.latencies) {
    // Prometheus histograms are conventionally in seconds; `le` bounds are
    // the exact integer-ns bucket uppers scaled down.
    std::string base = prom_name(name);
    // "execute.latency" -> bernoulli_execute_latency_seconds
    const std::string p = "bernoulli_" + base + "_seconds";
    os << "# TYPE " << p << " histogram\n";
    long long cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cum += h.buckets[b];
      const long long upper =
          LatencyHistogram::bucket_upper(static_cast<int>(b));
      os << p << "_bucket{le=\"";
      if (upper == LLONG_MAX)
        os << "+Inf";
      else
        os << prom_double(static_cast<double>(upper) / 1e9);
      os << "\"} " << cum << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << p << "_sum " << prom_double(static_cast<double>(h.sum_ns) / 1e9)
       << "\n";
    os << p << "_count " << h.count << "\n";
  }
  return os.str();
}

bool metrics_write_prometheus(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << metrics_prometheus_text(metrics_snapshot());
  return static_cast<bool>(out);
}

std::string metrics_text(const MetricsSnapshot& snap, bool skip_zero) {
  std::size_t width = 0;
  for (const auto& [name, v] : snap.rates)
    if (!skip_zero || v != 0) width = std::max(width, name.size());
  for (const auto& [name, v] : snap.gauges)
    if (!skip_zero || v != 0.0) width = std::max(width, name.size());
  for (const auto& [name, h] : snap.latencies)
    if (!skip_zero || h.count != 0) width = std::max(width, name.size());
  std::ostringstream os;
  for (const auto& [name, v] : snap.rates) {
    if (skip_zero && v == 0) continue;
    os << name << std::string(width - name.size() + 2, ' ') << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    if (skip_zero && v == 0.0) continue;
    os << name << std::string(width - name.size() + 2, ' ') << v << "\n";
  }
  for (const auto& [name, h] : snap.latencies) {
    if (skip_zero && h.count == 0) continue;
    os << name << std::string(width - name.size() + 2, ' ') << "count="
       << h.count << " sum=" << h.sum_ns << "ns p50=" << h.p50_ns()
       << "ns p95=" << h.p95_ns() << "ns p99=" << h.p99_ns()
       << "ns max=" << h.max_ns << "ns\n";
  }
  return os.str();
}

}  // namespace bernoulli::support
