// Pipeline-wide runtime counters (the observability layer).
//
// Named monotonic counters and time counters, threaded through the join
// executor (probes, merge steps, tuples), the relation views (hash probes,
// accumulator fill-ins), the communication schedules and the simulated
// machine (per-phase messages/bytes/virtual time). Both kinds live in the
// one observability registry (support/metrics.hpp): counter(name) is a
// mutex-protected lookup, but the returned Counter& is stable for the life
// of the process, so hot paths pay one lookup (function-local static) and
// then a relaxed atomic add per event. They are read through the one
// snapshot (metrics_snapshot().counts / .seconds) and zeroed by the one
// reset (metrics_reset()).
//
// Phases: instrumented communication and virtual-time counters are split
// by a per-thread PHASE TAG ("main" by default; the inspector/executor
// paths scope it to "inspector"/"executor"), which is what lets a bench
// attribute traffic to the inspector vs. the executor and reconcile the
// split against runtime::CommStats totals.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

namespace bernoulli::support {

/// Monotonic event counter. Relaxed atomics: totals are exact, ordering
/// between counters is not promised.
class Counter {
 public:
  void add(long long delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Accumulated seconds (virtual or wall); same contract as Counter.
class TimeCounter {
 public:
  void add(double seconds) { v_.fetch_add(seconds, std::memory_order_relaxed); }
  double seconds() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Registry lookup; registers the counter on first use. The reference
/// stays valid for the life of the process.
Counter& counter(const std::string& name);
TimeCounter& time_counter(const std::string& name);

struct MetricsSnapshot;  // support/metrics.hpp

/// Renders a snapshot's counters as an aligned text block. Deterministic:
/// one line per counter, sorted by name (count counters first, then time
/// counters), two spaces of padding to the widest included name.
/// `skip_zero` filters zero-valued counters — with a long-lived registry
/// most names are noise for any single run, so reports pass true.
std::string counters_text(const MetricsSnapshot& snap, bool skip_zero = false);

/// JSON object {"counts": {...}, "seconds": {...}}, sorted by name.
std::string counters_json(const MetricsSnapshot& snap, int indent = 0);

/// Per-thread phase tag, prepended as "comm.<phase>." / "vtime.<phase>."
/// by the instrumented communication layer. Defaults to "main". The tag
/// can ONLY be changed through PhaseScope: an exception-safe RAII scope is
/// the one shape that cannot leak a phase past its region (a manual
/// set/restore pair would stick on an early return or a throw, silently
/// mis-attributing every later counter).
const std::string& counter_phase();

/// RAII phase scope: installs `phase` for this thread, restores the
/// previous phase on destruction (including unwinding).
class PhaseScope {
 public:
  explicit PhaseScope(std::string phase);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  std::string saved_;
};

/// Phase-qualified lookups: counter("comm." + phase() + "." + suffix).
Counter& phase_counter(std::string_view family, std::string_view suffix);
TimeCounter& phase_time_counter(std::string_view family,
                                std::string_view suffix);

}  // namespace bernoulli::support
