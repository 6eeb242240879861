// The three workloads and the layer probes, as the driver's main sees them.
#pragma once

#include <memory>

#include "bench.hpp"

namespace perfbench {

/// One timed thing: when it ran on the host (for the adjacent calibration
/// and the calibration guard) and how long it took by the workload's own
/// clock: host wall time, or virtual time on the simulated machine.
struct Timed {
  Interval when;
  double seconds = 0.0;
};
inline Timed wall(Interval iv) { return {iv, iv.t1 - iv.t0}; }

/// What one measured loop of a workload leaves behind. Times are raw;
/// normalization happens when metrics are derived.
struct Phase {
  std::vector<Timed> ops;      // one per operation (solve or request)
  std::vector<Timed> setups;   // one per fresh set-up
  std::vector<Timed> windows;  // program busy time, calibration excluded
  long long attempted = 0;
  long long failed = 0;
  /// Layer metrics measured in the run itself (traced phases only).
  Metrics layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed and computes the references.
  /// Untimed.
  virtual void prepare(std::uint64_t seed) = 0;

  /// Runs operations for `seconds` (plus warm-up and set-ups), taking
  /// calibration samples only while no operation is in flight. With a
  /// tracer, records spans around every layer call and fills
  /// Phase::layers.
  virtual Phase measure(double seconds, Calibrator& cal, Tracer* tracer) = 0;

  /// The matrix the layer probes run on.
  virtual const Csr& representative() const = 0;

  /// Tail percentile reported as latency_tail_us.
  virtual double tail_quantile() const = 0;

  /// Simulated ranks of the distributed layers (probes included).
  virtual int ranks() const { return min_ranks(); }

  /// Threads the workload keeps busy; the calibration kernel runs on as
  /// many.
  virtual int threads() const = 0;

  /// Per-layer metrics this workload derives from the others once the
  /// traced run and the probes are merged.
  virtual void derive(Metrics& /*layers*/) const {}
};

/// nullptr for a name the file does not define.
std::unique_ptr<Workload> make_solve_workload(const std::string& name);
std::unique_ptr<Workload> make_serve_workload(const std::string& name);

/// Direct measurements of every layer on `a`, used for each per-layer
/// metric the workload's own run does not produce (interleaved ratios
/// always come from here).
Metrics probe_layers(const Csr& a, int ranks, Calibrator& cal);

/// Normalized duration of every span named `name`, in seconds.
std::vector<double> span_seconds(const Tracer& t, const Calibrator& cal,
                                 const char* name);

/// Per operation: the longest normalized span named `name` (the slowest
/// rank), in seconds.
std::vector<double> span_max_per_op(const Tracer& t, const Calibrator& cal,
                                    const char* name);

inline void put(Metrics& m, const std::string& name, double v,
                const char* unit) {
  m[name] = Metric{v, unit};
}

}  // namespace perfbench
