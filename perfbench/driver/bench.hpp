// Shared pieces of the end-to-end benchmark driver: clock, statistics,
// benchmark-owned spans, the host-speed calibration kernel, the input
// generators and the correctness oracle.
//
// Everything here is the benchmark's own code. The program under test is
// reached only through the public headers of compiler, formats, solvers,
// spmd, runtime, server and support, and every layer is timed from the
// outside, around the calls into it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "formats/csr.hpp"

namespace perfbench {

using bernoulli::index_t;
using bernoulli::value_t;
using bernoulli::Vector;
using bernoulli::formats::Csr;

/// Seconds on the steady clock since the first call in this process.
double now_s();

// ---------------------------------------------------------------- stats

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------- rng

/// splitmix64: the benchmark's only source of randomness, so the same seed
/// always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Stateless hash of (seed, a, b) to [0, 1): symmetric couplings without
/// storing them.
double hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

// ---------------------------------------------------------------- inputs

/// SPD stencil matrix: points on an nx x ny x nz grid, `dof` unknowns per
/// point, 5-point (nz == 1) or 7-point coupling with dense dof x dof blocks
/// between neighbouring points. Off-diagonal values are negative and
/// symmetric; the diagonal is the row's absolute off-diagonal sum times
/// (1 + margin), so the matrix is strictly diagonally dominant.
Csr stencil_matrix(index_t nx, index_t ny, index_t nz, index_t dof,
                   double margin, std::uint64_t seed);

Vector random_vector(std::size_t n, std::uint64_t seed);

// ---------------------------------------------------------------- spans

/// Benchmark-owned tracer: spans (name, start, end, parent, operation id)
/// kept in memory and written out at exit. A span's layer is its name up
/// to the first '.'.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double t0 = 0.0, t1 = 0.0;
    long parent = -1;
    long op = -1;
    int tid = 0;  // recording thread, numbered from 1 in order of first use
  };

  long open(const char* name, long op);
  void close(long id);

  /// Makes `parent` the current span of the calling thread (spans opened
  /// on rank or client threads then nest under the span that spawned
  /// them).
  static void adopt(long parent);

  std::vector<Span> spans() const;

  /// Self time per layer (span duration minus the part its children
  /// cover), summed over the spans whose index `keep` accepts.
  std::map<std::string, double> self_time_by_layer(
      const std::function<bool(std::size_t)>& keep) const;

  /// Chrome trace-event JSON of every span; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a no-op without a tracer (untraced runs pass nullptr).
class Scope {
 public:
  Scope(Tracer* t, const char* name, long op = -1)
      : t_(t), id_(t_ != nullptr ? t_->open(name, op) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  long id() const { return id_; }

 private:
  Tracer* t_;
  long id_;
};

// ---------------------------------------------------------- calibration

/// Host-speed calibration: a plain CSR SpMV loop over a private 2-D
/// stencil, owned by the benchmark so no change to the program can move
/// it. The loop runs on as many threads as the workload keeps busy, each
/// with its own output; one sample is the median over a few passes of the
/// slowest thread's pass, in ns per nonzero. Every
/// timing is reported at a fixed nominal host speed,
///   normalized = raw * kNominalNsPerNnz / calibration adjacent in time.
class Calibrator {
 public:
  static constexpr double kNominalNsPerNnz = 1.0;
  static constexpr index_t kSide = 192;
  static constexpr int kPasses = 5;

  explicit Calibrator(int threads);

  /// Takes one sample. The caller guarantees that no operation of the
  /// program is in flight; the sample's interval is logged so the run can
  /// verify that.
  double sample();

  struct Sample {
    double t0 = 0.0, t1 = 0.0, ns_per_nnz = 0.0;
  };
  const std::vector<Sample>& log() const { return log_; }

  /// Calibration adjacent to [t0, t1]: the median of the samples taken
  /// within kWindowS of the interval, or of the samples bracketing it when
  /// fewer than kMinWindow lie that close. Single samples are noisy at the
  /// millisecond scale; the window keeps the slow drift and drops that.
  double adjacent(double t0, double t1) const;
  static constexpr double kWindowS = 1.0;
  static constexpr int kMinWindow = 3;

  /// kNominalNsPerNnz / adjacent(t0, t1).
  double factor(double t0, double t1) const;

  /// max / min over all samples.
  double spread() const;
  double median_ns_per_nnz() const;

 private:
  std::vector<index_t> rowptr_, colind_;
  int threads_;
  std::vector<double> vals_, x_;
  std::vector<std::vector<double>> y_;  // one output per thread
  std::vector<Sample> log_;
};

struct Interval {
  double t0 = 0.0, t1 = 0.0;
};

/// Self-check of the calibration guard: number of calibration samples
/// that overlap an operation interval (must be 0).
int count_overlaps(const std::vector<Calibrator::Sample>& cal,
                   std::vector<Interval> ops);

// --------------------------------------------------------------- oracle

/// A solve is correct iff it converged, its residual ||b - A x||_2,
/// recomputed with formats::spmv, is within tol * ||b||_2, and its
/// iteration count equals the hand-kernel reference's.
bool solve_ok(const Csr& a, const Vector& b, const Vector& x, double tol,
              int iterations, bool converged, int reference_iterations);

/// A served response is correct iff it is bitwise equal to the reference.
bool response_ok(const double* y, const double* ref, std::size_t n);

// --------------------------------------------------------------- result

/// One metric as the driver prints it.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

int min_ranks();  // min(4, hardware threads)

}  // namespace perfbench
