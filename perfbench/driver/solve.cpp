// The two time-to-solution workloads: one complete Jacobi-PCG solve, from
// compile to converged x, is one operation.
//
//   cg_stencil2d    single thread, compiler::compile + CompiledKernel::run
//                   for the SpMV and the solvers BLAS-1 helpers for the
//                   rest, on a 2-D 5-point stencil (short rows).
//   dist_cg_grid3d  spmd::compile_dist_matvec + solvers::dist_cg_compiled
//                   over a BlockDist on simulated ranks, on the paper's
//                   3-D 7-point stencil with 5 unknowns per point. Timed
//                   on the simulated machine's clock, the paper's "time on
//                   P processors".
#include <cmath>
#include <mutex>

#include "compiler/loopnest.hpp"
#include "distrib/distribution.hpp"
#include "formats/csr.hpp"
#include "runtime/machine.hpp"
#include "solvers/cg.hpp"
#include "solvers/dist_cg.hpp"
#include "spmd/dist_compile.hpp"
#include "spmd/matvec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cmp = bernoulli::compiler;
namespace rt = bernoulli::runtime;
namespace sol = bernoulli::solvers;
namespace spmd = bernoulli::spmd;
using bernoulli::ConstVectorView;
using bernoulli::VectorView;

namespace {

constexpr double kTolerance = 1e-8;
constexpr int kMaxIterations = 200;
constexpr int kWarmupOps = 2;
constexpr int kMinOps = 20;  // even on a slow host, enough for a median

struct System {
  Csr a;
  Vector b, diag;
  int reference_iterations = 0;
};

sol::CgOptions cg_options() {
  sol::CgOptions o;
  o.max_iterations = kMaxIterations;
  o.tolerance = kTolerance;
  return o;
}

/// One solve, the part of it that was set-up, and whether the oracle
/// accepted its output.
struct SolveRecord {
  Timed op, setup;
  bool ok = false;
};

/// The measured loop shared by both solve workloads: warm-up, then
/// operations until the deadline, with a calibration sample between every
/// two operations (the program is idle then: solves run one at a time).
template <typename RunOne>
Phase solve_loop(double seconds, Calibrator& cal, RunOne&& run_one) {
  for (int i = 0; i < kWarmupOps; ++i) run_one(-1 - i);
  Phase ph;
  cal.sample();
  const double deadline = now_s() + seconds;
  for (long i = 0; now_s() < deadline || i < kMinOps; ++i) {
    const SolveRecord r = run_one(i);
    cal.sample();
    ph.ops.push_back(r.op);
    ph.windows.push_back(r.op);
    ph.setups.push_back(r.setup);
    ++ph.attempted;
    if (!r.ok) ++ph.failed;
  }
  return ph;
}

// ------------------------------------------------------------ cg_stencil2d

class CgStencil2d final : public Workload {
 public:
  static constexpr index_t kSide = 192;
  static constexpr int kSystems = 4;
  static constexpr double kMargin = 0.5;

  void prepare(std::uint64_t seed) override {
    for (int k = 0; k < kSystems; ++k) {
      System s;
      s.a = stencil_matrix(kSide, kSide, 1, 1, kMargin, seed * 1000 + k);
      s.b = random_vector(static_cast<std::size_t>(s.a.rows()), seed * 7919 + k);
      s.diag = sol::extract_diagonal(s.a);
      Vector x(s.b.size(), 0.0);
      s.reference_iterations = sol::cg(s.a, s.b, x, cg_options()).iterations;
      systems_.push_back(std::move(s));
    }
  }

  const Csr& representative() const override { return systems_[0].a; }
  double tail_quantile() const override { return 0.90; }
  int threads() const override { return 1; }

  Phase measure(double seconds, Calibrator& cal, Tracer* tracer) override {
    std::vector<int> iterations;
    Phase ph = solve_loop(seconds, cal, [&](long op) {
      const System& s = systems_[static_cast<std::size_t>(
          (op < 0 ? -op : op) % kSystems)];
      SolveRecord r;
      int its = 0;
      bool converged = false;
      Vector x;
      Interval op_iv, setup_iv;
      {
        Scope span(op >= 0 ? tracer : nullptr, "bench.op", op);
        op_iv.t0 = setup_iv.t0 = now_s();
        x = solve(s, op >= 0 ? tracer : nullptr, op, &its, &converged,
                  &setup_iv.t1);
        op_iv.t1 = now_s();
      }
      r.op = wall(op_iv);
      r.setup = wall(setup_iv);
      Scope check(op >= 0 ? tracer : nullptr, "bench.oracle", op);
      r.ok = solve_ok(s.a, s.b, x, kTolerance, its, converged,
                      s.reference_iterations);
      if (op >= 0) iterations.push_back(its);
      return r;
    });
    if (tracer != nullptr) fill_layers(ph, *tracer, cal, iterations);
    return ph;
  }

 private:
  /// Jacobi-PCG with the exact recurrence of solvers::cg, but the SpMV is
  /// the compiled kernel Y(i) += A(i,j) * X(j) bound to (p, q).
  Vector solve(const System& s, Tracer* tr, long op, int* its_out,
               bool* converged_out, double* setup_end) const {
    const auto n = static_cast<std::size_t>(s.a.rows());
    Vector x(n, 0.0), r(n), z(n), p(n, 0.0), q(n, 0.0);
    cmp::Bindings bindings;
    bindings.bind_csr("A", s.a);
    bindings.bind_dense_vector("X", ConstVectorView(p));
    bindings.bind_dense_vector("Y", VectorView(q));
    const cmp::LoopNest nest{
        {{"i", s.a.rows()}, {"j", s.a.cols()}},
        {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0},
    };
    cmp::CompiledKernel kernel = [&] {
      Scope span(tr, "compiler.compile", op);
      return cmp::compile(nest, bindings);
    }();
    {
      // The first run links the plan; with p = x0 = 0 it also computes the
      // initial A x0 the reference solver starts from.
      Scope span(tr, "compiler.first_run", op);
      kernel.run();
    }
    auto precond = [&] {
      for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / s.diag[i];
    };
    double rz = 0.0, threshold = 0.0;
    {
      Scope span(tr, "solvers.blas1", op);
      for (std::size_t i = 0; i < n; ++i) r[i] = s.b[i] - q[i];
      precond();
      std::copy(z.begin(), z.end(), p.begin());
      rz = sol::dot(r, z);
      threshold = kTolerance * std::sqrt(sol::dot(s.b, s.b));
    }
    *setup_end = now_s();
    int its = 0;
    bool converged = false;
    for (int it = 0; it < kMaxIterations; ++it) {
      {
        Scope span(tr, "solvers.blas1", op);
        converged = std::sqrt(sol::dot(r, r)) <= threshold;
      }
      if (converged) break;
      std::fill(q.begin(), q.end(), 0.0);
      {
        Scope span(tr, "compiler.run", op);
        kernel.run();
      }
      Scope span(tr, "solvers.blas1", op);
      const double pq = sol::dot(p, q);
      if (pq == 0.0) break;
      const double alpha = rz / pq;
      sol::axpy(alpha, p, x);
      sol::axpy(-alpha, q, r);
      precond();
      const double rz_new = sol::dot(r, z);
      sol::xpby(z, rz_new / rz, p);
      rz = rz_new;
      its = it + 1;
    }
    if (!converged) converged = std::sqrt(sol::dot(r, r)) <= threshold;
    *its_out = its;
    *converged_out = converged;
    return x;
  }

  void fill_layers(Phase& ph, const Tracer& t, const Calibrator& cal,
                   const std::vector<int>& iterations) const {
    const double nnz = static_cast<double>(systems_[0].a.nnz());
    const double rows = static_cast<double>(systems_[0].a.rows());
    const auto run = span_seconds(t, cal, "compiler.run");
    const auto first = span_seconds(t, cal, "compiler.first_run");
    const auto blas1 = span_seconds(t, cal, "solvers.blas1");
    const auto ops = span_seconds(t, cal, "bench.op");
    double run_sum = 0.0, first_sum = 0.0, blas1_sum = 0.0, op_sum = 0.0;
    for (double v : run) run_sum += v;
    for (double v : first) first_sum += v;
    for (double v : blas1) blas1_sum += v;
    for (double v : ops) op_sum += v;
    double its = 0.0;
    for (int i : iterations) its += i;
    put(ph.layers, "compiler.compile_s",
        median(span_seconds(t, cal, "compiler.compile")), "s");
    put(ph.layers, "compiler.link_s", median(first) - median(run), "s");
    put(ph.layers, "compiler.spmv_ns_per_nnz", median(run) * 1e9 / nnz, "ns");
    put(ph.layers, "compiler.spmv_share", (run_sum + first_sum) / op_sum,
        "ratio");
    std::vector<double> itv(iterations.begin(), iterations.end());
    put(ph.layers, "solvers.iterations", median(itv), "count");
    put(ph.layers, "solvers.blas1_ns_per_row_iter",
        blas1_sum * 1e9 / (rows * its), "ns");
  }

  std::vector<System> systems_;
};

// ---------------------------------------------------------- dist_cg_grid3d

class DistCgGrid3d final : public Workload {
 public:
  static constexpr index_t kSide = 16;
  static constexpr index_t kDof = 5;
  static constexpr int kSystems = 2;
  static constexpr double kMargin = 0.06;
  static constexpr int kWarmTag = 7001;

  void prepare(std::uint64_t seed) override {
    ranks_ = min_ranks();
    for (int k = 0; k < kSystems; ++k) {
      System s;
      s.a = stencil_matrix(kSide, kSide, kSide, kDof, kMargin, seed * 1000 + k);
      s.b = random_vector(static_cast<std::size_t>(s.a.rows()), seed * 7919 + k);
      s.diag = sol::extract_diagonal(s.a);
      s.reference_iterations = hand_reference(s);
      systems_.push_back(std::move(s));
    }
  }

  const Csr& representative() const override { return systems_[0].a; }
  double tail_quantile() const override { return 0.90; }
  int ranks() const override { return ranks_; }
  int threads() const override { return ranks_; }

  Phase measure(double seconds, Calibrator& cal, Tracer* tracer) override {
    std::vector<OpStats> stats;
    Phase ph = solve_loop(seconds, cal, [&](long op) {
      const System& s = systems_[static_cast<std::size_t>(
          (op < 0 ? -op : op) % kSystems)];
      Tracer* tr = op >= 0 ? tracer : nullptr;
      SolveRecord r;
      OpStats st;
      Vector x(s.b.size(), 0.0);
      {
        Scope span(tr, "bench.op", op);
        r.op.when.t0 = r.setup.when.t0 = now_s();
        st = solve(s, tr, op, x, &r.setup.when.t1);
        r.op.when.t1 = now_s();
      }
      // Time to solution on the simulated machine: the slowest rank's
      // virtual clock (compute charged as thread CPU time, messages by the
      // cost model), which host scheduling noise does not reach.
      for (const auto& rep : st.reports)
        r.op.seconds = std::max(r.op.seconds, rep.virtual_time);
      r.setup.seconds = st.setup_vtime;
      Scope check(tr, "bench.oracle", op);
      r.ok = solve_ok(s.a, s.b, x, kTolerance, st.iterations, st.converged,
                      s.reference_iterations);
      if (op >= 0) {
        st.factor = cal.factor(r.op.when.t0, r.op.when.t1);
        stats.push_back(st);
      }
      return r;
    });
    if (tracer != nullptr) fill_layers(ph, *tracer, cal, stats);
    return ph;
  }

 private:
  struct OpStats {
    int iterations = 0;
    bool converged = false;
    std::vector<rt::Machine::RankReport> reports;
    double setup_vtime = 0.0;  // virtual time when every rank is set up
    double machine_wall = 0.0, slowest_body = 0.0;
    double factor = 1.0;
  };

  /// Iteration count of the hand-kernel distributed solver on `s`.
  int hand_reference(const System& s) const {
    const bernoulli::distrib::BlockDist rows(s.a.rows(), ranks_);
    int iterations = -1;
    std::mutex mu;
    rt::Machine machine(ranks_);
    machine.run([&](rt::Process& p) {
      Vector bl, dl;
      slice(s, rows, p.rank(), &bl, &dl);
      const spmd::DistSpmv a = spmd::build_dist_spmv(
          p, s.a, rows, spmd::Variant::kBlockSolve);
      Vector xl(bl.size(), 0.0);
      const auto res = sol::dist_cg(p, a, dl, bl, xl, cg_options());
      const std::lock_guard<std::mutex> lk(mu);
      iterations = res.iterations;
    });
    return iterations;
  }

  static void slice(const System& s, const bernoulli::distrib::BlockDist& rows,
                    int rank, Vector* bl, Vector* dl) {
    const auto mine = rows.owned_indices(rank);
    bl->resize(mine.size());
    dl->resize(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      (*bl)[i] = s.b[static_cast<std::size_t>(mine[i])];
      (*dl)[i] = s.diag[static_cast<std::size_t>(mine[i])];
    }
  }

  /// One distributed solve: compile (inspector + local plan), one warm
  /// matvec that links the local plan, then dist_cg_compiled. Set-up ends
  /// when every rank is ready for the solver.
  OpStats solve(const System& s, Tracer* tr, long op, Vector& x,
                double* setup_end) const {
    const bernoulli::distrib::BlockDist rows(s.a.rows(), ranks_);
    OpStats st;
    std::vector<double> body(static_cast<std::size_t>(ranks_), 0.0);
    std::mutex mu;
    rt::Machine machine(ranks_);
    const double t0 = now_s();
    {
      Scope span(tr, "runtime.machine_run", op);
      const long parent = span.id();
      st.reports = machine.run([&](rt::Process& p) {
        if (tr != nullptr) Tracer::adopt(parent);
        const double b0 = now_s();
        Vector bl, dl;
        slice(s, rows, p.rank(), &bl, &dl);
        spmd::DistKernel k = [&] {
          Scope span(tr, "spmd.compile_dist", op);
          return spmd::compile_dist_matvec(p, s.a, rows);
        }();
        {
          Scope span(tr, "spmd.warm_run", op);
          VectorView xo = k.x_owned();
          std::fill(xo.begin(), xo.end(), 0.0);
          k.run(p, kWarmTag);
        }
        p.barrier();
        if (p.rank() == 0) {
          *setup_end = now_s();
          st.setup_vtime = p.virtual_time();
        }
        Vector xl(bl.size(), 0.0);
        sol::DistCgResult res;
        {
          Scope span(tr, "solvers.dist_cg", op);
          res = sol::dist_cg_compiled(p, k, dl, bl, xl, cg_options());
        }
        const auto mine = rows.owned_indices(p.rank());
        for (std::size_t i = 0; i < mine.size(); ++i)
          x[static_cast<std::size_t>(mine[i])] = xl[i];
        const std::lock_guard<std::mutex> lk(mu);
        body[static_cast<std::size_t>(p.rank())] = now_s() - b0;
        if (p.rank() == 0) {
          st.iterations = res.iterations;
          st.converged = res.converged;
        }
      });
    }
    st.machine_wall = now_s() - t0;
    for (double b : body) st.slowest_body = std::max(st.slowest_body, b);
    return st;
  }

  void fill_layers(Phase& ph, const Tracer& t, const Calibrator& cal,
                   const std::vector<OpStats>& stats) const {
    std::vector<double> its, sim, imbalance, msgs, bytes, colls, overhead;
    for (const OpStats& st : stats) {
      double vmax = 0.0, vsum = 0.0;
      bernoulli::runtime::CommStats c;
      for (const auto& r : st.reports) {
        vmax = std::max(vmax, r.virtual_time);
        vsum += r.virtual_time;
        c += r.stats;
      }
      its.push_back(st.iterations);
      sim.push_back(vmax * st.factor);
      imbalance.push_back(vmax * static_cast<double>(st.reports.size()) / vsum);
      msgs.push_back(static_cast<double>(c.messages));
      bytes.push_back(static_cast<double>(c.bytes));
      colls.push_back(static_cast<double>(c.collectives));
      overhead.push_back((st.machine_wall - st.slowest_body) * st.factor);
    }
    put(ph.layers, "solvers.iterations", median(its), "count");
    put(ph.layers, "solvers.dist_cg_s",
        median(span_max_per_op(t, cal, "solvers.dist_cg")), "s");
    put(ph.layers, "spmd.compile_dist_s",
        median(span_max_per_op(t, cal, "spmd.compile_dist")), "s");
    put(ph.layers, "runtime.sim_time_s", median(sim), "s");
    put(ph.layers, "runtime.rank_imbalance", median(imbalance), "ratio");
    put(ph.layers, "runtime.messages_per_solve", median(msgs), "count");
    put(ph.layers, "runtime.bytes_per_solve", median(bytes), "bytes");
    put(ph.layers, "runtime.collectives_per_solve", median(colls), "count");
    put(ph.layers, "runtime.run_overhead_s", median(overhead), "s");
  }

  int ranks_ = 1;
  std::vector<System> systems_;
};

}  // namespace

std::unique_ptr<Workload> make_solve_workload(const std::string& name) {
  if (name == "cg_stencil2d") return std::make_unique<CgStencil2d>();
  if (name == "dist_cg_grid3d") return std::make_unique<DistCgGrid3d>();
  return nullptr;
}

}  // namespace perfbench
