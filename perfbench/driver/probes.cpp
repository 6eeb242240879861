// Layer probes: each layer called directly, on the workload's own matrix,
// between calibration samples. They give the interleaved ratios (which do
// not drift with host speed) on every workload, and every per-layer metric
// a workload's own run cannot time from outside (a call hidden inside
// another layer, or a layer the workload does not use).
#include <algorithm>
#include <mutex>

#include "compiler/loopnest.hpp"
#include "distrib/distribution.hpp"
#include "formats/csr.hpp"
#include "runtime/machine.hpp"
#include "server/kernel_server.hpp"
#include "solvers/cg.hpp"
#include "solvers/dist_cg.hpp"
#include "spmd/dist_compile.hpp"
#include "support/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace cmp = bernoulli::compiler;
namespace rt = bernoulli::runtime;
namespace sol = bernoulli::solvers;
namespace spmd = bernoulli::spmd;
using bernoulli::ConstVectorView;
using bernoulli::VectorView;

std::vector<double> span_seconds(const Tracer& t, const Calibrator& cal,
                                 const char* name) {
  std::vector<double> out;
  for (const Tracer::Span& s : t.spans())
    if (std::string_view(s.name) == name)
      out.push_back((s.t1 - s.t0) * cal.factor(s.t0, s.t1));
  return out;
}

std::vector<double> span_max_per_op(const Tracer& t, const Calibrator& cal,
                                    const char* name) {
  std::map<long, double> longest;
  for (const Tracer::Span& s : t.spans())
    if (std::string_view(s.name) == name) {
      double& m = longest[s.op];
      m = std::max(m, (s.t1 - s.t0) * cal.factor(s.t0, s.t1));
    }
  std::vector<double> out;
  for (const auto& [op, v] : longest) out.push_back(v);
  return out;
}

namespace {

constexpr int kReps = 15;
constexpr int kDistTag = 7101;
constexpr int kAllreducesPerBatch = 50;

/// Results the probes compute only to keep the work observable.
volatile double g_sink = 0.0;

cmp::LoopNest spmv_nest(const Csr& a) {
  return {{{"i", a.rows()}, {"j", a.cols()}},
          {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0}};
}

/// Normalized durations of `iv`, in seconds.
std::vector<double> normalized(const std::vector<Interval>& iv,
                               const Calibrator& cal) {
  std::vector<double> out;
  out.reserve(iv.size());
  for (const Interval& i : iv) out.push_back((i.t1 - i.t0) * cal.factor(i.t0, i.t1));
  return out;
}

/// Times fn(); the calibration samples around it are the caller's.
template <typename Fn>
Interval timed(Fn&& fn) {
  Interval iv;
  iv.t0 = now_s();
  fn();
  iv.t1 = now_s();
  return iv;
}

void probe_compiler(const Csr& a, Calibrator& cal, Metrics& m) {
  const auto n = static_cast<std::size_t>(a.rows());
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), 99);
  Vector y(n, 0.0), yh(n, 0.0);
  std::vector<Interval> compile_iv, first_iv, run_iv, hand_iv;
  cal.sample();
  for (int rep = 0; rep < 5; ++rep) {
    cmp::Bindings b;
    b.bind_csr("A", a);
    b.bind_dense_vector("X", ConstVectorView(x));
    b.bind_dense_vector("Y", VectorView(y));
    cmp::CompiledKernel k;
    compile_iv.push_back(timed([&] { k = cmp::compile(spmv_nest(a), b); }));
    std::fill(y.begin(), y.end(), 0.0);
    first_iv.push_back(timed([&] { k.run(); }));
  }
  cal.sample();
  cmp::Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  const cmp::CompiledKernel k = cmp::compile(spmv_nest(a), b);
  k.run();
  // Interleaved pairs, alternating which side goes first.
  for (int rep = 0; rep < kReps; ++rep) {
    auto run = [&] {
      std::fill(y.begin(), y.end(), 0.0);
      run_iv.push_back(timed([&] { k.run(); }));
    };
    auto hand = [&] {
      hand_iv.push_back(timed([&] { bernoulli::formats::spmv(a, x, yh); }));
    };
    if (rep % 2 == 0) {
      run();
      hand();
    } else {
      hand();
      run();
    }
  }
  cal.sample();
  std::vector<double> ratio;
  for (int i = 0; i < kReps; ++i)
    ratio.push_back((run_iv[static_cast<std::size_t>(i)].t1 - run_iv[static_cast<std::size_t>(i)].t0) /
                    (hand_iv[static_cast<std::size_t>(i)].t1 - hand_iv[static_cast<std::size_t>(i)].t0));
  const double nnz = static_cast<double>(a.nnz());
  const double run_s = median(normalized(run_iv, cal));
  put(m, "compiler.compile_s", median(normalized(compile_iv, cal)), "s");
  put(m, "compiler.link_s", median(normalized(first_iv, cal)) - run_s, "s");
  put(m, "compiler.spmv_ns_per_nnz", run_s * 1e9 / nnz, "ns");
  put(m, "compiler.slowdown_vs_hand", median(ratio), "ratio");
  put(m, "formats.hand_spmv_ns_per_nnz",
      median(normalized(hand_iv, cal)) * 1e9 / nnz, "ns");
}

void probe_blas1(const Csr& a, Calibrator& cal, Metrics& m) {
  const auto n = static_cast<std::size_t>(a.rows());
  Vector r = random_vector(n, 1), z(n), p = random_vector(n, 2),
         q = random_vector(n, 3), x(n, 0.0);
  const Vector d = sol::extract_diagonal(a);
  std::vector<Interval> iv;
  cal.sample();
  // One PCG iteration's BLAS-1 work, as the cg_stencil2d solve does it.
  for (int rep = 0; rep < kReps; ++rep)
    iv.push_back(timed([&] {
      const double rr = sol::dot(r, r);
      const double pq = sol::dot(p, q);
      sol::axpy(1e-3, p, x);
      sol::axpy(-1e-3, q, r);
      for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / d[i];
      const double rz = sol::dot(r, z);
      sol::xpby(z, 1e-3, p);
      g_sink = rr + pq + rz;
    }));
  cal.sample();
  put(m, "solvers.blas1_ns_per_row_iter",
      median(normalized(iv, cal)) * 1e9 / static_cast<double>(n), "ns");
}

/// A distributed solve on `a` as dist_cg_grid3d runs it, then timed
/// matvecs and allreduces on the same ranks.
void probe_dist(const Csr& a, int ranks, Calibrator& cal, Metrics& m) {
  const bernoulli::distrib::BlockDist rows(a.rows(), ranks);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), 5);
  const Vector diag = sol::extract_diagonal(a);
  const auto nr = static_cast<std::size_t>(ranks);
  std::vector<double> compile_s(nr), solve_s(nr), body_s(nr);
  std::vector<std::vector<double>> matvec_s(nr), allreduce_s(nr);
  long long ghosts = 0;
  int iterations = 0;
  std::mutex mu;
  sol::CgOptions opts;
  opts.max_iterations = 200;
  opts.tolerance = 1e-8;

  cal.sample();
  rt::Machine solve_machine(ranks);
  const double t0 = now_s();
  const auto reports = solve_machine.run([&](rt::Process& p) {
    const double b0 = now_s();
    const auto mine = rows.owned_indices(p.rank());
    Vector bl(mine.size()), dl(mine.size()), xl(mine.size(), 0.0);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      bl[i] = b[static_cast<std::size_t>(mine[i])];
      dl[i] = diag[static_cast<std::size_t>(mine[i])];
    }
    const double c0 = now_s();
    spmd::DistKernel k = spmd::compile_dist_matvec(p, a, rows);
    const double c1 = now_s();
    const auto res = sol::dist_cg_compiled(p, k, dl, bl, xl, opts);
    const double s1 = now_s();
    const std::lock_guard<std::mutex> lk(mu);
    const auto r = static_cast<std::size_t>(p.rank());
    compile_s[r] = c1 - c0;
    solve_s[r] = s1 - c1;
    body_s[r] = s1 - b0;
    ghosts += k.schedule().ghosts;
    if (p.rank() == 0) iterations = res.iterations;
  });
  const double t1 = now_s();
  cal.sample();
  const double f = cal.factor(t0, t1);

  rt::Machine timing_machine(ranks);
  const double u0 = now_s();
  timing_machine.run([&](rt::Process& p) {
    spmd::DistKernel k = spmd::compile_dist_matvec(p, a, rows);
    VectorView xo = k.x_owned();
    std::fill(xo.begin(), xo.end(), 1.0);
    k.run(p, kDistTag);
    std::vector<double> mv, ar;
    for (int rep = 0; rep < kReps; ++rep) {
      p.barrier();
      const double s0 = now_s();
      k.run(p, kDistTag);
      mv.push_back(now_s() - s0);
    }
    for (int rep = 0; rep < 5; ++rep) {
      p.barrier();
      const double s0 = now_s();
      double acc = 0.0;
      for (int i = 0; i < kAllreducesPerBatch; ++i) acc += p.allreduce_sum(1.0);
      ar.push_back((now_s() - s0) / kAllreducesPerBatch);
      g_sink = acc;
    }
    const std::lock_guard<std::mutex> lk(mu);
    matvec_s[static_cast<std::size_t>(p.rank())] = mv;
    allreduce_s[static_cast<std::size_t>(p.rank())] = ar;
  });
  const double u1 = now_s();
  cal.sample();
  const double g = cal.factor(u0, u1);

  // Per repetition the slowest rank, then the median over repetitions.
  auto slowest = [&](const std::vector<std::vector<double>>& per_rank) {
    std::vector<double> worst(per_rank[0].size(), 0.0);
    for (const auto& v : per_rank)
      for (std::size_t i = 0; i < v.size(); ++i) worst[i] = std::max(worst[i], v[i]);
    return median(worst) * g;
  };
  double vmax = 0.0, vsum = 0.0;
  bernoulli::runtime::CommStats c;
  for (const auto& r : reports) {
    vmax = std::max(vmax, r.virtual_time);
    vsum += r.virtual_time;
    c += r.stats;
  }
  const double matvec = slowest(matvec_s);
  const double dist_cg = *std::max_element(solve_s.begin(), solve_s.end()) * f;
  put(m, "solvers.iterations", iterations, "count");
  put(m, "solvers.dist_cg_s", dist_cg, "s");
  put(m, "spmd.compile_dist_s",
      *std::max_element(compile_s.begin(), compile_s.end()) * f, "s");
  put(m, "spmd.ghosts", static_cast<double>(ghosts), "count");
  put(m, "spmd.matvec_us", matvec * 1e6, "us");
  put(m, "runtime.sim_time_s", vmax * f, "s");
  put(m, "runtime.rank_imbalance", vmax * static_cast<double>(ranks) / vsum, "ratio");
  put(m, "runtime.messages_per_solve", static_cast<double>(c.messages), "count");
  put(m, "runtime.bytes_per_solve", static_cast<double>(c.bytes), "bytes");
  put(m, "runtime.collectives_per_solve", static_cast<double>(c.collectives), "count");
  put(m, "runtime.allreduce_us", slowest(allreduce_s) * 1e6, "us");
  put(m, "runtime.run_overhead_s",
      (t1 - t0 - *std::max_element(body_s.begin(), body_s.end())) * f, "s");
  // Share of the distributed solve spent in DistKernel::run, which wraps
  // the compiled local run() and the ghost exchange: one matvec for the
  // initial residual plus one per iteration.
  put(m, "compiler.spmv_share", matvec * (iterations + 1) / dist_cg, "ratio");
}

void probe_server(const Csr& a, Calibrator& cal, Metrics& m) {
  const auto n = static_cast<std::size_t>(a.rows());
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), 7);
  Vector ys(n), yd(n, 0.0);
  std::vector<Interval> reg_iv, spmv_iv, run_iv;
  cal.sample();
  for (int rep = 0; rep < 5; ++rep) {
    bernoulli::server::KernelServer s;
    reg_iv.push_back(timed([&] { s.add_csr("probe", a); }));
  }
  bernoulli::server::KernelServer s;
  const int h = s.add_csr("probe", a);
  for (int i = 0; i < 3; ++i) s.spmv(h, x, ys);
  cmp::Bindings b;
  b.bind_csr("A", a);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(yd));
  const cmp::CompiledKernel k = cmp::compile(spmv_nest(a), b);
  k.run();
  cal.sample();
  for (int rep = 0; rep < kReps; ++rep) {
    auto serve = [&] { spmv_iv.push_back(timed([&] { s.spmv(h, x, ys); })); };
    auto direct = [&] {
      run_iv.push_back(timed([&] {
        std::fill(yd.begin(), yd.end(), 0.0);
        k.run();
      }));
    };
    if (rep % 2 == 0) {
      serve();
      direct();
    } else {
      direct();
      serve();
    }
  }
  cal.sample();
  std::vector<double> ratio;
  for (std::size_t i = 0; i < spmv_iv.size(); ++i)
    ratio.push_back((spmv_iv[i].t1 - spmv_iv[i].t0) / (run_iv[i].t1 - run_iv[i].t0));
  const auto st = s.stats();
  const double req = static_cast<double>(std::max(1LL, st.requests));
  put(m, "server.register_s", median(normalized(reg_iv, cal)), "s");
  put(m, "server.hit_overhead_vs_run", median(ratio), "ratio");
  put(m, "server.hit_ratio", static_cast<double>(st.cache_hits) / req, "ratio");
  put(m, "server.evictions_per_request",
      static_cast<double>(st.cache_evictions) / req, "ratio");
  put(m, "server.batched_frac", static_cast<double>(st.batched_requests) / req,
      "ratio");
}

void probe_support(Calibrator& cal, Metrics& m) {
  std::vector<Interval> iv;
  cal.sample();
  for (int rep = 0; rep < kReps; ++rep)
    iv.push_back(timed([&] {
      g_sink = static_cast<double>(bernoulli::support::metrics_snapshot().rates.size());
    }));
  cal.sample();
  put(m, "support.metrics_snapshot_us", median(normalized(iv, cal)) * 1e6, "us");
}

}  // namespace

Metrics probe_layers(const Csr& a, int ranks, Calibrator& cal) {
  Metrics m;
  probe_compiler(a, cal, m);
  probe_blas1(a, cal, m);
  probe_dist(a, ranks, cal, m);
  probe_server(a, cal, m);
  probe_support(cal, m);
  return m;
}

}  // namespace perfbench
