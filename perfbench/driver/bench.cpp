#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "formats/csr.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Rng r(seed * 0x100000001b3ULL ^ (a * 0x9e3779b97f4a7c15ULL) ^
        (b + 0x632be59bd9b4e019ULL));
  return r.uniform();
}

Csr stencil_matrix(index_t nx, index_t ny, index_t nz, index_t dof,
                   double margin, std::uint64_t seed) {
  const index_t points = nx * ny * nz;
  const index_t n = points * dof;
  std::vector<index_t> rowptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> colind;
  std::vector<value_t> vals;
  std::vector<index_t> nbrs;
  for (index_t iz = 0; iz < nz; ++iz)
    for (index_t iy = 0; iy < ny; ++iy)
      for (index_t ix = 0; ix < nx; ++ix) {
        const index_t pt = ix + nx * (iy + ny * iz);
        // Neighbouring points in ascending id order, self included, so the
        // column indices of every row come out sorted.
        nbrs.clear();
        if (iz > 0) nbrs.push_back(pt - nx * ny);
        if (iy > 0) nbrs.push_back(pt - nx);
        if (ix > 0) nbrs.push_back(pt - 1);
        nbrs.push_back(pt);
        if (ix + 1 < nx) nbrs.push_back(pt + 1);
        if (iy + 1 < ny) nbrs.push_back(pt + nx);
        if (iz + 1 < nz) nbrs.push_back(pt + nx * ny);
        for (index_t d = 0; d < dof; ++d) {
          const index_t row = pt * dof + d;
          std::size_t diag_at = 0;
          double offsum = 0.0;
          for (index_t q : nbrs)
            for (index_t e = 0; e < dof; ++e) {
              const index_t col = q * dof + e;
              if (col == row) {
                diag_at = vals.size();
                colind.push_back(col);
                vals.push_back(0.0);
                continue;
              }
              const auto lo = static_cast<std::uint64_t>(std::min(row, col));
              const auto hi = static_cast<std::uint64_t>(std::max(row, col));
              const double v = -(0.25 + hash01(seed, lo, hi));
              offsum -= v;
              colind.push_back(col);
              vals.push_back(v);
            }
          vals[diag_at] = (1.0 + margin) * offsum;
          rowptr[static_cast<std::size_t>(row) + 1] =
              static_cast<index_t>(vals.size());
        }
      }
  return Csr(n, n, std::move(rowptr), std::move(colind), std::move(vals));
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng r(seed);
  Vector v(n);
  for (double& x : v) x = 2.0 * r.uniform() - 1.0;
  return v;
}

// ---------------------------------------------------------------- spans

namespace {
thread_local long tl_current = -1;
thread_local int tl_tid = -1;
std::atomic<int> next_tid{0};
}  // namespace

long Tracer::open(const char* name, long op) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.name = name;
  s.t0 = t;
  s.parent = tl_current;
  s.op = op;
  if (tl_tid < 0) tl_tid = ++next_tid;
  s.tid = tl_tid;
  spans_.push_back(s);
  tl_current = static_cast<long>(spans_.size()) - 1;
  return tl_current;
}

void Tracer::close(long id) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = t;
  tl_current = s.parent;
}

void Tracer::adopt(long parent) { tl_current = parent; }

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_time_by_layer(
    const std::function<bool(std::size_t)>& keep) const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<Interval>> kids(all.size());
  for (const Span& s : all)
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!keep(i)) continue;
    const Span& s = all[i];
    // Union of the children's intervals, clipped to the parent: children on
    // parallel rank threads overlap each other.
    auto& k = kids[i];
    std::sort(k.begin(), k.end(),
              [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
    double covered = 0.0, reach = s.t0;
    for (const Interval& c : k) {
      const double lo = std::max(c.t0, reach);
      const double hi = std::min(c.t1, s.t1);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(c.t1, s.t1));
    }
    const std::string name = s.name;
    self[name.substr(0, name.find('.'))] += std::max(0.0, s.t1 - s.t0 - covered);
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%ld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%ld,"
                 "\"op\":%ld}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<long>(s.tid),
                 s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent, s.op);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------- calibration

Calibrator::Calibrator(int threads) : threads_(std::max(1, threads)) {
  const index_t n = kSide * kSide;
  rowptr_.push_back(0);
  for (index_t i = 0; i < n; ++i) {
    const index_t x = i % kSide, y = i / kSide;
    const index_t cols[5] = {i - kSide, i - 1, i, i + 1, i + kSide};
    const bool keep[5] = {y > 0, x > 0, true, x + 1 < kSide, y + 1 < kSide};
    for (int c = 0; c < 5; ++c)
      if (keep[c]) {
        colind_.push_back(cols[c]);
        vals_.push_back(c == 2 ? 4.0 : -1.0 + 1e-3 * static_cast<double>(i % 7));
      }
    rowptr_.push_back(static_cast<index_t>(colind_.size()));
  }
  x_ = random_vector(static_cast<std::size_t>(n), 0xca11b);
  y_.assign(static_cast<std::size_t>(threads_),
            std::vector<double>(static_cast<std::size_t>(n), 0.0));
}

double Calibrator::sample() {
  const double start = now_s();
  const auto nt = static_cast<std::size_t>(threads_);
  const auto n = static_cast<std::size_t>(kSide) * kSide;
  std::vector<std::vector<double>> pass_s(nt, std::vector<double>(kPasses));
  auto worker = [&](std::size_t t) {
    const index_t* rp = rowptr_.data();
    const index_t* ci = colind_.data();
    const double* v = vals_.data();
    const double* x = x_.data();
    double* y = y_[t].data();
    for (int pass = 0; pass < kPasses; ++pass) {
      const double t0 = now_s();
      for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (index_t k = rp[i]; k < rp[i + 1]; ++k) sum += v[k] * x[ci[k]];
        y[i] = sum;
      }
      pass_s[t][static_cast<std::size_t>(pass)] = now_s() - t0;
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < nt; ++t) helpers.emplace_back(worker, t);
  worker(0);
  for (std::thread& h : helpers) h.join();
  // Per pass the slowest thread, as the slowest rank sets a parallel
  // operation's time; then the median over passes.
  std::vector<double> per_nnz;
  for (int pass = 0; pass < kPasses; ++pass) {
    double slowest = 0.0;
    for (const auto& p : pass_s) slowest = std::max(slowest, p[static_cast<std::size_t>(pass)]);
    per_nnz.push_back(slowest * 1e9 / static_cast<double>(colind_.size()));
  }
  Sample s;
  s.t0 = start;
  s.t1 = now_s();
  s.ns_per_nnz = median(per_nnz);
  log_.push_back(s);
  return s.ns_per_nnz;
}

double Calibrator::adjacent(double t0, double t1) const {
  const auto first = std::partition_point(
      log_.begin(), log_.end(), [&](const Sample& s) { return s.t1 < t0 - kWindowS; });
  const auto last = std::partition_point(
      log_.begin(), log_.end(), [&](const Sample& s) { return s.t0 <= t1 + kWindowS; });
  std::vector<double> near;
  for (auto it = first; it < last; ++it) near.push_back(it->ns_per_nnz);
  if (static_cast<int>(near.size()) >= kMinWindow) return median(near);
  // Too few samples that close: the last one before and the first after.
  const auto before = std::partition_point(
      log_.begin(), log_.end(), [&](const Sample& s) { return s.t1 <= t0; });
  const auto after = std::partition_point(
      log_.begin(), log_.end(), [&](const Sample& s) { return s.t0 < t1; });
  near.clear();
  if (before != log_.begin()) near.push_back((before - 1)->ns_per_nnz);
  if (after != log_.end()) near.push_back(after->ns_per_nnz);
  return near.empty() ? kNominalNsPerNnz : median(near);
}

double Calibrator::factor(double t0, double t1) const {
  return kNominalNsPerNnz / adjacent(t0, t1);
}

double Calibrator::spread() const {
  if (log_.empty()) return 1.0;
  double lo = log_[0].ns_per_nnz, hi = lo;
  for (const Sample& s : log_) {
    lo = std::min(lo, s.ns_per_nnz);
    hi = std::max(hi, s.ns_per_nnz);
  }
  return hi / lo;
}

double Calibrator::median_ns_per_nnz() const {
  std::vector<double> v;
  for (const Sample& s : log_) v.push_back(s.ns_per_nnz);
  return median(v);
}

int count_overlaps(const std::vector<Calibrator::Sample>& cal,
                   std::vector<Interval> ops) {
  std::sort(ops.begin(), ops.end(),
            [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  // prefix_max[i] = latest end among the i earliest-starting operations.
  std::vector<double> prefix_max(ops.size() + 1, -1e300);
  for (std::size_t i = 0; i < ops.size(); ++i)
    prefix_max[i + 1] = std::max(prefix_max[i], ops[i].t1);
  int overlaps = 0;
  for (const Calibrator::Sample& c : cal) {
    const auto started = static_cast<std::size_t>(
        std::partition_point(ops.begin(), ops.end(),
                             [&](const Interval& o) { return o.t0 < c.t1; }) -
        ops.begin());
    if (prefix_max[started] > c.t0) ++overlaps;
  }
  return overlaps;
}

// --------------------------------------------------------------- oracle

bool solve_ok(const Csr& a, const Vector& b, const Vector& x, double tol,
              int iterations, bool converged, int reference_iterations) {
  Vector ax(b.size());
  bernoulli::formats::spmv(a, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return converged && iterations == reference_iterations &&
         std::sqrt(rr) <= tol * std::sqrt(bb);
}

bool response_ok(const double* y, const double* ref, std::size_t n) {
  return std::memcmp(y, ref, n * sizeof(double)) == 0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int min_ranks() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

}  // namespace perfbench
