// perfbench_driver: one run of one workload of the end-to-end benchmark.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>]
//   perfbench_driver --selftest
//
// With --trace 0 the workload runs untraced and the end-to-end metrics are
// printed. With --trace 1 it runs half the time untraced and half traced
// with benchmark-owned spans, then probes every layer directly, and the
// per-layer metrics are printed (the spans go to <out-dir>). Either way
// the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every timing is normalized to a fixed nominal host speed through the
// calibration kernel (bench.hpp); the raw values are printed beside them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "solvers/cg.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (auto w = make_solve_workload(name)) return w;
  return make_serve_workload(name);
}

// ------------------------------------------------------------- selftest

/// The benchmark's own checks: the oracle counts a deliberately corrupted
/// output as a failure, and the calibration guard notices a calibration
/// sample that overlaps an operation. Returns the number of broken checks.
int selftest(bool verbose) {
  int broken = 0;
  auto expect = [&](bool ok, const char* what) {
    if (verbose || !ok) std::printf("selftest: %-58s %s\n", what, ok ? "ok" : "BROKEN");
    if (!ok) ++broken;
  };

  const Csr a = stencil_matrix(8, 8, 1, 1, 0.5, 42);
  const Vector b = random_vector(static_cast<std::size_t>(a.rows()), 43);
  bernoulli::solvers::CgOptions opts;
  opts.tolerance = 1e-8;
  Vector x(b.size(), 0.0);
  const auto res = bernoulli::solvers::cg(a, b, x, opts);
  long long attempted = 0, failed = 0;
  auto count = [&](bool ok) {
    ++attempted;
    if (!ok) ++failed;
  };
  count(solve_ok(a, b, x, 1e-8, res.iterations, res.converged, res.iterations));
  Vector corrupted = x;
  corrupted[3] += 1e-3;
  count(solve_ok(a, b, corrupted, 1e-8, res.iterations, res.converged, res.iterations));
  count(solve_ok(a, b, x, 1e-8, res.iterations + 1, res.converged, res.iterations));
  expect(attempted == 3 && failed == 2,
         "solve oracle counts a corrupted x and a wrong iteration count");

  Vector y(b.size());
  bernoulli::formats::spmv(a, x, y);
  const Vector ref = y;
  expect(response_ok(y.data(), ref.data(), y.size()), "response oracle accepts an exact reply");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &y[5], sizeof bits);
  bits ^= 1;  // one ulp off
  std::memcpy(&y[5], &bits, sizeof bits);
  expect(!response_ok(y.data(), ref.data(), y.size()),
         "response oracle counts a reply one ulp off as failed");

  const std::vector<Calibrator::Sample> cal = {{1.0, 2.0, 1.0}, {4.0, 5.0, 1.0}};
  std::vector<Interval> ops = {{0.0, 0.9}, {2.1, 3.9}, {5.5, 6.0}};
  expect(count_overlaps(cal, ops) == 0, "calibration guard passes disjoint samples");
  ops.push_back({1.5, 1.6});
  expect(count_overlaps(cal, ops) == 1, "calibration guard flags a sample inside an op");
  ops.push_back({3.0, 4.5});
  expect(count_overlaps(cal, ops) == 2, "calibration guard flags an op straddling a sample");
  return broken;
}

// -------------------------------------------------------------- metrics

struct EndToEnd {
  double p50_s = 0.0, tail_s = 0.0, throughput = 0.0, setup_s = 0.0;
};

/// Normalized (nominal host) or raw end-to-end figures of one phase.
///
/// The run is cut into up to kMaxSlices slices of equal duration, as many
/// as leave at least 10 operations beyond the tail percentile in each;
/// latency percentiles and throughput are the median over the slices of
/// each slice's figure. A burst of host noise then spoils one slice, not
/// the run.
EndToEnd end_to_end(const Phase& ph, const Calibrator& cal, double tail_q,
                    bool raw) {
  constexpr int kMaxSlices = 5;
  auto scaled = [&](const Timed& t) {
    return t.seconds * (raw ? 1.0 : cal.factor(t.when.t0, t.when.t1));
  };
  const int k = std::clamp(
      static_cast<int>(static_cast<double>(ph.ops.size()) * (1.0 - tail_q) / 10.0),
      1, kMaxSlices);
  const double begin = ph.windows.front().when.t0;
  const double span = ph.windows.back().when.t1 - begin;
  auto slice_of = [&](double t) {
    return std::clamp(static_cast<int>((t - begin) / span * k), 0, k - 1);
  };
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(k));
  std::vector<double> busy(static_cast<std::size_t>(k), 0.0);
  for (const Timed& t : ph.ops)
    lat[static_cast<std::size_t>(slice_of(t.when.t0))].push_back(scaled(t));
  for (const Timed& t : ph.windows)
    busy[static_cast<std::size_t>(slice_of(0.5 * (t.when.t0 + t.when.t1)))] += scaled(t);
  std::vector<double> p50, tail, throughput;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    if (lat[i].empty() || busy[i] <= 0.0) continue;
    p50.push_back(median(lat[i]));
    tail.push_back(quantile(lat[i], tail_q));
    throughput.push_back(static_cast<double>(lat[i].size()) / busy[i]);
  }
  std::vector<double> setups;
  for (const Timed& t : ph.setups) setups.push_back(scaled(t));
  EndToEnd e;
  e.p50_s = median(p50);
  e.tail_s = median(tail);
  e.throughput = median(throughput);
  e.setup_s = median(setups);
  return e;
}

/// The calibration and the raw (unnormalized) figures beside the
/// normalized ones.
void put_host(Metrics& m, const Calibrator& cal, const EndToEnd& raw) {
  put(m, "host.cal_ns_per_nnz", cal.median_ns_per_nnz(), "ns");
  put(m, "host.cal_spread", cal.spread(), "ratio");
  put(m, "host.raw_setup_s", raw.setup_s, "s");
  put(m, "host.raw_latency_p50_us", raw.p50_s * 1e6, "us");
  put(m, "host.raw_throughput_per_s", raw.throughput, "1/s");
}

/// Share of the traced operations' thread time that each layer spent in
/// its own spans (children excluded), over the spans rooted at "bench.op".
/// Rank threads run in parallel, so the shares are of summed self time,
/// not of wall time; they add up to 1.
void self_fractions(const Tracer& t, Metrics& m) {
  const std::vector<Tracer::Span> all = t.spans();
  std::vector<std::size_t> root(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const long p = all[i].parent;
    root[i] = p < 0 ? i : root[static_cast<std::size_t>(p)];
  }
  const auto self = t.self_time_by_layer([&](std::size_t i) {
    return std::strcmp(all[root[i]].name, "bench.op") == 0;
  });
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  for (const char* layer :
       {"bench", "compiler", "solvers", "spmd", "runtime", "server"}) {
    const auto it = self.find(layer);
    put(m, std::string(layer) + ".self_frac",
        it == self.end() || total <= 0.0 ? 0.0 : it->second / total, "ratio");
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, long long attempted, long long failed,
                  const Metrics& m) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << json_number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_table(const Metrics& m) {
  for (const auto& [name, metric] : m)
    std::printf("  %-36s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
}

std::string host_fingerprint() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown";
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  std::ostringstream os;
  os << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << model
     << "\" build=" << PERFBENCH_BUILD_TYPE;
  return os.str();
}

int run(const RunConfig& cfg) {
  if (selftest(false) != 0) {
    std::fprintf(stderr, "perfbench: selftest broken, no measurement taken\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(cfg.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  std::printf("host: %s\n", host_fingerprint().c_str());
  w->prepare(cfg.seed);
  Calibrator cal(w->threads());
  cal.sample();  // first touch of the calibration arrays

  std::vector<Interval> all_ops;
  auto guard = [&](const Phase& ph) {
    for (const Timed& t : ph.ops) all_ops.push_back(t.when);
    for (const Timed& t : ph.setups) all_ops.push_back(t.when);
  };

  Metrics out;
  long long attempted = 0, failed = 0;
  const double tail_q = w->tail_quantile();
  if (!cfg.trace) {
    const Phase ph = w->measure(cfg.seconds, cal, nullptr);
    guard(ph);
    attempted = ph.attempted;
    failed = ph.failed;
    const EndToEnd e = end_to_end(ph, cal, tail_q, false);
    const EndToEnd r = end_to_end(ph, cal, tail_q, true);
    put(out, "setup_s", e.setup_s, "s");
    put(out, "latency_p50_us", e.p50_s * 1e6, "us");
    put(out, "latency_tail_us", e.tail_s * 1e6, "us");
    put(out, "throughput_per_s", e.throughput, "1/s");
    put(out, "peak_rss_mib", peak_rss_mib(), "MiB");
    std::printf("%s seed=%llu: %lld operations, %lld failed, tail = p%g, "
                "%zu calibration samples\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                attempted, failed, tail_q * 100, cal.log().size());
    std::printf("end-to-end (nominal host of %.3g ns/nnz):\n",
                Calibrator::kNominalNsPerNnz);
    print_table(out);
    Metrics raw;
    put_host(raw, cal, r);
    put(raw, "host.raw_latency_tail_us", r.tail_s * 1e6, "us");
    std::printf("raw on this host:\n");
    print_table(raw);
  } else {
    // Untraced half, traced half, then the layer probes.
    const Phase base = w->measure(cfg.seconds / 2, cal, nullptr);
    Tracer tracer;
    const Phase traced = w->measure(cfg.seconds / 2, cal, &tracer);
    guard(base);
    guard(traced);
    attempted = base.attempted + traced.attempted;
    failed = base.failed + traced.failed;
    out = probe_layers(w->representative(), w->ranks(), cal);
    for (const auto& [name, metric] : traced.layers) out[name] = metric;
    w->derive(out);
    const EndToEnd e = end_to_end(base, cal, tail_q, false);
    const EndToEnd r = end_to_end(base, cal, tail_q, true);
    const EndToEnd t = end_to_end(traced, cal, tail_q, false);
    put(out, "support.trace_overhead_frac", t.p50_s / e.p50_s - 1.0, "ratio");
    put_host(out, cal, r);
    put(out, "oracle.failed_frac",
        static_cast<double>(failed) / static_cast<double>(std::max(1LL, attempted)),
        "ratio");
    self_fractions(tracer, out);
    const std::string path = cfg.out_dir + "/trace_" + cfg.workload + "_" +
                             std::to_string(cfg.seed) + ".json";
    if (!tracer.write_json(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("%s seed=%llu: %zu spans written to %s\nper-layer:\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                tracer.spans().size(), path.c_str());
    print_table(out);
  }

  const int overlaps = count_overlaps(cal.log(), all_ops);
  if (overlaps != 0) {
    std::fprintf(stderr,
                 "perfbench: %d calibration samples overlapped an operation\n",
                 overlaps);
    return 3;
  }
  print_result(failed == 0, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") cfg.workload = value();
    else if (arg == "--seed") cfg.seed = std::stoull(value());
    else if (arg == "--seconds") cfg.seconds = std::stod(value());
    else if (arg == "--trace") cfg.trace = value() != "0";
    else if (arg == "--out-dir") cfg.out_dir = value();
    else if (arg == "--selftest") selftest_only = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (selftest_only) return perfbench::selftest(true) == 0 ? 0 : 1;
  return perfbench::run(cfg);
}
