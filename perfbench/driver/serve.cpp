// serve_zipf: a KernelServer with default options serving 16 CSR 2-D grids
// of graded size to a closed loop of client threads, each waiting for its
// reply before sending the next request. Matrix popularity is Zipf against
// the default plan cache, so about a quarter of the requests miss: the
// median measures the hit path, the tail the miss path (compile, link,
// evict). One spmv request is one operation.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <thread>

#include "formats/csr.hpp"
#include "server/kernel_server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace srv = bernoulli::server;

namespace {

class ServeZipf final : public Workload {
 public:
  static constexpr int kMatrices = 16;
  static constexpr int kClients = 2;
  static constexpr double kZipfS = 1.1;
  static constexpr int kVectorsPerMatrix = 2;
  static constexpr int kSetups = 25;
  static constexpr double kWarmupS = 0.5;
  static constexpr double kCalEveryS = 0.1;

  void prepare(std::uint64_t seed) override {
    for (int m = 0; m < kMatrices; ++m) {
      // Sides 40 .. 160 in geometric steps: 1.6k .. 25.6k rows.
      const auto side = static_cast<index_t>(
          std::lround(40.0 * std::pow(4.0, m / double(kMatrices - 1))));
      Served s;
      s.a = stencil_matrix(side, side, 1, 1, 0.5, seed * 1000 + m);
      for (int v = 0; v < kVectorsPerMatrix; ++v) {
        s.x.push_back(random_vector(static_cast<std::size_t>(side * side),
                                    seed * 7919 + m * 31 + v));
        Vector y(s.x.back().size());
        bernoulli::formats::spmv(s.a, s.x.back(), y);
        s.ref.push_back(std::move(y));
      }
      matrices_.push_back(std::move(s));
    }
    // Popularity rank r serves matrix (5r + 7) mod 16: a fixed, seed-free
    // spread of sizes over the ranks, so only the request order and the
    // values depend on the seed.
    double total = 0.0;
    for (int r = 0; r < kMatrices; ++r) total += std::pow(r + 1.0, -kZipfS);
    double acc = 0.0;
    for (int r = 0; r < kMatrices; ++r) {
      acc += std::pow(r + 1.0, -kZipfS) / total;
      cdf_.push_back(acc);
    }
    seed_ = seed;
  }

  const Csr& representative() const override { return matrices_[7].a; }
  double tail_quantile() const override { return 0.99; }
  int threads() const override { return kClients; }

  /// A served hit is a run() plus the server's own work, so the share of
  /// a warm request spent in run() is the inverse of the probe's ratio.
  void derive(Metrics& layers) const override {
    put(layers, "compiler.spmv_share",
        1.0 / layers.at("server.hit_overhead_vs_run").value, "ratio");
  }

  Phase measure(double seconds, Calibrator& cal, Tracer* tracer) override {
    Phase ph;
    std::unique_ptr<srv::KernelServer> server;
    std::vector<int> handles;
    // Set-up: a fresh server with every matrix registered, several times.
    for (int i = 0; i < kSetups; ++i) {
      server.reset();
      cal.sample();
      Interval iv;
      iv.t0 = now_s();
      {
        Scope span(tracer, "bench.setup", i);
        server = std::make_unique<srv::KernelServer>();
        handles.clear();
        for (int m = 0; m < kMatrices; ++m) {
          Scope reg(tracer, "server.add_csr", i);
          handles.push_back(server->add_csr("m" + std::to_string(m),
                                            matrices_[static_cast<std::size_t>(m)].a));
        }
      }
      iv.t1 = now_s();
      ph.setups.push_back(wall(iv));
    }
    cal.sample();

    // Warm-up fills the plan cache; the server's counters are read after it.
    serve(kWarmupS, *server, handles, cal, nullptr, nullptr);
    const srv::ServerStats before = server->stats();
    serve(seconds, *server, handles, cal, tracer, &ph);
    const srv::ServerStats after = server->stats();

    if (tracer != nullptr) {
      std::vector<double> per_setup(kSetups, 0.0);
      for (const auto& s : tracer->spans())
        if (std::string(s.name) == "server.add_csr")
          per_setup[static_cast<std::size_t>(s.op)] +=
              (s.t1 - s.t0) * cal.factor(s.t0, s.t1);
      put(ph.layers, "server.register_s", median(per_setup), "s");
      const double req = static_cast<double>(after.requests - before.requests);
      put(ph.layers, "server.hit_ratio",
          static_cast<double>(after.cache_hits - before.cache_hits) / req, "ratio");
      put(ph.layers, "server.evictions_per_request",
          static_cast<double>(after.cache_evictions - before.cache_evictions) / req,
          "ratio");
      put(ph.layers, "server.batched_frac",
          static_cast<double>(after.batched_requests - before.batched_requests) / req,
          "ratio");
    }
    return ph;
  }

 private:
  struct Served {
    Csr a;
    std::vector<Vector> x, ref;
  };

  /// Pauses the clients between requests so calibration runs while no
  /// request is in flight.
  struct Gate {
    std::mutex mu;  // guards paused, parked, stop
    std::condition_variable cv;
    bool paused = false;
    bool stop = false;
    int parked = 0;
  };

  struct ClientLog {
    std::vector<Timed> ops;
    long long failed = 0;
  };

  void serve(double seconds, srv::KernelServer& server,
             const std::vector<int>& handles, Calibrator& cal, Tracer* tracer,
             Phase* ph) {
    Gate gate;
    std::atomic<long> next_op{0};
    std::vector<ClientLog> logs(kClients);
    auto client = [&](int c) {
      Rng rng(seed_ * 104729 + static_cast<std::uint64_t>(c) + (ph ? 1000 : 0));
      std::vector<Vector> out;
      for (const Served& s : matrices_) out.emplace_back(s.x[0].size());
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(gate.mu);
          if (gate.paused) {
            ++gate.parked;
            gate.cv.notify_all();
            gate.cv.wait(lk, [&] { return !gate.paused || gate.stop; });
            --gate.parked;
          }
          if (gate.stop) return;
        }
        const double u = rng.uniform();
        int rank = 0;
        while (rank + 1 < kMatrices && u > cdf_[static_cast<std::size_t>(rank)]) ++rank;
        const auto m = static_cast<std::size_t>((5 * rank + 7) % kMatrices);
        const auto v = static_cast<std::size_t>(rng.next() % kVectorsPerMatrix);
        const Served& s = matrices_[m];
        Vector& y = out[m];
        const long op = next_op.fetch_add(1);
        Interval iv;
        bool served = true;
        {
          Scope span(tracer, "bench.op", op);
          iv.t0 = now_s();
          try {
            Scope call(tracer, "server.spmv", op);
            server.spmv(handles[m], s.x[v], y);
          } catch (const std::exception&) {
            served = false;  // a refused request counts as failed
          }
          iv.t1 = now_s();
        }
        log.ops.push_back(wall(iv));
        if (!served || !response_ok(y.data(), s.ref[v].data(), y.size()))
          ++log.failed;
      }
    };

    std::vector<std::thread> threads;
    double window_start = now_s();
    const double deadline = window_start + seconds;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (bool done = false; !done;) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(kCalEveryS, std::max(0.0, deadline - now_s()))));
      double window_end = 0.0;
      {
        std::unique_lock<std::mutex> lk(gate.mu);
        gate.paused = true;
        gate.cv.wait(lk, [&] { return gate.parked == kClients; });
        window_end = now_s();
      }
      if (ph != nullptr) ph->windows.push_back(wall({window_start, window_end}));
      cal.sample();
      done = now_s() >= deadline;
      {
        const std::lock_guard<std::mutex> lk(gate.mu);
        gate.paused = false;
        gate.stop = done;
      }
      gate.cv.notify_all();
      window_start = now_s();
    }
    for (std::thread& t : threads) t.join();
    if (ph == nullptr) return;
    for (const ClientLog& log : logs) {
      ph->ops.insert(ph->ops.end(), log.ops.begin(), log.ops.end());
      ph->attempted += static_cast<long long>(log.ops.size());
      ph->failed += log.failed;
    }
  }

  std::vector<Served> matrices_;
  std::vector<double> cdf_;
  std::uint64_t seed_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const std::string& name) {
  if (name == "serve_zipf") return std::make_unique<ServeZipf>();
  return nullptr;
}

}  // namespace perfbench
