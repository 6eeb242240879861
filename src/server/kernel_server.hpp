// Compile-once, serve-many: a concurrent SpMV server over the engine
// ladder (docs/SERVING.md).
//
// The paper's inspector/executor split exists so one expensive
// compile/inspect amortizes over many executes; the KernelServer turns
// that into the serving story. Each registered matrix compiles to a
// CompiledKernel ONCE; the kernel's linked program — LinkedPlan, LinkedMac
// and its RunnerPool — plus (optionally, toolchain permitting) a
// specialized dlopen'd kernel live in a bounded LRU cache keyed by
//
//   (plan fingerprint, storage identity, distribution tag)
//
// where the plan fingerprint (compiler::plan_fingerprint) pins the
// structural half (query shape, join order/methods, format access paths)
// and the storage identity pins the concrete arrays. Requests against a
// cached key pay zero compile/link work: they lease a runner from the
// kernel's RunnerPool, rebind the mac's x/y value spans to the request
// buffers and run.
//
// Batching: when enabled, concurrent requests against the same cached
// matrix coalesce leader/follower-style into one SpMM-style multi-vector
// sweep (one pass over the sparse rows amortizes across all gathered
// right-hand sides — the src/blas spmm move applied to in-flight
// requests). Per-request results are BITWISE identical to the unbatched
// path: each request's accumulation order (ascending k within a row,
// scale * A * x multiply chain) is exactly the engine's, only interleaved
// across requests. tests/server_test.cpp enforces this differentially
// against serial CompiledKernel execution and blas::spmm.
//
// Observability: every request books the same execute.* group an engine
// run books. Unbatched requests run the engine, which books itself via
// compiler::commit_run; a batched sweep passes commit_run the RunDelta the
// entry's warmup run returned with k = batch size, which replays it k
// times and splits the sweep's wall time across the k latency samples
// with an exact integer sum — so execute.latency.sum_ns ==
// execute.wall_ns and the executor.* counters reconcile with an unbatched
// serve of the same traffic. Server-level
// counters (server.cache.hits/misses/evictions, server.requests,
// server.batches, server.batched_requests) and the server.request.latency
// histogram layer on top; see docs/SERVING.md for which layer owns what.
#pragma once

#include <condition_variable>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/link.hpp"
#include "compiler/loopnest.hpp"
#include "compiler/specialize.hpp"
#include "formats/csr.hpp"

namespace bernoulli::server {

struct ServerOptions {
  /// Bounded LRU capacity, in cached plans. Evictions are safe while the
  /// evicted plan is serving: in-flight requests hold a shared reference
  /// and the entry dies with its last request.
  std::size_t plan_cache_capacity = 8;
  /// Coalesce concurrent requests against one cached matrix into
  /// SpMM-style multi-vector sweeps.
  bool batching = true;
  /// Max requests per sweep; further arrivals form the next sweep.
  int max_batch = 8;
  /// Workers for the batched sweep over support::shared_pool(); 1 = run
  /// on the leader. Row-chunked, so results stay bitwise-deterministic.
  /// Safe to use when clients themselves run on pool threads — nested
  /// run_slots degrades to inline execution instead of deadlocking.
  int sweep_threads = 1;
  /// Additionally emit+compile+dlopen a specialized kernel per cached
  /// plan and serve single requests through it (falls back to the linked
  /// runner when the toolchain or the plan shape refuses). Serialized per
  /// entry: the generated code binds the entry's staging buffers.
  bool use_specialized = false;
};

/// Point-in-time server statistics (per-server, unlike the process-global
/// server.* counters which aggregate across servers).
struct ServerStats {
  long long requests = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;
  long long batches = 0;          // multi-request sweeps executed
  long long batched_requests = 0; // requests served by those sweeps
};

class KernelServer {
 public:
  explicit KernelServer(ServerOptions opts = {});
  ~KernelServer();

  KernelServer(const KernelServer&) = delete;
  KernelServer& operator=(const KernelServer&) = delete;

  /// Registers a CSR matrix under `name` and returns its handle. The
  /// matrix is BORROWED — the caller keeps it alive and unmoved while the
  /// server may serve it. Registration compiles the SpMV loop nest once
  /// to derive the cache key (plan fingerprint + storage identity +
  /// `distribution`); the linked artifacts themselves are built lazily by
  /// the first request (a cache miss).
  int add_csr(const std::string& name, const formats::Csr& m,
              const std::string& distribution = "local");

  /// y = A x against the cached plan (y is overwritten). Thread-safe;
  /// callers may issue concurrent requests from any thread, including
  /// pool worker threads. x must have A.cols() elements, y A.rows().
  void spmv(int handle, ConstVectorView x, VectorView y);
  void spmv(const std::string& name, ConstVectorView x, VectorView y);

  /// The cache key registration derived for this handle (tests: two
  /// handles over the same storage+distribution share a key).
  const std::string& key_of(int handle) const;

  ServerStats stats() const;
  std::size_t cache_size() const;
  const ServerOptions& options() const { return opts_; }

 private:
  struct CacheEntry;
  struct Pending;
  struct MatrixRec {
    std::string name;
    const formats::Csr* matrix = nullptr;
    std::string distribution;
    std::string key;
  };

  std::shared_ptr<CacheEntry> get_entry(int handle);
  std::shared_ptr<CacheEntry> build_entry(const MatrixRec& rec);
  void run_single(CacheEntry& e, ConstVectorView x, VectorView y);
  void run_batch(CacheEntry& e, const std::vector<Pending*>& batch);
  void serve_batched(const std::shared_ptr<CacheEntry>& e, ConstVectorView x,
                     VectorView y);

  ServerOptions opts_;

  mutable std::mutex cache_mu_;  // guards matrices_, cache_, lru_, stats_
  std::vector<MatrixRec> matrices_;
  struct CacheSlot {
    std::shared_ptr<CacheEntry> entry;
    std::list<std::string>::iterator lru_it;
  };
  std::map<std::string, CacheSlot> cache_;
  std::list<std::string> lru_;  // front = most recently used key
  ServerStats stats_;
};

}  // namespace bernoulli::server
