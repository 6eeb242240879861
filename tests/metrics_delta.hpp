// Registry-window helpers shared by the engine differential tests: the
// executor.* counter deltas and executor.fanout.* histogram bucket deltas
// between two metrics snapshots. Zero deltas (and all-zero histograms) are
// elided, so a comparison does not depend on which names other tests
// registered.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/metrics.hpp"

namespace bernoulli::compiler {

inline std::map<std::string, long long> exec_delta(
    const support::MetricsSnapshot& before,
    const support::MetricsSnapshot& after) {
  std::map<std::string, long long> d;
  for (const auto& [name, v] : after.counts) {
    if (name.rfind("executor.", 0) != 0) continue;
    long long b = 0;
    if (auto it = before.counts.find(name); it != before.counts.end())
      b = it->second;
    if (v != b) d[name] = v - b;
  }
  return d;
}

inline std::map<std::string, std::vector<long long>> fanout_delta(
    const support::MetricsSnapshot& before,
    const support::MetricsSnapshot& after) {
  std::map<std::string, std::vector<long long>> d;
  for (const auto& [name, buckets] : after.histograms) {
    if (name.rfind("executor.fanout.", 0) != 0) continue;
    std::vector<long long> delta = buckets;
    if (auto it = before.histograms.find(name); it != before.histograms.end())
      for (std::size_t i = 0; i < delta.size() && i < it->second.size(); ++i)
        delta[i] -= it->second[i];
    bool any = false;
    for (long long v : delta) any = any || v != 0;
    if (any) d[name] = std::move(delta);
  }
  return d;
}

}  // namespace bernoulli::compiler
