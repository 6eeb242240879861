#include "support/histogram.hpp"

#include <algorithm>
#include <sstream>

#include "support/json_writer.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {

std::string Log2Histogram::bucket_label(int i) {
  if (i == 0) return "0";
  if (i == 1) return "1";
  long long lo = 1LL << (i - 1);
  if (i == kBuckets - 1) return std::to_string(lo) + "+";
  long long hi = (1LL << i) - 1;
  return std::to_string(lo) + "-" + std::to_string(hi);
}

std::string histograms_text(const MetricsSnapshot& snap, bool include_empty) {
  std::ostringstream os;
  for (const auto& [name, buckets] : snap.histograms) {
    long long total = 0;
    for (long long c : buckets) total += c;
    if (total == 0 && !include_empty) continue;
    os << name << "  (" << total << " samples)\n";
    for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
      long long c = buckets[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      std::string label = Log2Histogram::bucket_label(i);
      os << "  " << label << std::string(16 - std::min<std::size_t>(
                                             16, label.size()), ' ')
         << c << "\n";
    }
  }
  if (os.str().empty()) os << "(no histogram samples)\n";
  return os.str();
}

std::string histograms_json(const MetricsSnapshot& snap, int indent) {
  JsonWriter w(indent);
  w.begin_object();
  for (const auto& [name, buckets] : snap.histograms) {
    long long total = 0;
    for (long long c : buckets) total += c;
    if (total == 0) continue;
    w.key(name).begin_object();
    w.key("buckets").begin_array();
    for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
      long long c = buckets[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      w.begin_object();
      w.key("range").value(Log2Histogram::bucket_label(i));
      w.key("count").value(c);
      w.end_object();
    }
    w.end_array();
    w.key("total").value(total);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace bernoulli::support
