// Unit tests for the log2 histogram substrate (support/histogram.hpp):
// bucket geometry, labels, registry identity, and the text/JSON
// renderings the trace exporter embeds.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "support/histogram.hpp"
#include "support/json_reader.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {
namespace {

TEST(Log2Histogram, BucketGeometry) {
  // Bucket 0 holds value 0 (and negatives clamp there); bucket k >= 1
  // holds [2^(k-1), 2^k).
  EXPECT_EQ(Log2Histogram::bucket_of(-5), 0);
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4);
  EXPECT_EQ(Log2Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Log2Histogram::bucket_of(1024), 11);
  // Everything past the covered range clamps into the last bucket.
  EXPECT_EQ(Log2Histogram::bucket_of(std::numeric_limits<long long>::max()),
            Log2Histogram::kBuckets - 1);
}

TEST(Log2Histogram, PowerOfTwoBoundaries) {
  // Exact powers of two open a new bucket; one less closes the previous
  // one. Sweep every boundary the bucket grid resolves, then the
  // open-ended last bucket.
  for (int k = 1; k <= 37; ++k) {
    EXPECT_EQ(Log2Histogram::bucket_of(1LL << k), k + 1) << "2^" << k;
    EXPECT_EQ(Log2Histogram::bucket_of((1LL << k) - 1), k) << "2^" << k
                                                           << " - 1";
  }
  EXPECT_EQ(Log2Histogram::bucket_of((1LL << 38) - 1), 38);
  EXPECT_EQ(Log2Histogram::bucket_of(1LL << 38), 39);
  EXPECT_EQ(Log2Histogram::bucket_of(1LL << 39), 39);  // clamps, no 40
}

TEST(Log2Histogram, BucketOfMatchesReferenceLoop) {
  // bucket_of is a clamped bit_width; the reference is the linear scan it
  // replaced, which defines the geometry by construction.
  const auto reference = [](long long v) {
    if (v <= 0) return 0;
    int k = 1;
    while (k < Log2Histogram::kBuckets - 1 && v >= (1LL << k)) ++k;
    return k;
  };
  std::vector<long long> values;
  for (long long v = 0; v <= (1LL << 16); ++v) values.push_back(v);
  for (int k = 1; k <= 62; ++k)
    for (long long v : {(1LL << k) - 1, 1LL << k, (1LL << k) + 1})
      values.push_back(v);
  for (long long v : {-1LL, -2LL, -1000LL,
                      std::numeric_limits<long long>::min(),
                      std::numeric_limits<long long>::max()})
    values.push_back(v);
  for (long long v : values)
    ASSERT_EQ(Log2Histogram::bucket_of(v), reference(v)) << "value " << v;
}

TEST(Log2Histogram, FlushRepresentativeRoundTrips) {
  // The linked executor's counter flush re-books per-thread shard grids
  // into the registry by synthesizing one representative value per bucket
  // (0 for bucket 0, 2^(b-1) otherwise). That convention is only sound if
  // every representative maps back to its own bucket — lock it here so
  // bucket-geometry changes cannot silently skew merged histograms.
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    const long long rep = b == 0 ? 0 : 1LL << (b - 1);
    EXPECT_EQ(Log2Histogram::bucket_of(rep), b) << "bucket " << b;
  }
}

TEST(Log2Histogram, BucketLabels) {
  EXPECT_EQ(Log2Histogram::bucket_label(0), "0");
  EXPECT_EQ(Log2Histogram::bucket_label(1), "1");
  EXPECT_EQ(Log2Histogram::bucket_label(2), "2-3");
  EXPECT_EQ(Log2Histogram::bucket_label(3), "4-7");
  EXPECT_EQ(Log2Histogram::bucket_label(Log2Histogram::kBuckets - 1),
            std::to_string(1LL << (Log2Histogram::kBuckets - 2)) + "+");
}

TEST(Log2Histogram, AddTotalReset) {
  Log2Histogram h;
  h.add(0);
  h.add(5);
  h.add(5);
  h.add(100, 3);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(3), 2);    // 5 lands in [4,7]
  EXPECT_EQ(h.bucket(7), 3);    // 100 lands in [64,127]
  EXPECT_EQ(h.total(), 6);
  h.reset();
  EXPECT_EQ(h.total(), 0);
}

TEST(HistogramRegistry, SameNameSameHistogram) {
  Log2Histogram& a = histogram("test.hist.same");
  Log2Histogram& b = histogram("test.hist.same");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(1);
  b.add(1);
  EXPECT_EQ(a.total(), 2);
}

TEST(HistogramRegistry, SnapshotAndRenderings) {
  metrics_reset();
  histogram("test.hist.empty");  // registered, never fed
  histogram("test.hist.render").add(3, 4);

  MetricsSnapshot snap = metrics_snapshot();
  ASSERT_TRUE(snap.histograms.count("test.hist.render"));
  EXPECT_EQ(snap.histograms["test.hist.render"][2], 4);  // 3 lands in [2,3]

  std::string text = histograms_text(snap);
  EXPECT_NE(text.find("test.hist.render"), std::string::npos);
  EXPECT_NE(text.find("2-3"), std::string::npos);
  // Empty histograms are skipped by default...
  EXPECT_EQ(text.find("test.hist.empty"), std::string::npos);
  // ...and shown when asked for.
  EXPECT_NE(
      histograms_text(snap, /*include_empty=*/true).find("test.hist.empty"),
      std::string::npos);

  JsonValue doc = json_parse(histograms_json(snap));
  const JsonValue* h = doc.find("test.hist.render");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("total")->as_number(), 4);
  const JsonValue* buckets = h->find("buckets");
  ASSERT_TRUE(buckets->is_array());
  ASSERT_EQ(buckets->items.size(), 1u);  // empty buckets elided
  EXPECT_EQ(buckets->items[0].find("range")->as_string(), "2-3");
  EXPECT_EQ(buckets->items[0].find("count")->as_number(), 4);
}

}  // namespace
}  // namespace bernoulli::support
