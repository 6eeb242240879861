// Direct tests of the relation views and their access-method contracts:
// properties must be honest (sortedness, denseness, search cost), and
// enumerate/search must agree with each other on every view.
#include <gtest/gtest.h>

#include "formats/formats.hpp"
#include "formats/sparse_vector.hpp"
#include "relation/array_views.hpp"
#include "relation/query.hpp"
#include "relation/sparse_vector_view.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::relation {
namespace {

using formats::Coo;
using formats::TripletBuilder;

Coo sample_matrix() {
  TripletBuilder b(4, 5);
  b.add(0, 1, 1.0);
  b.add(0, 4, 2.0);
  b.add(2, 0, 3.0);
  b.add(2, 3, 4.0);
  b.add(3, 3, 5.0);
  return std::move(b).build();
}

// Checks the enumerate/search contract at one level under one parent:
// every enumerated (idx, pos) is found by search; absent indices miss.
void check_level_contract(const IndexLevel& level, index_t parent,
                          index_t probe_range) {
  std::vector<std::pair<index_t, index_t>> items;
  index_t prev = -1;
  level.enumerate(parent, [&](index_t idx, index_t pos) {
    if (level.properties().sorted) { EXPECT_GT(idx, prev); }
    prev = idx;
    items.emplace_back(idx, pos);
    return true;
  });
  for (auto [idx, pos] : items) EXPECT_EQ(level.search(parent, idx), pos);
  for (index_t i = 0; i < probe_range; ++i) {
    bool enumerated = false;
    for (auto [idx, _] : items)
      if (idx == i) enumerated = true;
    if (!enumerated) { EXPECT_EQ(level.search(parent, i), -1) << "idx " << i; }
  }
}

TEST(Views, CsrContract) {
  auto csr = formats::Csr::from_coo(sample_matrix());
  CsrView v("A", csr);
  EXPECT_EQ(v.arity(), 2);
  EXPECT_TRUE(v.level(0).properties().dense);
  EXPECT_EQ(v.level(0).properties().search_cost, SearchCost::kConstant);
  EXPECT_TRUE(v.level(1).properties().sorted);
  EXPECT_FALSE(v.level(1).properties().dense);
  for (index_t i = 0; i < 4; ++i) check_level_contract(v.level(1), i, 5);
  // Values address through the leaf position.
  index_t pos = v.level(1).search(2, 3);
  ASSERT_GE(pos, 0);
  EXPECT_DOUBLE_EQ(v.value_at(pos), 4.0);
}

TEST(Views, CcsContract) {
  auto ccs = formats::Ccs::from_coo(sample_matrix());
  CcsView v("A", ccs);
  for (index_t j = 0; j < 5; ++j) check_level_contract(v.level(1), j, 4);
  index_t pos = v.level(1).search(4, 0);  // column 4, row 0
  ASSERT_GE(pos, 0);
  EXPECT_DOUBLE_EQ(v.value_at(pos), 2.0);
}

TEST(Views, CooRowLevelIsSortedNotDense) {
  Coo m = sample_matrix();  // rows {0, 2, 3} stored; row 1 empty
  CooView v("A", m);
  EXPECT_TRUE(v.level(0).properties().sorted);
  EXPECT_FALSE(v.level(0).properties().dense);
  check_level_contract(v.level(0), 0, 4);
  EXPECT_EQ(v.level(0).search(0, 1), -1);  // empty row absent
}

TEST(Views, IntervalDense) {
  IntervalView v("I", {3, 7});
  EXPECT_EQ(v.arity(), 2);
  check_level_contract(v.level(0), 0, 3);
  check_level_contract(v.level(1), 0, 7);
  EXPECT_EQ(v.level(1).search(0, 7), -1);
  EXPECT_EQ(v.level(1).search(0, -1), -1);
}

TEST(Views, DenseVectorWritable) {
  Vector x{1.0, 2.0, 3.0};
  DenseVectorView v("X", VectorView(x));
  EXPECT_TRUE(v.writable());
  v.value_add(1, 0.5);
  EXPECT_DOUBLE_EQ(x[1], 2.5);
  v.value_set(0, -1.0);
  EXPECT_DOUBLE_EQ(x[0], -1.0);

  DenseVectorView r("X", ConstVectorView(x));
  EXPECT_FALSE(r.writable());
  EXPECT_THROW(r.value_add(0, 1.0), Error);
}

TEST(Views, SparseVectorContract) {
  formats::SparseVector sv(10, {{2, 1.0}, {5, 2.0}, {9, 3.0}});
  SparseVectorView v("X", sv);
  check_level_contract(v.level(0), 0, 10);
  EXPECT_DOUBLE_EQ(v.value_at(v.level(0).search(0, 5)), 2.0);
}

TEST(Views, PermutationBothDirections) {
  PermutationView v("P", {2, 0, 1});
  // Forward: the single child of parent position i is perm[i].
  EXPECT_EQ(v.level(1).search(0, 2), 0);
  EXPECT_EQ(v.level(1).search(0, 1), -1);
  EXPECT_EQ(v.iperm()[2], 0);
  // Enumerating parent 1 yields exactly (perm[1], 1).
  int count = 0;
  v.level(1).enumerate(1, [&](index_t idx, index_t pos) {
    EXPECT_EQ(idx, 0);
    EXPECT_EQ(pos, 1);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  EXPECT_THROW(PermutationView("bad", {0, 0, 1}), Error);
}

TEST(Views, EnumerateEarlyStop) {
  IntervalView v("I", {100});
  int seen = 0;
  v.level(0).enumerate(0, [&](index_t, index_t) { return ++seen < 5; });
  EXPECT_EQ(seen, 5);
}

TEST(Query, ValidateCatchesMistakes) {
  IntervalView i("I", {4, 4});
  Vector y(4, 0.0);
  DenseVectorView yv("Y", VectorView(y));

  Query ok;
  ok.vars = {"i", "j"};
  ok.relations.push_back({&i, {"i", "j"}, true, false, true});
  ok.relations.push_back({&yv, {"i"}, false, true, false});
  EXPECT_NO_THROW(ok.validate());

  Query arity_mismatch = ok;
  arity_mismatch.relations[1].vars = {"i", "j"};
  EXPECT_THROW(arity_mismatch.validate(), Error);

  Query unknown_var = ok;
  unknown_var.relations[1].vars = {"k"};
  EXPECT_THROW(unknown_var.validate(), Error);

  Query dup_var = ok;
  dup_var.vars = {"i", "i"};
  EXPECT_THROW(dup_var.validate(), Error);

  Query uncovered;
  uncovered.vars = {"i", "j"};
  uncovered.relations.push_back({&yv, {"i"}, false, true, false});
  EXPECT_THROW(uncovered.validate(), Error);
}

}  // namespace
}  // namespace bernoulli::relation
