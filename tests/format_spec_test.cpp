// Declarative format specifications: a user teaches the compiler a new
// format with a textual spec over raw arrays, and the ordinary pipeline
// plans/runs/emits against it.
#include <gtest/gtest.h>

#include "compiler/loopnest.hpp"
#include "formats/bsr.hpp"
#include "formats/csr.hpp"
#include "formats/sell.hpp"
#include "relation/array_views.hpp"
#include "relation/format_spec.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bernoulli::relation {
namespace {

using formats::Coo;
using formats::Csr;
using formats::TripletBuilder;

Coo sample(index_t n, index_t nnz, std::uint64_t seed) {
  SplitMix64 rng(seed);
  TripletBuilder b(n, n);
  for (index_t k = 0; k < nnz; ++k)
    b.add(rng.next_index(n), rng.next_index(n), rng.next_double(-1, 1));
  return std::move(b).build();
}

// Loads a CSR matrix's raw arrays into a FormatArrays bundle.
FormatArrays csr_arrays(const Csr& m) {
  FormatArrays arrays;
  arrays.index_arrays["ROWPTR"] = {m.rowptr().begin(), m.rowptr().end()};
  arrays.index_arrays["COLIND"] = {m.colind().begin(), m.colind().end()};
  arrays.value_arrays["VALS"] = {m.vals().begin(), m.vals().end()};
  return arrays;
}

std::string csr_spec(index_t rows) {
  return "format A {\n"
         "  level i: dense(" + std::to_string(rows) + ");\n"
         "  level j: compressed(ptr=ROWPTR, ind=COLIND) sorted;\n"
         "  value VALS;\n"
         "}\n";
}

TEST(FormatSpec, ParsesCsrAndMatchesBuiltinView) {
  Coo coo = sample(12, 50, 1);
  Csr m = Csr::from_coo(coo);
  FormatArrays arrays = csr_arrays(m);
  GenericFormatView v(csr_spec(12), arrays);

  EXPECT_EQ(v.name(), "A");
  EXPECT_EQ(v.arity(), 2);
  EXPECT_EQ(v.level_vars(), (std::vector<std::string>{"i", "j"}));
  EXPECT_TRUE(v.level(0).properties().dense);
  EXPECT_TRUE(v.level(1).properties().sorted);
  EXPECT_EQ(v.level(1).properties().search_cost, SearchCost::kLog);

  CsrView builtin("A", m);
  for (index_t i = 0; i < 12; ++i)
    for (index_t j = 0; j < 12; ++j)
      EXPECT_EQ(v.level(1).search(i, j), builtin.level(1).search(i, j));
}

TEST(FormatSpec, CompilesThroughThePipeline) {
  const index_t n = 16;
  Coo coo = sample(n, 70, 2);
  Csr m = Csr::from_coo(coo);
  FormatArrays arrays = csr_arrays(m);
  GenericFormatView aview(csr_spec(n), arrays);

  SplitMix64 rng(3);
  Vector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1, 1);
  Vector y(static_cast<std::size_t>(n), 0.0), y_ref(y.size());
  formats::spmv(m, x, y_ref);

  compiler::Bindings b;
  b.bind_view("A", &aview, {0, 1}, /*sparse=*/true);
  b.bind_dense_vector("X", ConstVectorView(x));
  b.bind_dense_vector("Y", VectorView(y));
  compiler::LoopNest nest{{{"i", n}, {"j", n}},
                          {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}},
                           1.0}};
  compiler::CompiledKernel k = compiler::compile(nest, b);
  k.run();
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-12);
  // Emission labels each argument with its relation and role.
  std::string code = k.emit();
  EXPECT_NE(code.find("/* A: level 1 ptr */"), std::string::npos) << code;
  EXPECT_NE(code.find("/* A: values */"), std::string::npos) << code;
}

TEST(FormatSpec, UnsortedLevelGetsLinearSearch) {
  Coo coo = sample(8, 20, 4);
  Csr m = Csr::from_coo(coo);
  FormatArrays arrays = csr_arrays(m);
  GenericFormatView v(
      "format B { level i: dense(8); "
      "level j: compressed(ptr=ROWPTR, ind=COLIND) unsorted; value VALS; }",
      arrays);
  EXPECT_FALSE(v.level(1).properties().sorted);
  EXPECT_EQ(v.level(1).properties().search_cost, SearchCost::kLinear);
  // Search must still be correct.
  CsrView builtin("B", m);
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 8; ++j)
      EXPECT_EQ(v.level(1).search(i, j), builtin.level(1).search(i, j));
}

TEST(FormatSpec, ListAndFunctionLevels) {
  FormatArrays arrays;
  arrays.index_arrays["IND"] = {2, 5, 9};
  arrays.index_arrays["MAP"] = {1, 0, 2};
  GenericFormatView list_view(
      "format L { level i: list(ind=IND) sorted; }", arrays);
  EXPECT_EQ(list_view.level(0).search(0, 5), 1);
  EXPECT_EQ(list_view.level(0).search(0, 4), -1);
  EXPECT_FALSE(list_view.has_value());

  GenericFormatView fn_view(
      "format P { level i: dense(3); level ip: function(map=MAP); }", arrays);
  EXPECT_EQ(fn_view.level(1).search(0, 1), 0);
  EXPECT_EQ(fn_view.level(1).search(0, 0), -1);
}

TEST(FormatSpec, ParsesBlockedLevelAndSearchesThroughBlocks) {
  // 8x8 with full 4x4 blocks at block (0,0) and (1,1): every in-block
  // probe must land on the block-row-major value slot, every out-of-block
  // probe must miss.
  TripletBuilder tb(8, 8);
  for (index_t r = 0; r < 4; ++r)
    for (index_t c = 0; c < 4; ++c) {
      tb.add(r, c, 1.0 + r * 4 + c);
      tb.add(4 + r, 4 + c, -(1.0 + r * 4 + c));
    }
  Coo coo = std::move(tb).build();
  formats::Bsr m = formats::Bsr::from_coo(coo, 4);

  FormatArrays arrays;
  arrays.index_arrays["BROWPTR"] = {m.browptr().begin(), m.browptr().end()};
  arrays.index_arrays["BCOLIND"] = {m.bcolind().begin(), m.bcolind().end()};
  arrays.value_arrays["BVALS"] = {m.vals().begin(), m.vals().end()};
  GenericFormatView v(
      "format A { level i: dense(8); "
      "level j: blocked(r=4, c=4, ptr=BROWPTR, ind=BCOLIND) sorted; "
      "value BVALS; }",
      arrays);

  EXPECT_EQ(v.arity(), 2);
  EXPECT_EQ(descriptor_text(v.level(1).describe()), "blocked 4x4");
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 8; ++j) {
      const index_t pos = v.level(1).search(i, j);
      if ((i < 4) == (j < 4)) {
        ASSERT_GE(pos, 0) << i << "," << j;
        EXPECT_EQ(m.vals()[static_cast<std::size_t>(pos)], m.at(i, j))
            << i << "," << j;
      } else {
        EXPECT_EQ(pos, -1) << i << "," << j;
      }
    }
}

TEST(FormatSpec, ParsesSlicedLevelAndMatchesCsrSearch) {
  Coo coo = sample(10, 30, 5);
  formats::Sell m = formats::Sell::from_coo(coo, 4, 8);
  formats::Csr csr = formats::Csr::from_coo(coo);

  FormatArrays arrays;
  arrays.index_arrays["ROWBASE"] = {m.rowbase().begin(), m.rowbase().end()};
  arrays.index_arrays["ROWLEN"] = {m.rowlen().begin(), m.rowlen().end()};
  arrays.index_arrays["SIND"] = {m.colind().begin(), m.colind().end()};
  arrays.value_arrays["SVALS"] = {m.vals().begin(), m.vals().end()};
  GenericFormatView v(
      "format S { level i: dense(10); "
      "level j: sliced(chunk=4, sigma=8, base=ROWBASE, len=ROWLEN, ind=SIND) "
      "sorted; value SVALS; }",
      arrays);

  EXPECT_EQ(descriptor_text(v.level(1).describe()), "sliced C=4 sigma=8");
  // Same hits and misses as CSR, with the hit's lane slot holding the
  // same value — padding lanes are unreachable through search.
  CsrView builtin("S", csr);
  for (index_t i = 0; i < 10; ++i)
    for (index_t j = 0; j < 10; ++j) {
      const index_t pos = v.level(1).search(i, j);
      const index_t ref = builtin.level(1).search(i, j);
      if (ref < 0) {
        EXPECT_EQ(pos, -1) << i << "," << j;
      } else {
        ASSERT_GE(pos, 0) << i << "," << j;
        EXPECT_EQ(m.vals()[static_cast<std::size_t>(pos)],
                  csr.vals()[static_cast<std::size_t>(ref)])
            << i << "," << j;
      }
    }
}

TEST(FormatSpec, BlockedAndSlicedErrorsAreAnchored) {
  FormatArrays arrays;
  arrays.index_arrays["PTR"] = {0, 1};
  arrays.index_arrays["IND"] = {0};
  arrays.index_arrays["BASE"] = {0, 1};
  arrays.index_arrays["LEN"] = {1, 1};
  arrays.index_arrays["LEN3"] = {1, 1, 1};

  auto expect_error = [&](const std::string& spec, const char* line,
                          const char* needle) {
    try {
      GenericFormatView v(spec, arrays);
      FAIL() << "expected throw mentioning: " << needle;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // Zero/negative block dims, anchored to the offending line.
  expect_error(
      "format X {\n  level i: dense(4);\n"
      "  level j: blocked(r=0, c=4, ptr=PTR, ind=IND);\n}",
      "line 3", "positive block dims");
  // Block tiling must cover the dense parent exactly.
  expect_error(
      "format X {\n  level i: dense(5);\n"
      "  level j: blocked(r=4, c=4, ptr=PTR, ind=IND);\n}",
      "line 3", "covers 4 rows but parent level is dense(5)");
  // Unknown array names are echoed back.
  expect_error(
      "format X {\n  level i: dense(4);\n"
      "  level j: blocked(r=4, c=4, ptr=NOPE, ind=IND);\n}",
      "line 3", "NOPE");
  // chunk must be positive.
  expect_error(
      "format X {\n  level i: dense(2);\n"
      "  level j: sliced(chunk=0, sigma=8, base=BASE, len=LEN, ind=IND);\n}",
      "line 3", "positive chunk");
  // sigma must tile into whole chunks.
  expect_error(
      "format X {\n  level i: dense(2);\n"
      "  level j: sliced(chunk=4, sigma=6, base=BASE, len=LEN, ind=IND);\n}",
      "line 3", "sigma must be a positive multiple of chunk, got sigma=6");
  // base and len must agree on the row count.
  expect_error(
      "format X {\n  level i: dense(2);\n"
      "  level j: sliced(chunk=4, sigma=8, base=BASE, len=LEN3, ind=IND);\n}",
      "line 3", "base and len must have one entry per row");
}

// The levels read the user's arrays unchecked, so arrays that break the
// declared structure are rejected at construction, anchored to the line
// that declares them. Each case below is one structural check.
FormatArrays broken_arrays() {
  FormatArrays arrays;
  arrays.index_arrays["IND"] = {0, 1};
  arrays.index_arrays["DESC"] = {1, 0};
  arrays.index_arrays["PTR"] = {0, 1, 2};
  arrays.index_arrays["PAIR"] = {0, 2, 2};
  arrays.index_arrays["NEG"] = {-1, 1, 2};
  arrays.index_arrays["DEC"] = {0, 2, 1};
  arrays.index_arrays["LONG"] = {0, 1, 3};
  arrays.index_arrays["ONE_ROW"] = {0, 2};
  arrays.index_arrays["BASE"] = {0, 1};
  arrays.index_arrays["LEN"] = {2, 2};
  arrays.index_arrays["LEN_PAD"] = {2, 1};
  arrays.index_arrays["SIND3"] = {3, 5, 4};
  arrays.index_arrays["SIND4"] = {3, 5, 4, 0};
  arrays.value_arrays["VALS"] = {1.0, 2.0, 3.0, 4.0};
  arrays.value_arrays["SHORT"] = {1.0};
  return arrays;
}

// Builds `format X { dense(2) over <level> [; value <value>] }` and expects
// a throw at `line` whose message contains `needle`.
void expect_spec_error(const std::string& level, const std::string& needle,
                       const std::string& value = "", int line = 3) {
  std::string spec = "format X {\n  level i: dense(2);\n  level j: " +
                     level + ";\n";
  if (!value.empty()) spec += "  value " + value + ";\n";
  spec += "}";
  const FormatArrays arrays = broken_arrays();
  try {
    GenericFormatView v(spec, arrays);
    FAIL() << "expected throw mentioning: " << needle;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format spec line " + std::to_string(line)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(FormatSpec, RejectsNegativePtr) {
  expect_spec_error("compressed(ptr=NEG, ind=IND)", "NEG[0] = -1 is negative");
}

TEST(FormatSpec, RejectsDecreasingPtr) {
  expect_spec_error("compressed(ptr=DEC, ind=IND)", "DEC[2] = 1 decreases");
}

TEST(FormatSpec, RejectsPtrEndingPastIndexArray) {
  expect_spec_error("compressed(ptr=LONG, ind=IND)",
                    "LONG ends at 3, past the 2 entries");
  expect_spec_error("blocked(r=1, c=1, ptr=LONG, ind=IND)",
                    "LONG ends at 3, past the 2 entries");
  // A ptr too short for the parent level's positions is the same gap
  // from the other end.
  expect_spec_error("compressed(ptr=ONE_ROW, ind=IND)",
                    "ONE_ROW has 2 entries but the parent level needs 3");
}

TEST(FormatSpec, RejectsSlicedRowOverrunningInd) {
  expect_spec_error(
      "sliced(chunk=2, sigma=2, base=BASE, len=LEN, ind=SIND3) unsorted",
      "sliced() row 1 (BASE = 1, LEN = 2) overruns the 3 entries of SIND3");
}

TEST(FormatSpec, RejectsValueArrayShorterThanLeafPositions) {
  expect_spec_error("compressed(ptr=PTR, ind=IND)",
                    "value array SHORT has 1 entries but the levels address "
                    "2 positions",
                    "SHORT", /*line=*/4);
}

TEST(FormatSpec, RejectsSortedSegmentThatDescends) {
  expect_spec_error("compressed(ptr=PAIR, ind=DESC) sorted",
                    "DESC is declared sorted but DESC[1] = 0 follows 1");
  expect_spec_error(
      "sliced(chunk=2, sigma=2, base=BASE, len=LEN, ind=SIND4) sorted",
      "SIND4 is declared sorted but SIND4[3] = 0 follows 5");
  // Padding lanes beyond len are never read, so they are not checked:
  // row 1's padding slot holds column 0 after its one real entry. (The
  // view borrows the arrays, so they must outlive it.)
  const FormatArrays arrays = broken_arrays();
  GenericFormatView padded(
      "format S { level i: dense(2); "
      "level j: sliced(chunk=2, sigma=2, base=BASE, len=LEN_PAD, ind=SIND4) "
      "sorted; value VALS; }",
      arrays);
  EXPECT_EQ(padded.level(1).search(1, 5), 1);
}

TEST(FormatSpec, ErrorsAreAnchored) {
  FormatArrays arrays;
  try {
    GenericFormatView v("format X {\n  level i: compressed(ptr=NOPE, ind=Q);\n}",
                        arrays);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos);
  }
  EXPECT_THROW(GenericFormatView("format Y { }", arrays), Error);
  EXPECT_THROW(GenericFormatView("format Z { level i: bogus(3); }", arrays),
               Error);
  EXPECT_THROW(GenericFormatView("format W { level i: dense(x); }", arrays),
               Error);
}

}  // namespace
}  // namespace bernoulli::relation
