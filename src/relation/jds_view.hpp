// Relation view over Jagged Diagonal storage: the paper's running example
// of a format built on an index permutation (§2.2, Eq. 6).
//
// JDS stores A' — the matrix with rows permuted by decreasing length — so
// the view exposes A'(i', j, a) with i' the PERMUTED row index: hierarchy
// I' -> (J, V). Queries over the original row index i compose this view
// with a PermutationView P(i, i') built from the format's own PERM array,
// exactly the paper's
//   Q = sigma_P ( I(i,j) |><| X(j,x) |><| Y(i,y) |><| P(i,i') |><| A'(i',j,a) ).
//
// Row i' has jds.jdptr-many strided entries: the k-th is at offset
// jdptr[k] + i' while k < rowlen(i'). Enumeration follows that stride;
// search is linear (JDS has no better row search — an honest property the
// planner must work around).
#pragma once

#include <memory>

#include "formats/jds.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

class JdsView final : public RelationView {
 public:
  JdsView(std::string name, const formats::Jds& m);

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override;

  /// The original-row -> permuted-row map (IPERM), ready to build the
  /// companion PermutationView P(i, i') for Eq. 6 queries.
  std::vector<index_t> original_to_permuted() const;

 private:
  std::string name_;
  const formats::Jds& m_;
  std::vector<index_t> rowlen_;  // entries per permuted row
  std::unique_ptr<IndexLevel> rows_;
  std::unique_ptr<IndexLevel> cols_;
};

}  // namespace bernoulli::relation
