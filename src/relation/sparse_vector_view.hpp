// Relation view over a compressed sparse vector: X(j, x). One level —
// sorted, not dense, O(log) search. Supports the paper's queries with
// sparse X, giving the planner a real merge-join opportunity.
#pragma once

#include <memory>

#include "formats/sparse_vector.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

class SparseVectorView final : public RelationView {
 public:
  SparseVectorView(std::string name, const formats::SparseVector& v);

  std::string name() const override { return name_; }
  index_t arity() const override { return 1; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override;

 private:
  std::string name_;
  const formats::SparseVector& v_;
  std::unique_ptr<IndexLevel> level_;
};

}  // namespace bernoulli::relation
