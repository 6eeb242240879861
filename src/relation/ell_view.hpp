// Relation view over ITPACK/ELLPACK storage: A(i, j, a) with hierarchy
// I -> (J, V). The row level is dense; the column level enumerates the
// row's real entries (skipping padding via the per-row length), sorted
// because construction packs columns in ascending order. Positions at the
// leaf encode the column-major slot k*rows + i.
#pragma once

#include <memory>

#include "formats/ell.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

class EllView final : public RelationView {
 public:
  EllView(std::string name, const formats::Ell& m);

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override;

 private:
  std::string name_;
  const formats::Ell& m_;
  std::unique_ptr<IndexLevel> rows_;
  std::unique_ptr<IndexLevel> cols_;
};

}  // namespace bernoulli::relation
