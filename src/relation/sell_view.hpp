// Relation view over SELL-C-sigma storage: A(i, j, a) with hierarchy
// I -> (J, V), enumerated per ORIGINAL row (the i index is the user's row
// number; the sigma-window length sort only moves where slots live).
//
// Like BsrView this is a textual format spec handed to GenericFormatView —
//
//   format A {
//     level i: dense(rows);
//     level j: sliced(chunk=C, sigma=S, base=ROWBASE, len=ROWLEN,
//                     ind=COLIND) sorted;
//     value VALS;
//   }
//
// — one level spec, no cursor backend. Padding lanes sit beyond every
// row's ROWLEN, so they are never enumerated and cannot perturb outputs
// or counters.
#pragma once

#include <memory>

#include "formats/sell.hpp"
#include "relation/format_spec.hpp"

namespace bernoulli::relation {

class SellView final : public RelationView {
 public:
  SellView(std::string name, const formats::Sell& m);
  ~SellView() override;

  std::string name() const override;
  index_t arity() const override;
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override;
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override;

 private:
  FormatArrays arrays_;
  std::unique_ptr<GenericFormatView> inner_;
};

}  // namespace bernoulli::relation
