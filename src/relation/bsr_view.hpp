// Relation view over BSR storage: A(i, j, a) with hierarchy I -> (J, V).
//
// Deliberately NOT a hand-written pair of levels: the view is a textual
// format spec handed to GenericFormatView —
//
//   format A {
//     level i: dense(rows);
//     level j: blocked(r=b, c=b, ptr=BROWPTR, ind=BCOLIND) sorted;
//     value VALS;
//   }
//
// which is the paper's claim made concrete: a new storage format costs
// one level spec, and the descriptor lowering gives it the cursor
// protocol, register-blocked bulk drains, the specializer and EXPLAIN
// for free. Fill zeros inside stored tiles ARE enumerated (that is BCSR's
// bargain), so outputs match CSR bitwise only on block-dense matrices.
#pragma once

#include <memory>

#include "formats/bsr.hpp"
#include "relation/format_spec.hpp"

namespace bernoulli::relation {

class BsrView final : public RelationView {
 public:
  BsrView(std::string name, const formats::Bsr& m);
  ~BsrView() override;

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
