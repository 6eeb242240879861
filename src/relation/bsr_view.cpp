#include "relation/bsr_view.hpp"

#include <string>

namespace bernoulli::relation {

BsrView::BsrView(std::string name, const formats::Bsr& m) {
  const std::string ptr = name + "_BROWPTR";
  const std::string ind = name + "_BCOLIND";
  const std::string vals = name + "_VALS";
  arrays_.index_arrays[ptr] = {m.browptr().begin(), m.browptr().end()};
  arrays_.index_arrays[ind] = {m.bcolind().begin(), m.bcolind().end()};
  arrays_.value_arrays[vals] = {m.vals().begin(), m.vals().end()};
  const std::string b = std::to_string(m.block());
  inner_ = std::make_unique<GenericFormatView>(
      "format " + name + " {\n"
      "  level i: dense(" + std::to_string(m.rows()) + ");\n"
      "  level j: blocked(r=" + b + ", c=" + b + ", ptr=" + ptr +
      ", ind=" + ind + ") sorted;\n"
      "  value " + vals + ";\n"
      "}\n",
      arrays_);
}

BsrView::~BsrView() = default;

std::string BsrView::name() const { return inner_->name(); }
index_t BsrView::arity() const { return inner_->arity(); }
const IndexLevel& BsrView::level(index_t depth) const {
  return inner_->level(depth);
}
bool BsrView::has_value() const { return inner_->has_value(); }
value_t BsrView::value_at(index_t pos) const { return inner_->value_at(pos); }
std::span<const value_t> BsrView::value_array() const {
  return inner_->value_array();
}

}  // namespace bernoulli::relation
