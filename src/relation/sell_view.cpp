#include "relation/sell_view.hpp"

#include <string>

namespace bernoulli::relation {

SellView::SellView(std::string name, const formats::Sell& m) {
  const std::string base = name + "_ROWBASE";
  const std::string len = name + "_ROWLEN";
  const std::string ind = name + "_COLIND";
  const std::string vals = name + "_VALS";
  arrays_.index_arrays[base] = {m.rowbase().begin(), m.rowbase().end()};
  arrays_.index_arrays[len] = {m.rowlen().begin(), m.rowlen().end()};
  arrays_.index_arrays[ind] = {m.colind().begin(), m.colind().end()};
  arrays_.value_arrays[vals] = {m.vals().begin(), m.vals().end()};
  inner_ = std::make_unique<GenericFormatView>(
      "format " + name + " {\n"
      "  level i: dense(" + std::to_string(m.rows()) + ");\n"
      "  level j: sliced(chunk=" + std::to_string(m.chunk()) +
      ", sigma=" + std::to_string(m.sigma()) + ", base=" + base +
      ", len=" + len + ", ind=" + ind + ") sorted;\n"
      "  value " + vals + ";\n"
      "}\n",
      arrays_);
}

SellView::~SellView() = default;

std::string SellView::name() const { return inner_->name(); }
index_t SellView::arity() const { return inner_->arity(); }
const IndexLevel& SellView::level(index_t depth) const {
  return inner_->level(depth);
}
bool SellView::has_value() const { return inner_->has_value(); }
value_t SellView::value_at(index_t pos) const { return inner_->value_at(pos); }
std::span<const value_t> SellView::value_array() const {
  return inner_->value_array();
}

}  // namespace bernoulli::relation
