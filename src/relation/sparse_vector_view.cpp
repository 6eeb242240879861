#include "relation/sparse_vector_view.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace bernoulli::relation {

namespace {

class SparseVectorLevel final : public IndexLevel {
 public:
  explicit SparseVectorLevel(std::span<const index_t> ind) : ind_(ind) {}

  LevelProperties properties() const override {
    return {/*sorted=*/true, /*dense=*/false, SearchCost::kLog};
  }

  void enumerate(index_t, const EnumFn& fn) const override {
    for (std::size_t k = 0; k < ind_.size(); ++k)
      if (!fn(ind_[k], static_cast<index_t>(k))) return;
  }

  index_t search(index_t, index_t index) const override {
    auto it = std::lower_bound(ind_.begin(), ind_.end(), index);
    if (it != ind_.end() && *it == index)
      return static_cast<index_t>(it - ind_.begin());
    return -1;
  }

  double expected_size() const override {
    return static_cast<double>(ind_.size());
  }

  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kList;
    d.ind = ind_.data();
    d.ind_len = static_cast<index_t>(ind_.size());
    return d;
  }

 private:
  std::span<const index_t> ind_;
};

}  // namespace

SparseVectorView::SparseVectorView(std::string name,
                                   const formats::SparseVector& v)
    : name_(std::move(name)), v_(v) {
  level_ = std::make_unique<SparseVectorLevel>(v.ind());
}

const IndexLevel& SparseVectorView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0);
  return *level_;
}

value_t SparseVectorView::value_at(index_t pos) const {
  return v_.vals()[static_cast<std::size_t>(pos)];
}

std::span<const value_t> SparseVectorView::value_array() const {
  return v_.vals();
}

}  // namespace bernoulli::relation
