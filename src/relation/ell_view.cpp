#include "relation/ell_view.hpp"

#include "relation/array_views.hpp"
#include "support/error.hpp"

namespace bernoulli::relation {

namespace {

class EllColLevel final : public IndexLevel {
 public:
  explicit EllColLevel(const formats::Ell& m) : m_(m) {}

  LevelProperties properties() const override {
    // Columns are packed in ascending order by from_coo; search walks the
    // strided row, so it is linear (binary search over a stride is
    // possible but ITPACK's Fortran kernels scan).
    return {/*sorted=*/true, /*dense=*/false, SearchCost::kLinear};
  }

  void enumerate(index_t parent, const EnumFn& fn) const override {
    const index_t n = m_.rows();
    const index_t len = m_.rownnz()[static_cast<std::size_t>(parent)];
    for (index_t k = 0; k < len; ++k)
      if (!fn(m_.col_at(parent, k), k * n + parent)) return;
  }

  index_t search(index_t parent, index_t index) const override {
    const index_t n = m_.rows();
    const index_t len = m_.rownnz()[static_cast<std::size_t>(parent)];
    for (index_t k = 0; k < len; ++k)
      if (m_.col_at(parent, k) == index) return k * n + parent;
    return -1;
  }

  double expected_size() const override {
    return m_.rows() > 0 ? static_cast<double>(m_.nnz()) / m_.rows() : 0.0;
  }

  // ELL entries of row i live at column-major slots k*rows + i: a strided
  // walk over COLIND with base = parent, stride = rows. The padding slots
  // beyond rownnz hold column 0 (from_coo zero-fills), so whole-array
  // index scans over COLIND stay within [0, cols).
  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kStrided;
    d.ind = m_.colind().data();
    d.ind_len = static_cast<index_t>(m_.colind().size());
    d.len = m_.rownnz().data();
    d.len_len = static_cast<index_t>(m_.rownnz().size());
    d.stride = m_.rows();
    return d;
  }

 private:
  const formats::Ell& m_;
};

}  // namespace

EllView::EllView(std::string name, const formats::Ell& m)
    : name_(std::move(name)), m_(m) {
  rows_ = std::make_unique<DenseIntervalLevel>(m.rows());
  cols_ = std::make_unique<EllColLevel>(m);
}

const IndexLevel& EllView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  return depth == 0 ? *rows_ : *cols_;
}

value_t EllView::value_at(index_t pos) const {
  return m_.vals()[static_cast<std::size_t>(pos)];
}

std::span<const value_t> EllView::value_array() const { return m_.vals(); }

}  // namespace bernoulli::relation
