#include "relation/jds_view.hpp"

#include "relation/array_views.hpp"
#include "support/error.hpp"

namespace bernoulli::relation {

namespace {

class JdsColLevel final : public IndexLevel {
 public:
  JdsColLevel(const formats::Jds& m, std::span<const index_t> rowlen)
      : m_(m), rowlen_(rowlen) {}

  LevelProperties properties() const override {
    // Entries of a permuted row come from consecutive jagged diagonals;
    // they are in the row's original CSR order, hence sorted by column.
    return {/*sorted=*/true, /*dense=*/false, SearchCost::kLinear};
  }

  void enumerate(index_t parent, const EnumFn& fn) const override {
    auto jdptr = m_.jdptr();
    const index_t len = rowlen_[static_cast<std::size_t>(parent)];
    for (index_t k = 0; k < len; ++k) {
      index_t pos = jdptr[static_cast<std::size_t>(k)] + parent;
      if (!fn(m_.colind()[static_cast<std::size_t>(pos)], pos)) return;
    }
  }

  index_t search(index_t parent, index_t index) const override {
    auto jdptr = m_.jdptr();
    const index_t len = rowlen_[static_cast<std::size_t>(parent)];
    for (index_t k = 0; k < len; ++k) {
      index_t pos = jdptr[static_cast<std::size_t>(k)] + parent;
      if (m_.colind()[static_cast<std::size_t>(pos)] == index) return pos;
    }
    return -1;
  }

  double expected_size() const override {
    return m_.rows() > 0 ? static_cast<double>(m_.nnz()) / m_.rows() : 0.0;
  }

  // The k-th entry of permuted row i' sits at jdptr[k] + i': an offset-
  // list walk over COLIND with off = jdptr, base = parent.
  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kOffsets;
    d.ind = m_.colind().data();
    d.ind_len = static_cast<index_t>(m_.colind().size());
    d.off = m_.jdptr().data();
    d.off_len = static_cast<index_t>(m_.jdptr().size());
    d.len = rowlen_.data();
    d.len_len = static_cast<index_t>(rowlen_.size());
    return d;
  }

 private:
  const formats::Jds& m_;
  std::span<const index_t> rowlen_;
};

}  // namespace

JdsView::JdsView(std::string name, const formats::Jds& m)
    : name_(std::move(name)), m_(m) {
  // Per-permuted-row entry count: row ip has entries on every jagged
  // diagonal long enough to reach it.
  rowlen_.assign(static_cast<std::size_t>(m.rows()), 0);
  auto jdptr = m.jdptr();
  for (index_t k = 0; k < m.num_jdiags(); ++k) {
    index_t len = jdptr[static_cast<std::size_t>(k) + 1] -
                  jdptr[static_cast<std::size_t>(k)];
    for (index_t ip = 0; ip < len; ++ip)
      ++rowlen_[static_cast<std::size_t>(ip)];
  }
  rows_ = std::make_unique<DenseIntervalLevel>(m.rows());
  cols_ = std::make_unique<JdsColLevel>(m_, rowlen_);
}

const IndexLevel& JdsView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  return depth == 0 ? *rows_ : *cols_;
}

value_t JdsView::value_at(index_t pos) const {
  return m_.vals()[static_cast<std::size_t>(pos)];
}

std::span<const value_t> JdsView::value_array() const { return m_.vals(); }

std::vector<index_t> JdsView::original_to_permuted() const {
  return {m_.iperm().begin(), m_.iperm().end()};
}

}  // namespace bernoulli::relation
