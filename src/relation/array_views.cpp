#include "relation/array_views.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace bernoulli::relation {

namespace {

/// Segment level over (ptr, ind) compressed arrays: children of parent p
/// are indices ind[ptr[p] .. ptr[p+1]-1] at positions equal to the offsets.
/// Sorted within the segment; binary search.
class CompressedLevel final : public IndexLevel {
 public:
  CompressedLevel(std::span<const index_t> ptr, std::span<const index_t> ind,
                  double expected)
      : ptr_(ptr), ind_(ind), expected_(expected) {}

  LevelProperties properties() const override {
    return {/*sorted=*/true, /*dense=*/false, SearchCost::kLog};
  }

  void enumerate(index_t parent, const EnumFn& fn) const override {
    const index_t end = ptr_[static_cast<std::size_t>(parent) + 1];
    for (index_t k = ptr_[static_cast<std::size_t>(parent)]; k < end; ++k)
      if (!fn(ind_[static_cast<std::size_t>(k)], k)) return;
  }

  index_t search(index_t parent, index_t index) const override {
    const index_t* begin = ind_.data() + ptr_[static_cast<std::size_t>(parent)];
    const index_t* end = ind_.data() + ptr_[static_cast<std::size_t>(parent) + 1];
    const index_t* it = std::lower_bound(begin, end, index);
    if (it != end && *it == index)
      return static_cast<index_t>(it - ind_.data());
    return -1;
  }

  double expected_size() const override { return expected_; }

  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kCompressed;
    d.ptr = ptr_.data();
    d.ptr_len = static_cast<index_t>(ptr_.size());
    d.ind = ind_.data();
    d.ind_len = static_cast<index_t>(ind_.size());
    return d;
  }

 private:
  std::span<const index_t> ptr_;
  std::span<const index_t> ind_;
  double expected_;
};

/// Sorted list of distinct indices (e.g. the stored rows of a COO matrix):
/// position = list offset.
class SortedListLevel final : public IndexLevel {
 public:
  explicit SortedListLevel(std::span<const index_t> list) : list_(list) {}

  LevelProperties properties() const override {
    return {/*sorted=*/true, /*dense=*/false, SearchCost::kLog};
  }

  void enumerate(index_t, const EnumFn& fn) const override {
    for (std::size_t k = 0; k < list_.size(); ++k)
      if (!fn(list_[k], static_cast<index_t>(k))) return;
  }

  index_t search(index_t, index_t index) const override {
    auto it = std::lower_bound(list_.begin(), list_.end(), index);
    if (it != list_.end() && *it == index)
      return static_cast<index_t>(it - list_.begin());
    return -1;
  }

  double expected_size() const override {
    return static_cast<double>(list_.size());
  }

  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kList;
    d.ind = list_.data();
    d.ind_len = static_cast<index_t>(list_.size());
    return d;
  }

 private:
  std::span<const index_t> list_;
};

/// Functional single-child level: parent position p has exactly one child
/// with index f(p) (used by the permutation view).
class FunctionLevel final : public IndexLevel {
 public:
  explicit FunctionLevel(std::span<const index_t> map) : map_(map) {}

  LevelProperties properties() const override {
    // A single child is trivially sorted; search is a comparison.
    return {/*sorted=*/true, /*dense=*/false, SearchCost::kConstant};
  }

  void enumerate(index_t parent, const EnumFn& fn) const override {
    fn(map_[static_cast<std::size_t>(parent)], parent);
  }

  index_t search(index_t parent, index_t index) const override {
    return map_[static_cast<std::size_t>(parent)] == index ? parent : -1;
  }

  double expected_size() const override { return 1.0; }

  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kSingleton;
    d.map = map_.data();
    d.map_len = static_cast<index_t>(map_.size());
    return d;
  }

 private:
  std::span<const index_t> map_;
};

/// Inner level of a dense matrix: children of row i are all columns; the
/// leaf position encodes i*cols + j.
class DenseMatrixInnerLevel final : public IndexLevel {
 public:
  explicit DenseMatrixInnerLevel(index_t cols) : cols_(cols) {}

  LevelProperties properties() const override {
    return {/*sorted=*/true, /*dense=*/true, SearchCost::kConstant};
  }

  void enumerate(index_t parent, const EnumFn& fn) const override {
    const index_t base = parent * cols_;
    for (index_t j = 0; j < cols_; ++j)
      if (!fn(j, base + j)) return;
  }

  index_t search(index_t parent, index_t index) const override {
    return index >= 0 && index < cols_ ? parent * cols_ + index : -1;
  }

  double expected_size() const override { return static_cast<double>(cols_); }

  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kDense;
    d.extent = cols_;
    d.stride = cols_;  // pos = parent*cols + k
    return d;
  }

 private:
  index_t cols_;
};

}  // namespace

// ---------------------------------------------------------------- Interval

IntervalView::IntervalView(std::string name, std::vector<index_t> extents)
    : name_(std::move(name)), extents_(std::move(extents)) {
  BERNOULLI_CHECK(!extents_.empty());
  for (index_t e : extents_) {
    BERNOULLI_CHECK(e >= 0);
    levels_.push_back(std::make_unique<DenseIntervalLevel>(e));
  }
}

const IndexLevel& IntervalView::level(index_t depth) const {
  BERNOULLI_CHECK(depth >= 0 && depth < arity());
  return *levels_[static_cast<std::size_t>(depth)];
}

// ------------------------------------------------------------ Dense vector

DenseVectorView::DenseVectorView(std::string name, VectorView data)
    : name_(std::move(name)),
      data_(data),
      mutable_data_(data),
      writable_(true),
      level_(std::make_unique<DenseIntervalLevel>(
          static_cast<index_t>(data.size()))) {}

DenseVectorView::DenseVectorView(std::string name, ConstVectorView data)
    : name_(std::move(name)),
      data_(data),
      level_(std::make_unique<DenseIntervalLevel>(
          static_cast<index_t>(data.size()))) {}

const IndexLevel& DenseVectorView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0);
  return *level_;
}

value_t DenseVectorView::value_at(index_t pos) const {
  return data_[static_cast<std::size_t>(pos)];
}

void DenseVectorView::value_add(index_t pos, value_t delta) {
  BERNOULLI_CHECK_MSG(writable(), name_ << " is read-only");
  mutable_data_[static_cast<std::size_t>(pos)] += delta;
}

void DenseVectorView::value_set(index_t pos, value_t v) {
  BERNOULLI_CHECK_MSG(writable(), name_ << " is read-only");
  mutable_data_[static_cast<std::size_t>(pos)] = v;
}

// -------------------------------------------------------------------- CSR

CsrView::CsrView(std::string name, const formats::Csr& m)
    : name_(std::move(name)), m_(m) {
  rows_ = std::make_unique<DenseIntervalLevel>(m.rows());
  double avg = m.rows() > 0 ? static_cast<double>(m.nnz()) / m.rows() : 0.0;
  cols_ = std::make_unique<CompressedLevel>(m.rowptr(), m.colind(), avg);
}

const IndexLevel& CsrView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  return depth == 0 ? *rows_ : *cols_;
}

value_t CsrView::value_at(index_t pos) const {
  return m_.vals()[static_cast<std::size_t>(pos)];
}

std::span<const value_t> CsrView::value_array() const { return m_.vals(); }

// -------------------------------------------------------------------- CCS

CcsView::CcsView(std::string name, const formats::Ccs& m)
    : name_(std::move(name)), m_(m) {
  cols_ = std::make_unique<DenseIntervalLevel>(m.cols());
  double avg = m.cols() > 0 ? static_cast<double>(m.nnz()) / m.cols() : 0.0;
  rows_ = std::make_unique<CompressedLevel>(m.colp(), m.rowind(), avg);
}

const IndexLevel& CcsView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  return depth == 0 ? *cols_ : *rows_;
}

value_t CcsView::value_at(index_t pos) const {
  return m_.vals()[static_cast<std::size_t>(pos)];
}

std::span<const value_t> CcsView::value_array() const { return m_.vals(); }

// -------------------------------------------------------------------- COO

CooView::CooView(std::string name, const formats::Coo& m)
    : name_(std::move(name)), m_(m) {
  auto rowind = m.rowind();
  runptr_.push_back(0);
  for (index_t k = 0; k < m.nnz(); ++k) {
    if (distinct_rows_.empty() || distinct_rows_.back() != rowind[k]) {
      if (!distinct_rows_.empty()) runptr_.push_back(k);
      distinct_rows_.push_back(rowind[k]);
    }
  }
  runptr_.push_back(m.nnz());
  if (distinct_rows_.empty()) runptr_ = {0};
  // Level 0 positions are offsets into distinct_rows_; level 1 positions
  // are entry offsets (runptr_ segments over colind).
  rows_ = std::make_unique<SortedListLevel>(distinct_rows_);
  double avg = distinct_rows_.empty()
                   ? 0.0
                   : static_cast<double>(m.nnz()) /
                         static_cast<double>(distinct_rows_.size());
  cols_ = std::make_unique<CompressedLevel>(runptr_, m.colind(), avg);
}

const IndexLevel& CooView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  return depth == 0 ? *rows_ : *cols_;
}

value_t CooView::value_at(index_t pos) const {
  return m_.vals()[static_cast<std::size_t>(pos)];
}

std::span<const value_t> CooView::value_array() const { return m_.vals(); }

// ------------------------------------------------------------ Permutation

PermutationView::PermutationView(std::string name, std::vector<index_t> perm)
    : name_(std::move(name)), perm_(std::move(perm)) {
  iperm_.assign(perm_.size(), -1);
  for (std::size_t i = 0; i < perm_.size(); ++i) {
    index_t p = perm_[i];
    BERNOULLI_CHECK(p >= 0 && p < static_cast<index_t>(perm_.size()));
    BERNOULLI_CHECK_MSG(iperm_[static_cast<std::size_t>(p)] == -1,
                        name_ << " is not a permutation");
    iperm_[static_cast<std::size_t>(p)] = static_cast<index_t>(i);
  }
  outer_ = std::make_unique<DenseIntervalLevel>(
      static_cast<index_t>(perm_.size()));
  inner_ = std::make_unique<FunctionLevel>(perm_);
}

const IndexLevel& PermutationView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  return depth == 0 ? *outer_ : *inner_;
}

// ------------------------------------------------------------ Dense matrix

DenseMatrixView::DenseMatrixView(std::string name, formats::Dense& m)
    : name_(std::move(name)), m_(m) {
  rows_ = std::make_unique<DenseIntervalLevel>(m.rows());
  cols_ = std::make_unique<DenseMatrixInnerLevel>(m.cols());
}

const IndexLevel& DenseMatrixView::level(index_t depth) const {
  BERNOULLI_CHECK(depth == 0 || depth == 1);
  return depth == 0 ? *rows_ : *cols_;
}

value_t DenseMatrixView::value_at(index_t pos) const {
  return m_.data()[static_cast<std::size_t>(pos)];
}

void DenseMatrixView::value_add(index_t pos, value_t delta) {
  m_.data()[static_cast<std::size_t>(pos)] += delta;
}

void DenseMatrixView::value_set(index_t pos, value_t v) {
  m_.data()[static_cast<std::size_t>(pos)] = v;
}

std::span<const value_t> DenseMatrixView::value_array() const {
  return std::as_const(m_).data();
}

std::span<value_t> DenseMatrixView::value_array_mut() { return m_.data(); }

}  // namespace bernoulli::relation
