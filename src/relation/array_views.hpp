// Concrete relation views over the storage formats: the "access method"
// definitions the user supplies per format (paper §2.1). Each view adapts
// one format's arrays to the IndexLevel protocol and advertises honest
// properties (CSR's row level is dense and O(1)-searchable; its column
// level is sorted and O(log)-searchable; COO's row level is sorted but not
// dense; a dense vector is both).
#pragma once

#include <memory>

#include "formats/ccs.hpp"
#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "relation/view.hpp"

namespace bernoulli::relation {

/// Dense interval [0, extent): index == position, for every parent. The
/// row level of every row-major view (CSR, ELL, JDS, dense, format-spec
/// `dense(N)`) and each level of the iteration space.
class DenseIntervalLevel final : public IndexLevel {
 public:
  explicit DenseIntervalLevel(index_t extent) : extent_(extent) {}

  LevelProperties properties() const override {
    return {/*sorted=*/true, /*dense=*/true, SearchCost::kConstant};
  }

  void enumerate(index_t, const EnumFn& fn) const override {
    for (index_t i = 0; i < extent_; ++i)
      if (!fn(i, i)) return;
  }

  index_t search(index_t, index_t index) const override {
    return index >= 0 && index < extent_ ? index : -1;
  }

  double expected_size() const override { return static_cast<double>(extent_); }

  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kDense;
    d.extent = extent_;
    d.stride = 0;  // pos = k for every parent
    return d;
  }

 private:
  index_t extent_;
};

/// I(v1, ..., vk): the iteration-space relation — a cross product of dense
/// index intervals [0, extent). Carries no value. Position encoding at
/// every level: the index itself.
class IntervalView final : public RelationView {
 public:
  IntervalView(std::string name, std::vector<index_t> extents);

  std::string name() const override { return name_; }
  index_t arity() const override { return static_cast<index_t>(extents_.size()); }
  const IndexLevel& level(index_t depth) const override;

 private:
  std::string name_;
  std::vector<index_t> extents_;
  std::vector<std::unique_ptr<IndexLevel>> levels_;
};

/// X(j, x): a dense vector. Dense, sorted, O(1) search; writable.
class DenseVectorView final : public RelationView {
 public:
  DenseVectorView(std::string name, VectorView data);
  DenseVectorView(std::string name, ConstVectorView data);

  std::string name() const override { return name_; }
  index_t arity() const override { return 1; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  bool writable() const override { return writable_; }
  void value_add(index_t pos, value_t delta) override;
  void value_set(index_t pos, value_t v) override;
  std::span<const value_t> value_array() const override { return data_; }
  std::span<value_t> value_array_mut() override { return mutable_data_; }

 private:
  std::string name_;
  ConstVectorView data_;
  VectorView mutable_data_;  // empty when constructed read-only
  bool writable_ = false;    // explicit: a zero-length view is still writable
  std::unique_ptr<IndexLevel> level_;
};

/// A(i, j, a) over CSR storage: hierarchy I -> (J, V).
class CsrView final : public RelationView {
 public:
  CsrView(std::string name, const formats::Csr& m);

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override;

 private:
  std::string name_;
  const formats::Csr& m_;
  std::unique_ptr<IndexLevel> rows_;
  std::unique_ptr<IndexLevel> cols_;
};

/// A(j, i, a) over CCS storage: hierarchy J -> (I, V). Note the hierarchy
/// order: the view binds the COLUMN first.
class CcsView final : public RelationView {
 public:
  CcsView(std::string name, const formats::Ccs& m);

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override;

 private:
  std::string name_;
  const formats::Ccs& m_;
  std::unique_ptr<IndexLevel> cols_;
  std::unique_ptr<IndexLevel> rows_;
};

/// A(i, j, a) over canonical COO storage: the row level enumerates the
/// distinct stored rows (sorted, NOT dense — empty rows are absent), the
/// column level walks the row's run of entries.
class CooView final : public RelationView {
 public:
  CooView(std::string name, const formats::Coo& m);

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  std::span<const value_t> value_array() const override;

 private:
  std::string name_;
  const formats::Coo& m_;
  // rowptr-like run boundaries over the sorted triplets, built once.
  std::vector<index_t> distinct_rows_;
  std::vector<index_t> runptr_;
  std::unique_ptr<IndexLevel> rows_;
  std::unique_ptr<IndexLevel> cols_;
};

/// P(i, i'): a permutation stored as PERM/IPERM arrays (paper §2.2). The
/// first level is dense over i; the second holds exactly the single child
/// i' = perm[i]. Thanks to IPERM the view can also be searched "backwards"
/// via the inverse view below.
class PermutationView final : public RelationView {
 public:
  /// perm[i] = i'. The inverse is derived internally.
  PermutationView(std::string name, std::vector<index_t> perm);

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;

  std::span<const index_t> perm() const { return perm_; }
  std::span<const index_t> iperm() const { return iperm_; }

 private:
  std::string name_;
  std::vector<index_t> perm_;
  std::vector<index_t> iperm_;
  std::unique_ptr<IndexLevel> outer_;
  std::unique_ptr<IndexLevel> inner_;
};

/// A(i, j, a) over a dense matrix: both levels dense, O(1); writable.
class DenseMatrixView final : public RelationView {
 public:
  DenseMatrixView(std::string name, formats::Dense& m);

  std::string name() const override { return name_; }
  index_t arity() const override { return 2; }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return true; }
  value_t value_at(index_t pos) const override;
  bool writable() const override { return true; }
  void value_add(index_t pos, value_t delta) override;
  void value_set(index_t pos, value_t v) override;
  std::span<const value_t> value_array() const override;
  std::span<value_t> value_array_mut() override;

 private:
  std::string name_;
  formats::Dense& m_;
  std::unique_ptr<IndexLevel> rows_;
  std::unique_ptr<IndexLevel> cols_;
};

}  // namespace bernoulli::relation
