#include "compiler/loopnest.hpp"

#include <algorithm>

#include "compiler/explain.hpp"
#include "relation/array_views.hpp"
#include "relation/bsr_view.hpp"
#include "relation/ell_view.hpp"
#include "relation/sell_view.hpp"
#include "relation/sparse_vector_view.hpp"
#include "support/error.hpp"

namespace bernoulli::compiler {

using relation::BoundRelation;
using relation::Query;

void Bindings::bind_csr(const std::string& name, const formats::Csr& m) {
  owned_.push_back(std::make_unique<relation::CsrView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_ccs(const std::string& name, const formats::Ccs& m) {
  owned_.push_back(std::make_unique<relation::CcsView>(name, m));
  // CCS binds the column first: hierarchy level 0 is reference position 1.
  entries_[name] = {owned_.back().get(), {1, 0}, /*sparse=*/true};
}

void Bindings::bind_coo(const std::string& name, const formats::Coo& m) {
  owned_.push_back(std::make_unique<relation::CooView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_ell(const std::string& name, const formats::Ell& m) {
  owned_.push_back(std::make_unique<relation::EllView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_bsr(const std::string& name, const formats::Bsr& m) {
  owned_.push_back(std::make_unique<relation::BsrView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_sell(const std::string& name, const formats::Sell& m) {
  owned_.push_back(std::make_unique<relation::SellView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_dense_matrix(const std::string& name, formats::Dense& m) {
  owned_.push_back(std::make_unique<relation::DenseMatrixView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/false};
}

void Bindings::bind_dense_vector(const std::string& name, VectorView v) {
  owned_.push_back(std::make_unique<relation::DenseVectorView>(name, v));
  entries_[name] = {owned_.back().get(), {0}, /*sparse=*/false};
}

void Bindings::bind_dense_vector(const std::string& name, ConstVectorView v) {
  owned_.push_back(std::make_unique<relation::DenseVectorView>(name, v));
  entries_[name] = {owned_.back().get(), {0}, /*sparse=*/false};
}

void Bindings::bind_sparse_vector(const std::string& name,
                                  const formats::SparseVector& v) {
  owned_.push_back(std::make_unique<relation::SparseVectorView>(name, v));
  entries_[name] = {owned_.back().get(), {0}, /*sparse=*/true};
}

void Bindings::bind_view(const std::string& name, relation::RelationView* view,
                         std::vector<index_t> level_to_ref, bool sparse) {
  BERNOULLI_CHECK(view != nullptr);
  entries_[name] = {view, std::move(level_to_ref), sparse};
}

const Bindings::Entry& Bindings::lookup(const std::string& name) const {
  auto it = entries_.find(name);
  BERNOULLI_CHECK_MSG(it != entries_.end(), "array " << name << " is unbound");
  return it->second;
}

namespace {

// Adds one array reference to the query; returns its relation slot.
index_t add_relation(Query& q, const Bindings& bindings, const ArrayRef& ref,
                     bool writes, bool filters) {
  const auto& entry = bindings.lookup(ref.array);
  BERNOULLI_CHECK_MSG(
      entry.level_to_ref.size() == ref.vars.size(),
      ref.array << " referenced with " << ref.vars.size()
                << " subscripts but bound with "
                << entry.level_to_ref.size());
  BoundRelation rel;
  rel.view = entry.view;
  rel.vars.resize(ref.vars.size());
  for (std::size_t d = 0; d < ref.vars.size(); ++d)
    rel.vars[d] = ref.vars[static_cast<std::size_t>(entry.level_to_ref[d])];
  rel.filters = filters;
  rel.writes = writes;
  q.relations.push_back(std::move(rel));
  return static_cast<index_t>(q.relations.size()) - 1;
}

}  // namespace

CompiledKernel compile(const LoopNest& nest, const Bindings& bindings,
                       const PlannerOptions& opts) {
  BERNOULLI_CHECK_MSG(!nest.loops.empty(), "loop nest has no loops");
  BERNOULLI_CHECK_MSG(!nest.body.factors.empty(),
                      "statement has no factors");

  auto st = std::make_shared<CompiledKernel::State>();
  Query& q = st->query;
  for (const auto& loop : nest.loops) q.vars.push_back(loop.var);

  // The iteration-space relation I(i, j, ...) carries the loop bounds and
  // is order-free (its levels are an unconstrained cross product).
  {
    std::vector<index_t> extents;
    for (const auto& loop : nest.loops) extents.push_back(loop.extent);
    st->interval =
        std::make_unique<relation::IntervalView>("I", std::move(extents));
    BoundRelation rel;
    rel.view = st->interval.get();
    rel.vars = q.vars;
    rel.filters = true;  // loop bounds always constrain
    rel.order_free = true;
    q.relations.push_back(std::move(rel));
  }

  // Sparsity predicate (paper Eq. 3, computed with Bik & Wijshoff's rule):
  // a sparse array in a multiplicative position annihilates the update, so
  // it filters; the accumulation target never filters.
  st->stmt.target_rel = add_relation(q, bindings, nest.body.target,
                                     /*writes=*/true, /*filters=*/false);
  st->stmt.scale = nest.body.scale;
  for (const auto& f : nest.body.factors) {
    bool sparse = bindings.lookup(f.array).sparse;
    st->stmt.factor_rels.push_back(
        add_relation(q, bindings, f, /*writes=*/false, /*filters=*/sparse));
  }

  st->plan = plan_query(q, opts);
  CompiledKernel kernel;
  kernel.state_ = std::move(st);
  return kernel;
}

const LinkedProgram& CompiledKernel::program() const {
  BERNOULLI_CHECK(state_ != nullptr);  // a default-constructed kernel
  const State& st = *state_;
  std::call_once(st.link_once, [&st] {
    st.program = std::make_unique<const LinkedProgram>(
        link_plan(st.plan, st.query),
        link_mac(st.query, st.stmt.target_rel, st.stmt.factor_rels,
                 st.stmt.scale));
  });
  return *st.program;
}

void CompiledKernel::run() const {
  const LinkedProgram& p = program();
  p.runners.lease()->run(p.mac);
}

std::string CompiledKernel::emit(const std::string& function_name) const {
  return emit_c(plan(), query(), state_->stmt, function_name);
}

std::string CompiledKernel::describe_plan() const {
  return plan().describe(query());
}

std::string CompiledKernel::explain() const {
  return compiler::explain(plan(), query());
}

std::string CompiledKernel::explain_json(int indent) const {
  return compiler::explain_json(plan(), query(), indent);
}

}  // namespace bernoulli::compiler
