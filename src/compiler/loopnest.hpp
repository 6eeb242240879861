// The compiler front end (paper §2): the user writes the DENSE loop nest —
//
//   DO i = 1, N
//     DO j = 1, N
//       Y(i) = Y(i) + A(i,j) * X(j)
//
// declares which arrays are sparse and how each is stored, and the
// compiler produces the sparse program: it extracts the relational query,
// computes the sparsity predicate (Bik & Wijshoff's rule: sparse arrays in
// multiplicative positions filter the iteration), plans the joins, and
// yields a runnable/emittable kernel.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "compiler/executor.hpp"
#include "compiler/link.hpp"
#include "compiler/planner.hpp"
#include "formats/bsr.hpp"
#include "formats/ccs.hpp"
#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/ell.hpp"
#include "formats/sell.hpp"
#include "formats/sparse_vector.hpp"

namespace bernoulli::compiler {

/// An array reference in the loop body, e.g. A(i, j). For matrices the
/// convention is (row var, column var) regardless of storage; the binding
/// knows how storage hierarchy maps onto these positions.
struct ArrayRef {
  std::string array;
  std::vector<std::string> vars;
};

/// The single-statement DOANY body: target += scale * PRODUCT(factors).
/// This sum-of-products form covers the paper's kernels (matrix-vector and
/// matrix-matrix products, scalings, accumulations).
struct Statement {
  ArrayRef target;
  std::vector<ArrayRef> factors;
  value_t scale = 1.0;
};

struct Loop {
  std::string var;
  index_t extent = 0;  // iteration range [0, extent)
};

struct LoopNest {
  std::vector<Loop> loops;
  Statement body;
};

/// Maps array names to relation views plus the metadata the extractor
/// needs: whether the array is sparse (participates in the sparsity
/// predicate) and how hierarchy levels map to reference positions.
/// The Bindings object OWNS the views it creates and must outlive any
/// kernel compiled against it.
class Bindings {
 public:
  Bindings() = default;
  Bindings(Bindings&&) = default;
  Bindings& operator=(Bindings&&) = default;

  void bind_csr(const std::string& name, const formats::Csr& m);
  void bind_ccs(const std::string& name, const formats::Ccs& m);
  void bind_coo(const std::string& name, const formats::Coo& m);
  void bind_ell(const std::string& name, const formats::Ell& m);
  void bind_bsr(const std::string& name, const formats::Bsr& m);
  void bind_sell(const std::string& name, const formats::Sell& m);
  void bind_dense_matrix(const std::string& name, formats::Dense& m);
  void bind_dense_vector(const std::string& name, VectorView v);
  void bind_dense_vector(const std::string& name, ConstVectorView v);
  void bind_sparse_vector(const std::string& name,
                          const formats::SparseVector& v);

  /// Escape hatch for user-defined formats: `level_to_ref[d]` gives the
  /// reference position bound by hierarchy level d. The view is not owned.
  void bind_view(const std::string& name, relation::RelationView* view,
                 std::vector<index_t> level_to_ref, bool sparse);

  struct Entry {
    relation::RelationView* view = nullptr;
    std::vector<index_t> level_to_ref;
    bool sparse = false;
  };
  const Entry& lookup(const std::string& name) const;

 private:
  std::map<std::string, Entry> entries_;
  std::vector<std::unique_ptr<relation::RelationView>> owned_;
};

/// A compiled kernel's linked program: the LinkedPlan with its pool of
/// runners, and the lowered multiply-accumulate statement.
struct LinkedProgram {
  LinkedProgram(LinkedPlan lp, LinkedMac m)
      : runners(std::move(lp)), mac(std::move(m)) {}
  RunnerPool runners;
  LinkedMac mac;
};

/// A compiled kernel: query + plan + statement, ready to run or to render
/// as C. References views owned by the Bindings it was compiled from.
///
/// A cheap value over shared immutable state: copies share the compiled
/// query/plan, the linked program and its runner pool; moves move one
/// pointer. Nothing a copy, move or assignment does can disturb a run in
/// flight on another copy, because runs borrow only the shared state. As
/// for any value type, one kernel OBJECT must not be assigned or moved
/// from while another thread uses it.
class CompiledKernel {
 public:
  /// An empty kernel; only assignment from compile() makes it usable.
  CompiledKernel() = default;

  /// Executes the kernel through the linked cursor engine. The plan is
  /// linked once, on the first run of any copy, and every run leases a
  /// runner (scratch) from the shared pool, so solver loops that call
  /// run() per iteration pay name resolution and allocation once.
  ///
  /// Thread-safe: concurrent runs of one kernel (or its copies) lease
  /// distinct runners. Concurrent writes to the TARGET storage are still
  /// the caller's problem, exactly as for two serial runs.
  void run() const;

  /// The linked program, linked on first use (thread-safe) and shared by
  /// every copy of this kernel.
  const LinkedProgram& program() const;

  /// The C translation unit the compiler generates for this kernel: the
  /// emit_linked_c text of the linked program, byte for byte what the
  /// specialized rung compiles and runs, with `function_name` as its
  /// exported symbol. Plans that emission does not cover (merge joins,
  /// virtual probes, sparse fill-in) yield a short C comment naming the
  /// function and the reason; the linked engine runs them and explain()
  /// shows their plan.
  std::string emit(const std::string& function_name = "computed_kernel") const;

  /// Join-order / join-method summary.
  std::string describe_plan() const;

  /// Full EXPLAIN of the chosen plan: join order, join algorithm per
  /// level, access-method properties and cost estimates (see
  /// compiler/explain.hpp). Text tree and JSON forms.
  std::string explain() const;
  std::string explain_json(int indent = 0) const;

  const Plan& plan() const { return state_->plan; }
  const relation::Query& query() const { return state_->query; }

 private:
  friend CompiledKernel compile(const LoopNest&, const Bindings&,
                                const PlannerOptions&);
  struct State {
    relation::Query query;
    Plan plan;
    // The statement as link_mac consumes it: Query::relations indices of
    // the target and the multiplied factors, and the scale.
    index_t target_rel = 0;
    std::vector<index_t> factor_rels;
    value_t scale = 1.0;
    // The iteration-space relation is synthesized by compile() and owned
    // by the kernel (other views belong to the Bindings).
    std::unique_ptr<relation::RelationView> interval;
    // Linked lazily by the first program() call; borrows plan/query above,
    // which never move because State lives behind a shared_ptr.
    mutable std::once_flag link_once;
    mutable std::unique_ptr<const LinkedProgram> program;
  };
  std::shared_ptr<const State> state_;
};

/// The compiler pipeline: extract query -> sparsity predicate -> plan.
CompiledKernel compile(const LoopNest& nest, const Bindings& bindings,
                       const PlannerOptions& opts = {});

}  // namespace bernoulli::compiler
