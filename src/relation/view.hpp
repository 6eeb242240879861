// Relations as hierarchical views of array storage (paper §2.1).
//
// A sparse format is described to the compiler by its *access methods*:
// each level of the index hierarchy (e.g. CCS is J -> (I, V)) provides an
// enumeration method and a search method, plus properties (sortedness,
// search cost, denseness) that the planner uses to choose join orders and
// join implementations. The compiler never sees COLP/ROWIND/VALS — only
// these methods — which is what makes the format set extensible.
//
// Runtime protocol: a *position* is an opaque index_t cursor into a level
// (e.g. an offset into VALS). Level d enumerates/searches children of a
// parent position from level d-1 (the root parent position is 0). The
// position at the deepest level addresses the value.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "relation/cursor.hpp"
#include "support/types.hpp"

namespace bernoulli::relation {

/// Cost class of a level's search method, coarsened the way a query
/// optimizer consumes it.
enum class SearchCost {
  kConstant,  // O(1): dense offsets, hash indexes
  kLog,       // O(log n): binary search in a sorted segment
  kLinear,    // O(n): scan
};

struct LevelProperties {
  bool sorted = false;  // enumeration yields ascending indices
  bool dense = false;   // enumeration covers every index of a contiguous range
  SearchCost search_cost = SearchCost::kLinear;
};

/// Visit callback for enumeration: (index value, child position); return
/// false to stop early.
using EnumFn = std::function<bool(index_t index, index_t pos)>;

class IndexLevel {
 public:
  virtual ~IndexLevel() = default;

  virtual LevelProperties properties() const = 0;

  /// Enumerates the (index, position) pairs under `parent`.
  virtual void enumerate(index_t parent, const EnumFn& fn) const = 0;

  /// Position of child with the given index under `parent`, or -1.
  virtual index_t search(index_t parent, index_t index) const = 0;

  /// For insertable levels (sparse accumulators): creates the child and
  /// returns its position. Executors call this when a WRITTEN relation's
  /// probe misses — the fill-in case of sparse outputs. Default: levels
  /// are not insertable.
  virtual bool insertable() const { return false; }
  virtual index_t insert(index_t parent, index_t index);

  /// Estimated number of children of one parent (planner cardinality).
  virtual double expected_size() const = 0;

  // --- Linked-executor hooks (relation/cursor.hpp) -------------------
  // A level declares its storage shape ONCE via describe(); the cursor,
  // search and enumeration lowerings all derive from that descriptor in
  // relation/descriptor.cpp, so a new format is one describe() — not a
  // cursor backend, a search lowering and an emitter case by hand. The C
  // emitter (compiler/emit.hpp) renders levels from the same descriptor.
  // kOpaque (the default) keeps the fully-virtual fallbacks: cursors
  // materialize enumerate() into a buffer, probes go through search().

  /// Flat storage descriptor, valid for every parent. Default: kOpaque
  /// (no flat shape — stateful or growable storage).
  virtual LevelDescriptor describe() const { return {}; }

  /// Fills `c` with a cursor over the children of `parent`, derived from
  /// describe(). For kOpaque levels the adapter materializes enumerate()
  /// into `scratch` (cleared first) and returns a kBuffered cursor over
  /// it; `scratch` must outlive the cursor's use and is untouched on the
  /// descriptor path.
  void begin_cursor(index_t parent, Cursor& c, CursorBuffer& scratch) const;

  /// Flat search descriptor derived from describe(). kVirtual (probe
  /// through IndexLevel::search) for kOpaque and drive-only shapes.
  SearchSpec search_spec() const { return descriptor_search(describe()); }

  /// Flat enumeration descriptor derived from describe() — what the
  /// specializing code generator compiles into a C loop. kNone for
  /// kOpaque levels (specialization falls back to the linked engine).
  EnumSpec enum_spec() const { return descriptor_enum(describe()); }
};

/// A relation R(v1, ..., vk [, value]) viewed through its access-method
/// hierarchy. Levels are numbered outermost-first; level d binds index
/// field d of the hierarchy.
class RelationView {
 public:
  virtual ~RelationView() = default;

  virtual std::string name() const = 0;

  /// Number of index fields (hierarchy depth).
  virtual index_t arity() const = 0;

  virtual const IndexLevel& level(index_t depth) const = 0;

  /// Whether the relation carries a value field (sparse matrices and
  /// vectors do; the iteration-space relation I(i,j) does not).
  virtual bool has_value() const { return false; }

  /// Value addressed by the deepest-level position.
  virtual value_t value_at(index_t leaf_pos) const;

  /// Mutable value access for output relations; default: not writable.
  virtual bool writable() const { return false; }
  virtual void value_add(index_t leaf_pos, value_t delta);
  virtual void value_set(index_t leaf_pos, value_t v);

  /// Raw value storage addressed by leaf positions, when the format keeps
  /// values in one flat array whose address is stable across a run (the
  /// linked executor's fast path — one load instead of a virtual call per
  /// tuple). Empty span: no stable flat array; use value_at/value_add.
  /// Views whose storage can grow mid-run (sparse accumulators) must NOT
  /// expose a raw array.
  virtual std::span<const value_t> value_array() const { return {}; }
  virtual std::span<value_t> value_array_mut() { return {}; }
};

}  // namespace bernoulli::relation
