// C emission — the compiler's one code generator. A linked plan and its
// multiply-accumulate statement are rendered as one compilable C
// translation unit, derived from the per-level LevelDescriptor/EnumSpec
// and the lowered SearchSpecs (the same records the linked engine runs
// on). The specialized rung (compiler/specialize.hpp) compiles and loads
// exactly this text, and CompiledKernel::emit() prints it, so the C a
// user reads is the C that runs.
#pragma once

#include <string>
#include <vector>

#include "compiler/link.hpp"
#include "support/types.hpp"

namespace bernoulli::compiler {

/// A (LinkedPlan, LinkedMac) pair rendered as one compilable C translation
/// unit — the input to the runtime-specialization backend
/// (compiler/specialize.hpp). The arrays are not baked in: the generated
/// function takes them as runtime pointer arguments (int_args/const_args/
/// out_args give the argument order), so one emitted kernel reruns against
/// live data with no re-emission. Each argument's local declaration
/// carries a comment naming its relation and role (`/* A: level 1 ptr */`).
///
/// The exported symbol has C signature
///
///   int SYMBOL(const int** ia, const double** da, double** wa,
///              long long* ctr, long long* lvl_enum, long long* lvl_prod,
///              long long* fanout, long long* lvl_ns, int prof);
///
/// and returns 0 on success or 1 when a non-filtering probe misses (the
/// condition the engines treat as a checked runtime error). ctr receives
/// {tuples, probe_hits, probe_misses}; lvl_enum/lvl_prod receive per-level
/// enumerated/produced totals; fanout receives num_levels * 40 log2
/// buckets, one histogram sample per level invocation — exactly the
/// observability the linked engine books, so the host can flush identical
/// executor.* deltas.
///
/// lvl_ns is the per-level time-attribution block (docs/CODEGEN.md): 3
/// slots per level {raw_ns, samples, work}, written only when `prof` is
/// nonzero. Level 0 books one exact whole-kernel bracket; deeper levels
/// book whole invocations sampled every kProfileSampleEvery-th outer
/// binding. The host (compiler/specialize.cpp) compensates, extrapolates
/// and commits the same `bernoulli.profile.v1` shape the other engines
/// flush, using `level_kinds` for the drain-kind attribution.
struct LinkedEmission {
  bool ok = false;
  std::string note;    // why emission was refused (ok == false)
  std::string source;  // the full C translation unit
  std::string symbol;
  std::vector<const index_t*> int_args;   // ia[] in argument order
  std::vector<const value_t*> const_args;  // da[]
  std::vector<value_t*> out_args;          // wa[]
  std::size_t num_levels = 0;
  std::vector<int> level_kinds;  // support::kProf* drain kind per level
};

/// Why the plan's loop nest has no C rendering — a merge level, a driver
/// without a flat EnumSpec, a probe that inserts on miss (sparse fill-in)
/// or goes through a virtual search — or "" when every level is covered.
/// The EXPLAIN `specialize:` footer (plan_specialize_legality) reports
/// this same text before any statement is bound.
std::string emit_refusal(const LinkedPlan& lp);

/// Emits C for the pair, or refuses with a note: emit_refusal's, or an
/// operand without a flat value array. The emission borrows the plan's arrays; it
/// is valid only while the views behind `lp` stay alive and unmoved.
LinkedEmission emit_linked_c(const LinkedPlan& lp, const LinkedMac& mac,
                             const std::string& symbol);

}  // namespace bernoulli::compiler
