#include "compiler/emit_standalone.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"
#include "support/histogram.hpp"
#include "support/profile.hpp"

namespace bernoulli::compiler {

std::string emit_standalone_c(const std::string& kernel_code,
                              const std::string& kernel_name,
                              const std::vector<CIntArray>& int_arrays,
                              const std::vector<CDoubleArray>& double_arrays,
                              const std::string& print_array,
                              std::size_t print_count) {
  BERNOULLI_CHECK(!kernel_name.empty() && !print_array.empty());
  std::ostringstream os;
  os << "/* standalone program assembled around Bernoulli-generated code */\n"
     << "#include <stdio.h>\n\n"
     << "/* sorted-segment search used by compressed access methods */\n"
     << "static int binsearch(const int* ind, int lo, int hi, int key) {\n"
     << "  const int end = hi;\n"
     << "  while (lo < hi) {\n"
     << "    int mid = lo + (hi - lo) / 2;\n"
     << "    if (ind[mid] < key) lo = mid + 1; else hi = mid;\n"
     << "  }\n"
     << "  /* lo == first position >= key within the original segment */\n"
     << "  return (lo < end && ind[lo] == key) ? lo : -1;\n"
     << "}\n\n";

  for (const auto& a : int_arrays) {
    BERNOULLI_CHECK_MSG(!a.data.empty(), a.name << " is empty");
    os << "static const int " << a.name << "[" << a.data.size() << "] = {";
    for (std::size_t k = 0; k < a.data.size(); ++k)
      os << (k ? "," : "") << a.data[k];
    os << "};\n";
  }
  for (const auto& a : double_arrays) {
    BERNOULLI_CHECK_MSG(!a.data.empty(), a.name << " is empty");
    os << "static double " << a.name << "[" << a.data.size() << "] = {";
    os.precision(17);
    for (std::size_t k = 0; k < a.data.size(); ++k)
      os << (k ? "," : "") << a.data[k];
    os << "};\n";
  }

  os << '\n' << kernel_code << '\n';

  os << "int main(void) {\n"
     << "  " << kernel_name << "();\n"
     << "  for (int i = 0; i < " << print_count << "; ++i)\n"
     << "    printf(\"%.17g\\n\", " << print_array << "[i]);\n"
     << "  return 0;\n"
     << "}\n";
  return os.str();
}

namespace {

// Runtime arrays the generated code references, deduplicated by pointer
// and named after their slot in the corresponding argument vector.
struct ArgPool {
  std::vector<const index_t*> ints;
  std::vector<const value_t*> consts;
  std::vector<value_t*> outs;

  std::string int_name(const index_t* p) {
    for (std::size_t i = 0; i < ints.size(); ++i)
      if (ints[i] == p) return "I" + std::to_string(i);
    ints.push_back(p);
    return "I" + std::to_string(ints.size() - 1);
  }
  std::string const_name(const value_t* p) {
    for (std::size_t i = 0; i < consts.size(); ++i)
      if (consts[i] == p) return "D" + std::to_string(i);
    consts.push_back(p);
    return "D" + std::to_string(consts.size() - 1);
  }
  std::string out_name(value_t* p) {
    for (std::size_t i = 0; i < outs.size(); ++i)
      if (outs[i] == p) return "W" + std::to_string(i);
    outs.push_back(p);
    return "W" + std::to_string(outs.size() - 1);
  }
};

// Emission-time index range of everything a level can enumerate, for
// always-hit probe proofs. mx < mn means the level enumerates nothing
// (vacuously in any range).
struct IndexRange {
  index_t mn = 0;
  index_t mx = -1;
};

IndexRange scan_range(const index_t* a, index_t n) {
  IndexRange r;
  if (a == nullptr || n <= 0) return r;
  r.mn = r.mx = a[0];
  for (index_t k = 1; k < n; ++k) {
    r.mn = std::min(r.mn, a[k]);
    r.mx = std::max(r.mx, a[k]);
  }
  return r;
}

IndexRange enum_index_range(const relation::EnumSpec& es) {
  using Kind = relation::EnumSpec::Kind;
  switch (es.kind) {
    case Kind::kDense: {
      IndexRange r;
      if (es.extent > 0) {
        r.mn = 0;
        r.mx = es.extent - 1;
      }
      return r;
    }
    case Kind::kSegmented:
    case Kind::kList:
    case Kind::kStrided:
    case Kind::kOffsets:
      return scan_range(es.ind, es.ind_len);
    case Kind::kBlocked: {
      // ind holds block columns; each expands to block_c lanes.
      IndexRange r = scan_range(es.ind, es.ind_len);
      if (r.mx >= r.mn) {
        r.mn = r.mn * es.block_c;
        r.mx = r.mx * es.block_c + es.block_c - 1;
      }
      return r;
    }
    case Kind::kSliced:
      // Whole lane-major array including padding (padding holds column 0,
      // which only widens the range toward 0 — safe for the proofs).
      return scan_range(es.ind, es.ind_len);
    case Kind::kFunction:
      return scan_range(es.map, es.map_len);
    case Kind::kNone:
      break;
  }
  return {};
}

// parent*stride + k, with the degenerate forms collapsed.
std::string affine_expr(const std::string& parent, index_t stride,
                        const std::string& k) {
  if (stride == 0 || parent == "0") return k;
  return parent + " * " + std::to_string(stride) + " + " + k;
}

std::string pvar(int slot) { return "p" + std::to_string(slot); }
std::string vvar(int slot) { return "v" + std::to_string(slot); }

std::string parent_expr(int parent_slot) {
  return parent_slot < 0 ? "0" : pvar(parent_slot);
}

}  // namespace

LinkedEmission emit_linked_c(const LinkedPlan& lp, const LinkedMac& mac,
                             const std::string& symbol) {
  BERNOULLI_CHECK(!symbol.empty());
  LinkedEmission out;
  out.symbol = symbol;
  out.num_levels = lp.levels.size();
  auto refuse = [&](const std::string& note) {
    out.ok = false;
    out.note = note;
    return out;
  };
  auto rel_name = [&](index_t rel) -> std::string {
    return lp.query->relations[static_cast<std::size_t>(rel)].view->name();
  };

  if (lp.levels.empty()) return refuse("plan has no levels");
  if (mac.target_data.empty())
    return refuse(mac.target->name() + " exposes no flat value array");
  for (const LinkedMac::Factor& f : mac.factors)
    if (f.data.empty())
      return refuse(f.view->name() + " exposes no flat value array");

  std::vector<relation::EnumSpec> specs;
  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    if (lv.method != JoinMethod::kEnumerate)
      return refuse("level " + std::to_string(d) +
                    " is a merge join; specialization covers enumerate-only "
                    "plans");
    const relation::EnumSpec es = lv.drivers[0].level->enum_spec();
    if (es.kind == relation::EnumSpec::Kind::kNone)
      return refuse(rel_name(lv.drivers[0].rel) +
                    " has no flat enumeration shape at level " +
                    std::to_string(d));
    for (const LinkedProbe& pr : lv.probes) {
      if (pr.insert_on_miss)
        return refuse(rel_name(pr.access.rel) +
                      " inserts on miss (sparse fill-in)");
      if (pr.search.kind == relation::SearchSpec::Kind::kVirtual)
        return refuse(rel_name(pr.access.rel) +
                      " probes through a virtual search");
    }
    specs.push_back(es);
  }

  // Drain-kind attribution per level for the host's profile commit: the
  // leaf loop is the moral equivalent of a linked-engine bulk drain
  // (blocked/sliced for those storages), everything above is per-tuple.
  for (std::size_t d = 0; d < specs.size(); ++d) {
    int kind = support::kProfTuple;
    if (d + 1 == specs.size()) {
      using EKind = relation::EnumSpec::Kind;
      kind = specs[d].kind == EKind::kBlocked  ? support::kProfBlocked
             : specs[d].kind == EKind::kSliced ? support::kProfSliced
                                               : support::kProfBulk;
    }
    out.level_kinds.push_back(kind);
  }

  ArgPool pool;
  std::ostringstream body;
  bool need_binsearch = false;
  int indent = 1;
  auto line = [&](const std::string& s) {
    for (int i = 0; i < indent; ++i) body << "  ";
    body << s << '\n';
  };

  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    const relation::EnumSpec& es = specs[d];
    const std::string D = std::to_string(d);
    const std::string en = "en" + D;
    const std::string prn = "prn" + D;
    const std::string P = parent_expr(lv.drivers[0].parent_slot);
    const std::string p = pvar(lv.drivers[0].pos_slot);
    const std::string v = vvar(lv.var_slot);
    const std::string k = "k" + D;

    line("{  /* level " + D + ": enumerate " +
         rel_name(lv.drivers[0].rel) + " */");
    ++indent;
    line("long long " + en + " = 0, " + prn + " = 0;");
    // Per-level time attribution (the lvl_ns ABI slots, docs/CODEGEN.md):
    // level 0 brackets the whole kernel exactly; deeper levels bracket
    // whole invocations, sampled on the outer enumeration counter so the
    // probes' `continue` paths cannot skip a close.
    if (d == 0) {
      line("const int pon0 = prof;");
    } else {
      line("const int pon" + D + " = prof && en0 % " +
           std::to_string(support::kProfileSampleEvery) + " == 1;");
    }
    line("const long long pns" + D + " = pon" + D + " ? now_ns() : 0;");
    using EKind = relation::EnumSpec::Kind;
    switch (es.kind) {
      case EKind::kDense:
        line("for (int " + k + " = 0; " + k + " < " +
             std::to_string(es.extent) + "; ++" + k + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + v + " = " + k + ";");
        line("const int " + p + " = " + affine_expr(P, es.stride, k) + ";");
        break;
      case EKind::kSegmented: {
        const std::string ptr = pool.int_name(es.ptr);
        const std::string ind_a = pool.int_name(es.ind);
        line("for (int " + p + " = " + ptr + "[" + P + "]; " + p + " < " +
             ptr + "[" + P + " + 1]; ++" + p + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case EKind::kList: {
        const std::string ind_a = pool.int_name(es.ind);
        line("for (int " + p + " = 0; " + p + " < " +
             std::to_string(es.extent) + "; ++" + p + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case EKind::kFunction: {
        const std::string map = pool.int_name(es.map);
        // A single child; the loop form keeps `continue` meaningful for
        // filtering probes.
        line("for (int " + k + " = 0; " + k + " < 1; ++" + k + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + v + " = " + map + "[" + P + "];");
        line("const int " + p + " = " + P + ";");
        break;
      }
      case EKind::kStrided: {
        const std::string ind_a = pool.int_name(es.ind);
        const std::string len = pool.int_name(es.len);
        line("for (int " + k + " = 0; " + k + " < " + len + "[" + P +
             "]; ++" + k + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + p + " = " + P + " + " + k + " * " +
             std::to_string(es.stride) + ";");
        line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case EKind::kOffsets: {
        const std::string ind_a = pool.int_name(es.ind);
        const std::string off = pool.int_name(es.off);
        const std::string len = pool.int_name(es.len);
        line("for (int " + k + " = 0; " + k + " < " + len + "[" + P +
             "]; ++" + k + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + p + " = " + off + "[" + k + "] + " + P + ";");
        line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case EKind::kBlocked: {
        // One block row per parent row: the block loop walks the stored
        // blocks, the lane loop has a literal trip count (block_c), which
        // cc -O2 fully unrolls. The lane body is the loop's compound
        // statement, so the level's single closing brace closes both.
        const std::string ptr = pool.int_name(es.ptr);
        const std::string ind_a = pool.int_name(es.ind);
        const std::string rs = std::to_string(es.block_r);
        const std::string cs = std::to_string(es.block_c);
        const std::string rc = std::to_string(es.block_r * es.block_c);
        const std::string b = "b" + D;
        const std::string cc = "cc" + D;
        line("const int br" + D + " = " + P + " / " + rs + ";");
        line("const int ro" + D + " = (" + P + " % " + rs + ") * " + cs +
             ";");
        line("for (int " + b + " = " + ptr + "[br" + D + "]; " + b + " < " +
             ptr + "[br" + D + " + 1]; ++" + b + ")");
        line("for (int " + cc + " = 0; " + cc + " < " + cs + "; ++" + cc +
             ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + v + " = " + ind_a + "[" + b + "] * " + cs +
             " + " + cc + ";");
        line("const int " + p + " = " + b + " * " + rc + " + ro" + D +
             " + " + cc + ";");
        break;
      }
      case EKind::kSliced: {
        // len[]-bounded lane walk: padding slots past a row's length are
        // never touched, so the emitted kernel books the same counters as
        // the engines.
        const std::string ind_a = pool.int_name(es.ind);
        const std::string off = pool.int_name(es.off);
        const std::string len = pool.int_name(es.len);
        line("const int sb" + D + " = " + off + "[" + P + "];");
        line("for (int " + k + " = 0; " + k + " < " + len + "[" + P +
             "]; ++" + k + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + p + " = sb" + D + " + " + k + " * " +
             std::to_string(es.stride) + ";");
        line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case EKind::kNone:
        break;  // rejected above
    }

    const IndexRange er = enum_index_range(es);
    for (const LinkedProbe& pr : lv.probes) {
      const std::string pv = vvar(pr.var_slot);
      const std::string pp = parent_expr(pr.access.parent_slot);
      const std::string ps = pvar(pr.access.pos_slot);
      const std::string miss =
          pr.filters ? "{ ++misses; continue; }" : "return 1;";
      // Always-hit proof: the probe checks 0 <= idx < extent and the idx
      // it sees is this level's variable, whose full enumerated range was
      // scanned at emission time.
      const bool own_var = pr.var_slot == lv.var_slot;
      const bool proved = own_var && er.mn >= 0 &&
                          (er.mx < er.mn || er.mx < pr.search.extent);
      using SKind = relation::SearchSpec::Kind;
      switch (pr.search.kind) {
        case SKind::kIdentity:
          if (proved) {
            line("const int " + ps + " = " + pv +
                 ";  /* proved in [0, " +
                 std::to_string(pr.search.extent) + ") */");
          } else {
            line("if (" + pv + " < 0 || " + pv + " >= " +
                 std::to_string(pr.search.extent) + ") " + miss);
            line("const int " + ps + " = " + pv + ";");
          }
          break;
        case SKind::kAffine: {
          const std::string pos =
              affine_expr(pp, pr.search.stride, pv);
          if (proved) {
            line("const int " + ps + " = " + pos +
                 ";  /* proved in [0, " +
                 std::to_string(pr.search.extent) + ") */");
          } else {
            line("if (" + pv + " < 0 || " + pv + " >= " +
                 std::to_string(pr.search.extent) + ") " + miss);
            line("const int " + ps + " = " + pos + ";");
          }
          break;
        }
        case SKind::kSegmentBinary: {
          need_binsearch = true;
          const std::string ptr = pool.int_name(pr.search.ptr);
          const std::string ind_a = pool.int_name(pr.search.ind);
          line("const int " + ps + " = binsearch(" + ind_a + ", " + ptr +
               "[" + pp + "], " + ptr + "[" + pp + " + 1], " + pv + ");");
          line("if (" + ps + " < 0) " + miss);
          break;
        }
        case SKind::kListBinary: {
          need_binsearch = true;
          const std::string ind_a = pool.int_name(pr.search.ind);
          line("const int " + ps + " = binsearch(" + ind_a + ", 0, " +
               std::to_string(pr.search.extent) + ", " + pv + ");");
          line("if (" + ps + " < 0) " + miss);
          break;
        }
        case SKind::kFunction: {
          const std::string map = pool.int_name(pr.search.map);
          line("if (" + map + "[" + pp + "] != " + pv + ") " + miss);
          line("const int " + ps + " = " + pp + ";");
          break;
        }
        case SKind::kVirtual:
          break;  // rejected above
      }
      line("++hits;");
    }
    line("++" + prn + ";");
  }

  // Leaf body: the multiply-accumulate in the engines' exact operation
  // order (scale first, factors left to right, one store).
  line("++tuples;");
  {
    std::ostringstream sc;
    sc.precision(17);
    sc << mac.scale;
    line("double prod = " + sc.str() + ";");
  }
  for (const LinkedMac::Factor& f : mac.factors) {
    const std::string da = pool.const_name(f.data.data());
    line("prod *= " + da + "[" +
         pvar(lp.leaf_slot[static_cast<std::size_t>(f.slot)]) + "];");
  }
  {
    const std::string wa = pool.out_name(mac.target_data.data());
    line(wa + "[" +
         pvar(lp.leaf_slot[static_cast<std::size_t>(mac.target_slot)]) +
         "] += prod;");
  }

  // Close the loops innermost-out, booking each level's invocation totals
  // and its one fan-out sample — the linked engine's close_frame.
  for (std::size_t d = lp.levels.size(); d-- > 0;) {
    const std::string D = std::to_string(d);
    --indent;
    line("}");
    line("if (pon" + D + ") { lvl_ns[" + std::to_string(3 * d) +
         "] += now_ns() - pns" + D + "; ++lvl_ns[" +
         std::to_string(3 * d + 1) + "]; lvl_ns[" +
         std::to_string(3 * d + 2) + "] += prn" + D + "; }");
    line("lvl_enum[" + D + "] += en" + D + ";");
    line("lvl_prod[" + D + "] += prn" + D + ";");
    line("++fanout[" + D + " * " +
         std::to_string(support::Log2Histogram::kBuckets) +
         " + bucket_of(prn" + D + ")];");
    --indent;
    line("}");
  }
  line("ctr[0] += tuples;");
  line("ctr[1] += hits;");
  line("ctr[2] += misses;");
  line("return 0;");

  std::ostringstream os;
  os << "/* kernel specialized at runtime from a linked plan; arrays are\n"
     << " * passed by the host, counters replicate the linked engine's\n"
     << " * bookkeeping (see compiler/specialize.hpp) */\n"
     << "#include <time.h>\n\n"
     << "static long long now_ns(void) {\n"
     << "  struct timespec ts;\n"
     << "  clock_gettime(CLOCK_MONOTONIC, &ts);\n"
     << "  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;\n"
     << "}\n\n"
     << "static int bucket_of(long long v) {\n"
     << "  if (v <= 0) return 0;\n"
     << "  const int k = 64 - __builtin_clzll((unsigned long long)v);\n"
     << "  return k < " << (support::Log2Histogram::kBuckets - 1) << " ? k : "
     << (support::Log2Histogram::kBuckets - 1) << ";\n"
     << "}\n\n";
  if (need_binsearch) {
    os << "static int binsearch(const int* ind, int lo, int hi, int key) {\n"
       << "  const int end = hi;\n"
       << "  while (lo < hi) {\n"
       << "    int mid = lo + (hi - lo) / 2;\n"
       << "    if (ind[mid] < key) lo = mid + 1; else hi = mid;\n"
       << "  }\n"
       << "  return (lo < end && ind[lo] == key) ? lo : -1;\n"
       << "}\n\n";
  }
  os << "int " << symbol
     << "(const int** ia, const double** da, double** wa,\n"
     << "    long long* ctr, long long* lvl_enum, long long* lvl_prod,\n"
     << "    long long* fanout, long long* lvl_ns, int prof) {\n"
     << "  (void)ia; (void)da; (void)wa; (void)lvl_ns; (void)prof;\n";
  for (std::size_t i = 0; i < pool.ints.size(); ++i)
    os << "  const int* const I" << i << " = ia[" << i << "];\n";
  for (std::size_t i = 0; i < pool.consts.size(); ++i)
    os << "  const double* const D" << i << " = da[" << i << "];\n";
  for (std::size_t i = 0; i < pool.outs.size(); ++i)
    os << "  double* const W" << i << " = wa[" << i << "];\n";
  os << "  long long tuples = 0, hits = 0, misses = 0;\n"
     << body.str() << "}\n";

  out.ok = true;
  out.source = os.str();
  out.int_args = pool.ints;
  out.const_args = pool.consts;
  out.out_args = pool.outs;
  return out;
}

}  // namespace bernoulli::compiler
