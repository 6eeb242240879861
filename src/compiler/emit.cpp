#include "compiler/emit.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/histogram.hpp"
#include "support/profile.hpp"

namespace bernoulli::compiler {

namespace {

// Runtime arrays the generated code references, deduplicated by pointer
// and named after their slot in the argument vector (prefix + slot). The
// label of an array's first use becomes its declaration comment.
template <class T>
struct ArgList {
  std::vector<T*> ptrs;
  std::vector<std::string> labels;

  std::string name(char prefix, T* p, const std::string& label) {
    std::size_t i = 0;
    while (i < ptrs.size() && ptrs[i] != p) ++i;
    if (i == ptrs.size()) {
      ptrs.push_back(p);
      labels.push_back(label);
    }
    return prefix + std::to_string(i);
  }
};

struct ArgPool {
  ArgList<const index_t> ints;   // I<k> = ia[k]
  ArgList<const value_t> consts;  // D<k> = da[k]
  ArgList<value_t> outs;          // W<k> = wa[k]
};

// Text safe inside a C block comment: user-chosen relation names must not
// close it early.
std::string comment_text(std::string s) {
  for (std::size_t at = s.find("*/"); at != std::string::npos;
       at = s.find("*/", at))
    s.replace(at, 2, "* /");
  return s;
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

std::string emit_refusal(const LinkedPlan& lp) {
  auto rel_name = [&](index_t rel) {
    return lp.query->relations[static_cast<std::size_t>(rel)].view->name();
  };
  if (lp.levels.empty()) return "plan has no levels";
  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    if (lv.method != JoinMethod::kEnumerate)
      return "level " + std::to_string(d) +
             " is a merge join; specialization covers enumerate-only plans";
    if (lv.drivers[0].level->enum_spec().kind ==
        relation::EnumSpec::Kind::kNone)
      return rel_name(lv.drivers[0].rel) +
             " has no flat enumeration shape at level " + std::to_string(d);
    for (const LinkedProbe& pr : lv.probes) {
      if (pr.insert_on_miss)
        return rel_name(pr.access.rel) + " inserts on miss (sparse fill-in)";
      if (pr.search.kind == relation::SearchSpec::Kind::kVirtual)
        return rel_name(pr.access.rel) + " probes through a virtual search";
    }
  }
  return {};
}

LinkedEmission emit_linked_c(const LinkedPlan& lp, const LinkedMac& mac,
                             const std::string& symbol) {
  BERNOULLI_CHECK(!symbol.empty());
  LinkedEmission out;
  out.symbol = symbol;
  out.num_levels = lp.levels.size();
  auto refuse = [&](const std::string& note) {
    out.ok = false;
    out.note = comment_text(note);
    return out;
  };
  auto rel_name = [&](index_t rel) {
    return comment_text(
        lp.query->relations[static_cast<std::size_t>(rel)].view->name());
  };

  if (std::string why = emit_refusal(lp); !why.empty()) return refuse(why);
  if (mac.target_data.empty())
    return refuse(mac.target->name() + " exposes no flat value array");
  for (const LinkedMac::Factor& f : mac.factors)
    if (f.data.empty())
      return refuse(f.view->name() + " exposes no flat value array");

  std::vector<relation::EnumSpec> specs;
  for (const LinkedLevel& lv : lp.levels)
    specs.push_back(lv.drivers[0].level->enum_spec());

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
  auto int_arg = [&](const LinkedAccess& a, const index_t* p,
                     const char* role) {
    return pool.ints.name('I', p,
                          rel_name(a.rel) + ": level " +
                              std::to_string(a.depth) + " " + role);
  };
  std::ostringstream body;
  bool need_binsearch = false;
  int indent = 1;
  auto line = [&](const std::string& s) {
    for (int i = 0; i < indent; ++i) body << "  ";
    body << s << '\n';
  };

  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    const LinkedAccess& drv = lv.drivers[0];
    const relation::EnumSpec& es = specs[d];
    const std::string D = std::to_string(d);
    const std::string en = "en" + D;
    const std::string prn = "prn" + D;
    const std::string P = parent_expr(drv.parent_slot);
    const std::string p = pvar(drv.pos_slot);
    const std::string v = vvar(lv.var_slot);
    const std::string k = "k" + D;

    line("{  /* level " + D + ": enumerate " + rel_name(drv.rel) + " */");
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
        const std::string ptr = int_arg(drv, es.ptr, "ptr");
        const std::string ind_a = int_arg(drv, es.ind, "ind");
        line("for (int " + p + " = " + ptr + "[" + P + "]; " + p + " < " +
             ptr + "[" + P + " + 1]; ++" + p + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case EKind::kList: {
        const std::string ind_a = int_arg(drv, es.ind, "ind");
        line("for (int " + p + " = 0; " + p + " < " +
             std::to_string(es.extent) + "; ++" + p + ") {");
        ++indent;
        line("++" + en + ";");
        line("const int " + v + " = " + ind_a + "[" + p + "];");
        break;
      }
      case EKind::kFunction: {
        const std::string map = int_arg(drv, es.map, "map");
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
        const std::string ind_a = int_arg(drv, es.ind, "ind");
        const std::string len = int_arg(drv, es.len, "len");
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
        const std::string ind_a = int_arg(drv, es.ind, "ind");
        const std::string off = int_arg(drv, es.off, "off");
        const std::string len = int_arg(drv, es.len, "len");
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
        const std::string ptr = int_arg(drv, es.ptr, "ptr");
        const std::string ind_a = int_arg(drv, es.ind, "ind");
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
        const std::string ind_a = int_arg(drv, es.ind, "ind");
        const std::string off = int_arg(drv, es.off, "base");
        const std::string len = int_arg(drv, es.len, "len");
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

    const relation::IndexRange er = relation::enum_index_range(es);
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
          const std::string ptr = int_arg(pr.access, pr.search.ptr, "ptr");
          const std::string ind_a =
              int_arg(pr.access, pr.search.ind, "ind");
          line("const int " + ps + " = binsearch(" + ind_a + ", " + ptr +
               "[" + pp + "], " + ptr + "[" + pp + " + 1], " + pv + ");");
          line("if (" + ps + " < 0) " + miss);
          break;
        }
        case SKind::kListBinary: {
          need_binsearch = true;
          const std::string ind_a = int_arg(pr.access, pr.search.ind, "ind");
          line("const int " + ps + " = binsearch(" + ind_a + ", 0, " +
               std::to_string(pr.search.extent) + ", " + pv + ");");
          line("if (" + ps + " < 0) " + miss);
          break;
        }
        case SKind::kFunction: {
          const std::string map = int_arg(pr.access, pr.search.map, "map");
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
    const std::string da = pool.consts.name(
        'D', f.data.data(), comment_text(f.view->name()) + ": values");
    line("prod *= " + da + "[" +
         pvar(lp.leaf_slot[static_cast<std::size_t>(f.slot)]) + "];");
  }
  {
    const std::string wa =
        pool.outs.name('W', mac.target_data.data(),
                       comment_text(mac.target->name()) + ": values");
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
  auto declare = [&os](const char* type, char prefix, const char* vec,
                       const auto& args) {
    for (std::size_t i = 0; i < args.ptrs.size(); ++i)
      os << "  " << type << " const " << prefix << i << " = " << vec << "["
         << i << "];  /* " << args.labels[i] << " */\n";
  };
  declare("const int*", 'I', "ia", pool.ints);
  declare("const double*", 'D', "da", pool.consts);
  declare("double*", 'W', "wa", pool.outs);
  os << "  long long tuples = 0, hits = 0, misses = 0;\n"
     << body.str() << "}\n";

  out.ok = true;
  out.source = os.str();
  out.int_args = pool.ints.ptrs;
  out.const_args = pool.consts.ptrs;
  out.out_args = pool.outs.ptrs;
  return out;
}

}  // namespace bernoulli::compiler
