#include "compiler/specialize.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "support/error.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define BERNOULLI_HAVE_MKDTEMP 1
#include <unistd.h>
#endif

namespace bernoulli::compiler {

namespace {

// The generated kernel's exported name. RTLD_LOCAL keeps each loaded
// kernel's symbols private, so reusing one name across kernels is fine.
constexpr const char* kSymbol = "bernoulli_specialized_kernel";

bool have_cc() {
  return std::system("cc --version > /dev/null 2>&1") == 0;
}

// cc flags: -ffp-contract=off forbids fused multiply-add contraction so
// the generated arithmetic matches the engines' separate mul/add sequence
// bitwise (the C++ build runs uncontracted on the x86-64 baseline).
std::string compile_command(const std::string& dir) {
  return "cc -O2 -fPIC -shared -ffp-contract=off -o " + dir + "/kernel.so " +
         dir + "/kernel.c 2> " + dir + "/cc.log";
}

}  // namespace

SpecializeLegality plan_specialize_legality(const Plan& plan,
                                            const relation::Query& q) {
  SpecializeLegality leg;
  const LinkedPlan lp = link_plan(plan, q);
  auto rel_name = [&](index_t rel) -> std::string {
    return q.relations[static_cast<std::size_t>(rel)].view->name();
  };
  if (lp.levels.empty()) {
    leg.note = "plan has no levels";
    return leg;
  }
  for (std::size_t d = 0; d < lp.levels.size(); ++d) {
    const LinkedLevel& lv = lp.levels[d];
    if (lv.method == JoinMethod::kMerge) {
      leg.note = "level " + std::to_string(d) +
                 " merges " + std::to_string(lv.drivers.size()) +
                 " drivers; codegen covers enumerate-only plans";
      return leg;
    }
    if (lv.drivers[0].level->enum_spec().kind ==
        relation::EnumSpec::Kind::kNone) {
      leg.note = rel_name(lv.drivers[0].rel) +
                 " has no flat enumeration shape at level " +
                 std::to_string(d);
      return leg;
    }
    for (const LinkedProbe& pr : lv.probes) {
      if (pr.insert_on_miss) {
        leg.note = rel_name(pr.access.rel) +
                   " inserts on miss (sparse fill-in grows storage mid-run)";
        return leg;
      }
      if (pr.search.kind == relation::SearchSpec::Kind::kVirtual) {
        leg.note = rel_name(pr.access.rel) + " probes through a virtual "
                   "search (no flat lowering)";
        return leg;
      }
    }
  }
  leg.ok = true;
  leg.note = "every level enumerates a flat shape and every probe lowers "
             "to inline checks or binary searches";
  return leg;
}

SpecializedKernel::SpecializedKernel(const LinkedPlan& lp,
                                     const LinkedMac& mac)
    : lp_(lp) {
  emission_ = emit_linked_c(lp, mac, kSymbol);
  if (!emission_.ok) {
    note_ = emission_.note;
    return;
  }
  if (!support::DynLib::available()) {
    note_ = "dynamic loading unavailable on this platform";
    return;
  }
#ifndef BERNOULLI_HAVE_MKDTEMP
  note_ = "no temporary-directory support on this platform";
  return;
#else
  if (!have_cc()) {
    note_ = "no C toolchain (cc not found)";
    return;
  }
  char tmpl[] = "/tmp/bernoulli-spec-XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    note_ = "could not create a temporary build directory";
    return;
  }
  dir_ = tmpl;
  {
    std::ofstream src(dir_ + "/kernel.c");
    src << emission_.source;
    if (!src) {
      note_ = "could not write the generated source";
      return;
    }
  }
  if (std::system(compile_command(dir_).c_str()) != 0) {
    note_ = "cc failed to compile the generated kernel (see " + dir_ +
            "/cc.log)";
    return;
  }
  if (!lib_.open(dir_ + "/kernel.so")) {
    note_ = "dlopen failed: " + lib_.error();
    return;
  }
  void* addr = lib_.symbol(emission_.symbol);
  if (addr == nullptr) {
    note_ = "dlsym failed: " + lib_.error();
    return;
  }
  fn_ = reinterpret_cast<KernelFn>(addr);
  note_ = "compiled and loaded " + dir_ + "/kernel.so";
  ctr_.assign(3, 0);
  lvl_enum_.assign(emission_.num_levels, 0);
  lvl_prod_.assign(emission_.num_levels, 0);
  delta_ = RunDelta(emission_.num_levels);
  lvl_ns_.assign(emission_.num_levels * 3, 0);
#endif
}

SpecializedKernel::~SpecializedKernel() {
  lib_.close();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best-effort cleanup
  }
}

void SpecializedKernel::run(RunStats* stats) {
  BERNOULLI_CHECK_MSG(fn_ != nullptr,
                      "specialized kernel not loaded: " << note_);
  const auto wall_t0 = std::chrono::steady_clock::now();
  const bool tracing = support::trace_enabled();
  RunStats local;
  RunStats* st = stats ? stats : (tracing ? &local : nullptr);
  double t0 = 0;
  std::unique_ptr<support::TraceSpan> span;
  if (tracing) {
    span = std::make_unique<support::TraceSpan>("execute", "compiler");
    t0 = support::trace_now_us();
  }

  std::fill(ctr_.begin(), ctr_.end(), 0);
  std::fill(lvl_enum_.begin(), lvl_enum_.end(), 0);
  std::fill(lvl_prod_.begin(), lvl_prod_.end(), 0);
  delta_.clear();
  std::fill(lvl_ns_.begin(), lvl_ns_.end(), 0);
  const bool profiling = support::profiling_enabled();
  const int rc =
      fn_(emission_.int_args.data(), emission_.const_args.data(),
          emission_.out_args.data(), ctr_.data(), lvl_enum_.data(),
          lvl_prod_.data(), delta_.fanout.data(), lvl_ns_.data(),
          profiling ? 1 : 0);
  BERNOULLI_CHECK_MSG(rc == 0,
                      "specialized kernel hit a non-filtering probe miss");

  // Book exactly what the linked engine books: the same RunDelta (the
  // generated code filled the fan-out buckets in place), the footprint
  // and per-level RunStats. Merge/fill-in counts stay zero — the emitter
  // refuses those shapes.
  delta_.tuples = ctr_[0];
  delta_.probe_hits = ctr_[1];
  delta_.probe_misses = ctr_[2];
  for (const long long e : lvl_enum_) delta_.enumerated += e;
  const long long wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_t0)
          .count();
  std::optional<support::ProfileFlush> profile;
  if (profiling) {
    // Host half of the lvl_ns ABI (docs/CODEGEN.md): compensate each
    // level's sampled bracket time, extrapolate to all invocations,
    // enforce that inclusive time never exceeds the parent's, and commit
    // self = incl[d] - incl[d+1] under the emitter's drain-kind
    // attribution. The raw slots carry the derived values, so the
    // self/inclusive invariant holds by construction for this engine.
    const int L = static_cast<int>(
        std::min(emission_.num_levels,
                 static_cast<std::size_t>(support::kProfileMaxLevels)));
    const long long timer = support::profile_timer_cost_ns();
    long long incl[support::kProfileMaxLevels] = {};
    for (int d = 0; d < L; ++d) {
      const long long raw = lvl_ns_[3 * static_cast<std::size_t>(d)];
      const long long samp = lvl_ns_[3 * static_cast<std::size_t>(d) + 1];
      if (samp <= 0) continue;
      const long long comp = std::max(0LL, raw - samp * timer);
      const long long invocations =
          d == 0 ? 1 : lvl_prod_[static_cast<std::size_t>(d - 1)];
      incl[d] = static_cast<long long>(static_cast<double>(comp) /
                                       static_cast<double>(samp) *
                                       static_cast<double>(invocations));
    }
    incl[0] = std::min(incl[0], wall_ns);
    for (int d = 1; d < L; ++d) incl[d] = std::min(incl[d], incl[d - 1]);
    support::ProfileFlush& f = profile.emplace();
    f.levels = L;
    f.wall_ns = wall_ns;
    for (int d = 0; d < L; ++d) {
      const int kind = emission_.level_kinds[static_cast<std::size_t>(d)];
      const long long self = incl[d] - (d + 1 < L ? incl[d + 1] : 0);
      f.self_ns[d][kind] = self;
      f.raw_ns[d][kind] = self;
      f.raw_incl_ns[d] = incl[d];
      f.samples[d][kind] = lvl_ns_[3 * static_cast<std::size_t>(d) + 1];
      f.work[d][kind] = lvl_prod_[static_cast<std::size_t>(d)];
    }
  }
  commit_run(delta_, wall_ns, &lp_.footprint, lp_.fanout,
             profile ? &*profile : nullptr);
  if (st) {
    st->tuples = ctr_[0];
    st->levels.assign(emission_.num_levels, LevelRunStats{});
    for (std::size_t d = 0; d < emission_.num_levels; ++d) {
      st->levels[d].enumerated = lvl_enum_[d];
      st->levels[d].produced = lvl_prod_[d];
    }
  }
  if (tracing) {
    const double t1 = support::trace_now_us();
    detail::emit_join_spans(*lp_.plan, *st, t0, t1);
    span.reset();
  }
}

}  // namespace bernoulli::compiler
