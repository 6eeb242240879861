#include "analysis/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/attribution.hpp"
#include "support/counters.hpp"
#include "support/error.hpp"
#include "support/histogram.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace bernoulli::analysis {

RunReport::RunReport(std::string tool) : tool_(std::move(tool)) {}

RunReport::~RunReport() {
  if (observing_) clear_solve_hooks();
}

void RunReport::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, value);
}

void RunReport::config(const std::string& key, long long value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunReport::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void RunReport::add_plan(const std::string& name, std::string explain_json) {
  plans_.emplace_back(name, std::move(explain_json));
}

void RunReport::add_model_check(const std::string& name,
                                const ModelCheckReport& mc) {
  checks_.emplace_back(name, model_check_json(mc));
}

void RunReport::add_comm_check(const std::string& name, const CommCheck& cc) {
  comm_checks_.emplace_back(name, cc);
}

void RunReport::add_roofline(const RooflineEntry& entry) {
  roofline_.push_back(entry);
}

void RunReport::set_critical_path(const CriticalPathReport& cp) {
  critical_path_json_ = critical_path_json(cp);
}

void RunReport::observe_solves() {
  observing_ = true;
  SolveHooks hooks;
  // Every simulated rank notifies concurrently; the recorder serializes.
  hooks.post = [this](const SolveRecord& rec) {
    std::lock_guard<std::mutex> lk(solves_mu_);
    solves_.push_back(rec);
  };
  set_solve_hooks(std::move(hooks));
}

std::string RunReport::json(int indent) const {
  support::JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("bernoulli.run.v1");
  w.key("tool").value(tool_);

  w.key("build").begin_object();
#if defined(__VERSION__)
  w.key("compiler").value(__VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
  w.key("standard").value(static_cast<long long>(__cplusplus));
#if defined(NDEBUG)
  w.key("assertions").value(false);
#else
  w.key("assertions").value(true);
#endif
  w.end_object();

  w.key("config").begin_object();
  for (const auto& [k, v] : config_) w.key(k).value(v);
  w.end_object();

  w.key("metrics").begin_object();
  for (const auto& [k, v] : metrics_) w.key(k).value(v);
  w.end_object();

  w.key("plans").begin_object();
  for (const auto& [k, v] : plans_) w.key(k).raw(v);
  w.end_object();

  w.key("model_checks").begin_object();
  for (const auto& [k, v] : checks_) w.key(k).raw(v);
  w.end_object();

  w.key("comm_checks").begin_object();
  for (const auto& [k, cc] : comm_checks_) {
    w.key(k).begin_object();
    w.key("predicted_messages").value(cc.predicted_messages);
    w.key("predicted_bytes").value(cc.predicted_bytes);
    w.key("measured_messages").value(cc.measured_messages);
    w.key("measured_bytes").value(cc.measured_bytes);
    w.key("match").value(cc.match());
    w.end_object();
  }
  w.end_object();

  w.key("roofline").begin_array();
  for (const RooflineEntry& e : roofline_) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("bytes").value(e.bytes);
    w.key("flops").value(e.flops);
    w.key("seconds").value(e.seconds);
    w.key("arithmetic_intensity").value(e.arithmetic_intensity());
    w.key("achieved_bytes_per_s").value(e.achieved_bytes_per_s());
    w.key("achieved_flops_per_s").value(e.achieved_flops_per_s());
    w.key("peak_bytes_per_s").value(e.peak_bytes_per_s);
    w.key("peak_flops_per_s").value(e.peak_flops_per_s);
    w.key("roof_flops_per_s").value(e.roof_flops_per_s());
    w.key("fraction_of_roof").value(e.fraction_of_roof());
    w.key("exact").value(e.exact);
    w.end_object();
  }
  w.end_array();

  {
    std::lock_guard<std::mutex> lk(solves_mu_);
    w.key("solves").begin_array();
    // Deterministic order: ranks finish in arbitrary order, so sort.
    std::vector<const SolveRecord*> sorted;
    sorted.reserve(solves_.size());
    for (const auto& s : solves_) sorted.push_back(&s);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const SolveRecord* a, const SolveRecord* b) {
                       return a->rank < b->rank;
                     });
    for (const SolveRecord* s : sorted) {
      w.begin_object();
      w.key("solver").value(s->solver);
      w.key("rank").value(s->rank);
      w.key("nprocs").value(s->nprocs);
      w.key("iterations").value(s->iterations);
      w.key("residual_norm").value(s->residual_norm);
      w.key("converged").value(s->converged);
      w.key("messages").value(s->messages);
      w.key("bytes").value(s->bytes);
      w.key("vtime_s").value(s->vtime_s);
      w.key("plan");
      if (s->plan_explain_json.empty())
        w.raw("null");
      else
        w.raw(s->plan_explain_json);
      w.end_object();
    }
    w.end_array();
  }

  w.key("critical_path");
  if (critical_path_json_.empty())
    w.raw("null");
  else
    w.raw(critical_path_json_);

  // Registry sections, all rendered from ONE snapshot taken now (build the
  // report after obs_end()), so they describe the same set of whole runs.
  const support::MetricsSnapshot snap = support::metrics_snapshot();
  w.key("comm_matrix").raw(support::comm_matrix_json());
  w.key("histograms").raw(support::histograms_json(snap));
  w.key("counters").raw(support::counters_json(snap));
  // The serving metrics (support/metrics.hpp), embedded as their own
  // schema so metrics-only consumers can lift the block out verbatim.
  w.key("metrics_registry").raw(support::metrics_json(snap));
  // Per-level time attribution (support/profile.hpp): a
  // bernoulli.profile.v1 block when the run profiled, "{}" otherwise —
  // the block `bernoulli_report profile` renders and diffs.
  w.key("profile_registry").raw(support::profile_json(snap));
  w.end_object();

  std::string out = w.str();
  // The report must round-trip: a document we cannot re-read is a bug
  // here, not in the consumer. json_parse throws on any violation.
  support::json_parse(out);
  return out;
}

void RunReport::write(const std::string& path) const {
  std::string doc = json();
  std::ofstream out(path, std::ios::binary);
  BERNOULLI_CHECK_MSG(out.good(), "cannot open report file: " << path);
  out << doc << "\n";
  BERNOULLI_CHECK_MSG(out.good(), "short write to report file: " << path);
  std::cerr << "report: " << path << " (bernoulli.run.v1, " << doc.size()
            << " bytes)\n";
}

// ---- reading / diffing ------------------------------------------------

namespace {

using support::JsonValue;

const std::string& doc_schema(const JsonValue& doc) {
  const JsonValue* schema = doc.find("schema");
  BERNOULLI_CHECK_MSG(schema, "document has no schema field");
  return schema->as_string();
}

}  // namespace

std::map<std::string, double> report_metrics(const JsonValue& doc) {
  std::map<std::string, double> out;
  const std::string& schema = doc_schema(doc);
  if (schema == "bernoulli.run.v1") {
    const JsonValue* metrics = doc.find("metrics");
    BERNOULLI_CHECK_MSG(metrics && metrics->is_object(),
                        "run report has no metrics object");
    for (const auto& [name, v] : metrics->members) out[name] = v.as_number();
    return out;
  }
  if (schema == "bernoulli.bench.exec.v1") {
    // Derive the same metric names the engine benches emit in run.v1
    // reports, so a fresh --report run diffs against the committed
    // BENCH_exec.json snapshot.
    const JsonValue* cases = doc.find("cases");
    BERNOULLI_CHECK_MSG(cases && cases->is_array(),
                        "exec snapshot has no cases array");
    for (const JsonValue& c : cases->items) {
      std::string base = "exec." + c.find("matrix")->as_string() + "." +
                         c.find("format")->as_string();
      if (const JsonValue* engines = c.find("engines"))
        for (const auto& [engine, timing] : engines->members)
          if (const JsonValue* ns = timing.find("ns_per_nnz"))
            out[base + "." + engine + ".ns_per_nnz"] = ns->as_number();
      for (const char* key : {"speedup_linked_over_interpreted",
                              "slowdown_linked_vs_kernel",
                              "slowdown_specialized_vs_kernel",
                              "speedup_linked_threaded_over_serial",
                              "speedup_bcsr_vs_crs_linked",
                              "speedup_sell_vs_crs_linked"})
        if (const JsonValue* v = c.find(key))
          out[base + "." + key] = v->as_number();
    }
    // Optional serving section (bench_serve --exec-json=): every numeric
    // member becomes exec.serve.<key>, same names bench_serve's run.v1
    // report emits, so serve snapshots diff/regress like engine ones.
    if (const JsonValue* serve = doc.find("serve"))
      for (const auto& [key, v] : serve->members)
        if (v.type == JsonValue::Type::kNumber)
          out["exec.serve." + key] = v.as_number();
    return out;
  }
  BERNOULLI_CHECK_MSG(false, "cannot extract metrics from schema '"
                                 << schema << "'");
  return out;
}

DiffResult diff_reports(const JsonValue& base, const JsonValue& current,
                        double tolerance, const std::string& metric_filter) {
  auto mb = report_metrics(base);
  auto mc = report_metrics(current);
  DiffResult out;
  for (const auto& [name, bval] : mb) {
    auto it = mc.find(name);
    if (it == mc.end()) continue;
    if (!metric_filter.empty() &&
        name.find(metric_filter) == std::string::npos)
      continue;
    MetricDiff d;
    d.name = name;
    d.base = bval;
    d.current = it->second;
    d.higher_is_better = name.find("speedup") != std::string::npos;
    const double denom = std::max(std::fabs(bval), 1e-300);
    d.rel_change = d.higher_is_better ? (bval - d.current) / denom
                                      : (d.current - bval) / denom;
    d.regressed = d.rel_change > tolerance;
    out.compared += 1;
    out.regressions += d.regressed ? 1 : 0;
    out.metrics.push_back(std::move(d));
  }
  return out;
}

std::string diff_text(const DiffResult& d, double tolerance,
                      bool only_changed) {
  std::ostringstream os;
  char line[240];
  std::snprintf(line, sizeof(line), "%-55s %12s %12s %9s\n", "metric", "base",
                "current", "change");
  os << line;
  int suppressed = 0;
  for (const auto& m : d.metrics) {
    if (only_changed && !m.regressed &&
        std::fabs(m.rel_change) <= tolerance) {
      ++suppressed;
      continue;
    }
    std::snprintf(line, sizeof(line), "%-55s %12.4g %12.4g %+8.1f%%%s\n",
                  m.name.c_str(), m.base, m.current,
                  100.0 * (m.higher_is_better ? -m.rel_change : m.rel_change),
                  m.regressed ? "  REGRESSED" : "");
    os << line;
  }
  if (suppressed > 0)
    os << "(" << suppressed << " metric(s) within tolerance not shown)\n";
  std::snprintf(line, sizeof(line),
                "%d metrics compared, %d regression(s) at tolerance %.0f%%\n",
                d.compared, d.regressions, 100.0 * tolerance);
  os << line;
  if (d.compared == 0)
    os << "error: the reports share no comparable metrics\n";
  return os.str();
}

// ---- the run ledger ---------------------------------------------------

void ledger_append(const std::string& ledger_path,
                   const std::string& report_json) {
  // Validate before writing: a malformed entry would poison every later
  // trend/regress read of the ledger.
  support::json_parse(report_json);
  std::string line;
  line.reserve(report_json.size());
  for (char c : report_json)
    if (c != '\n' && c != '\r') line += c;
  std::ofstream out(ledger_path, std::ios::binary | std::ios::app);
  BERNOULLI_CHECK_MSG(out.good(), "cannot open ledger: " << ledger_path);
  out << line << "\n";
  BERNOULLI_CHECK_MSG(out.good(), "short write to ledger: " << ledger_path);
}

std::vector<support::JsonValue> ledger_read(const std::string& ledger_path) {
  std::ifstream in(ledger_path, std::ios::binary);
  BERNOULLI_CHECK_MSG(in.good(), "cannot read ledger: " << ledger_path);
  std::vector<support::JsonValue> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      entries.push_back(support::json_parse(line));
    } catch (const std::exception& e) {
      BERNOULLI_CHECK_MSG(false, "ledger " << ledger_path << " line "
                                           << lineno << ": " << e.what());
    }
  }
  return entries;
}

std::string ledger_trend_text(const std::vector<support::JsonValue>& entries,
                              const std::string& metric_filter) {
  std::ostringstream os;
  os << "ledger: " << entries.size() << " entries\n";
  if (entries.empty()) return os.str();
  // Union of matching metric names across entries; a metric absent from an
  // entry prints "-" so trajectories stay column-aligned.
  std::vector<std::map<std::string, double>> per_entry;
  per_entry.reserve(entries.size());
  std::map<std::string, int> names;  // name -> #entries present
  for (const auto& doc : entries) {
    per_entry.push_back(report_metrics(doc));
    for (const auto& [name, v] : per_entry.back())
      if (metric_filter.empty() || name.find(metric_filter) != std::string::npos)
        ++names[name];
  }
  if (names.empty()) {
    os << "no metrics match filter '" << metric_filter << "'\n";
    return os.str();
  }
  for (const auto& [name, present] : names) {
    os << name << ":";
    double first = 0.0, last = 0.0;
    bool have_first = false;
    for (const auto& m : per_entry) {
      auto it = m.find(name);
      if (it == m.end()) {
        os << " -";
        continue;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4g", it->second);
      os << buf;
      if (!have_first) {
        first = it->second;
        have_first = true;
      }
      last = it->second;
    }
    if (have_first && first != 0.0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "  (%+.1f%% first->last)",
                    100.0 * (last - first) / std::fabs(first));
      os << buf;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

void render_model_check(std::ostream& os, const std::string& name,
                        const JsonValue& mc) {
  os << "model check: " << name << "\n";
  char line[200];
  std::snprintf(line, sizeof(line), "  %-10s %-9s %14s %14s %10s %8s\n",
                "var", "method", "est_produced", "produced", "ratio",
                "|log2|");
  os << line;
  if (const JsonValue* levels = mc.find("levels"))
    for (const JsonValue& lv : levels->items) {
      std::snprintf(line, sizeof(line),
                    "  %-10s %-9s %14.1f %14lld %10.3f %8.3f\n",
                    lv.find("var")->as_string().c_str(),
                    lv.find("method")->as_string().c_str(),
                    lv.find("est_produced")->as_number(),
                    static_cast<long long>(lv.find("produced")->as_number()),
                    lv.find("ratio")->as_number(),
                    lv.find("abs_log2_error")->as_number());
      os << line;
    }
  std::snprintf(line, sizeof(line), "  error score = %.3f bits\n",
                mc.find("error_score")->as_number());
  os << line;
}

void render_critical_path(std::ostream& os, const JsonValue& cp) {
  const int nprocs = static_cast<int>(cp.find("nprocs")->as_number());
  if (nprocs == 0) {
    os << "critical path: (no machine run recorded)\n";
    return;
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "critical path: %d ranks, total %.3f us, imbalance "
                "max/mean compute %.3f, idle fraction %.3f\n",
                nprocs, cp.find("total_us")->as_number(),
                cp.find("max_over_mean_compute")->as_number(),
                cp.find("idle_fraction")->as_number());
  os << line;
  std::snprintf(line, sizeof(line), "  %4s %12s %12s %12s %12s %12s\n",
                "rank", "finish_us", "compute_us", "comm_us", "idle_us",
                "slack_us");
  os << line;
  for (const JsonValue& rb : cp.find("ranks")->items) {
    std::snprintf(line, sizeof(line),
                  "  %4d %12.3f %12.3f %12.3f %12.3f %12.3f\n",
                  static_cast<int>(rb.find("rank")->as_number()),
                  rb.find("finish_us")->as_number(),
                  rb.find("compute_us")->as_number(),
                  rb.find("comm_us")->as_number(),
                  rb.find("idle_us")->as_number(),
                  rb.find("slack_us")->as_number());
    os << line;
  }
  const auto& steps = cp.find("steps")->items;
  os << "  path (" << steps.size() << " steps):\n";
  for (const JsonValue& s : steps) {
    std::snprintf(line, sizeof(line), "    [%10.3f, %10.3f] rank %d  %s",
                  s.find("t0_us")->as_number(), s.find("t1_us")->as_number(),
                  static_cast<int>(s.find("rank")->as_number()),
                  s.find("kind")->as_string().c_str());
    os << line;
    if (const JsonValue* from = s.find("from_rank"))
      os << " (rank " << static_cast<int>(from->as_number()) << ")";
    os << "\n";
  }
}

}  // namespace

std::string report_text(const JsonValue& doc) {
  std::ostringstream os;
  const std::string& schema = doc_schema(doc);
  if (schema == "bernoulli.bench.exec.v1") {
    os << "bernoulli.bench.exec.v1 snapshot\n";
    for (const auto& [name, v] : report_metrics(doc)) {
      char line[200];
      std::snprintf(line, sizeof(line), "  %-55s %12.4g\n", name.c_str(), v);
      os << line;
    }
    return os.str();
  }
  BERNOULLI_CHECK_MSG(schema == "bernoulli.run.v1",
                      "cannot render schema '" << schema << "'");
  os << "run report: " << doc.find("tool")->as_string() << "\n";
  if (const JsonValue* build = doc.find("build"))
    if (const JsonValue* cc = build->find("compiler"))
      os << "  build: " << cc->as_string() << "\n";
  if (const JsonValue* config = doc.find("config"))
    for (const auto& [k, v] : config->members)
      os << "  config: " << k << " = " << v.as_string() << "\n";
  os << "\n";

  if (const JsonValue* metrics = doc.find("metrics"))
    if (!metrics->members.empty()) {
      os << "metrics:\n";
      for (const auto& [name, v] : metrics->members) {
        char line[200];
        std::snprintf(line, sizeof(line), "  %-55s %12.6g\n", name.c_str(),
                      v.as_number());
        os << line;
      }
      os << "\n";
    }

  if (const JsonValue* checks = doc.find("model_checks"))
    for (const auto& [name, mc] : checks->members) {
      render_model_check(os, name, mc);
      os << "\n";
    }

  if (const JsonValue* comm = doc.find("comm_checks"))
    for (const auto& [name, cc] : comm->members) {
      os << "comm check: " << name << ": predicted "
         << static_cast<long long>(
                cc.find("predicted_messages")->as_number())
         << " msgs / "
         << static_cast<long long>(cc.find("predicted_bytes")->as_number())
         << " B, measured "
         << static_cast<long long>(cc.find("measured_messages")->as_number())
         << " msgs / "
         << static_cast<long long>(cc.find("measured_bytes")->as_number())
         << " B"
         << (cc.find("match")->boolean ? " (match)" : " (MISMATCH)") << "\n";
    }

  if (const JsonValue* roofline = doc.find("roofline"))
    if (roofline->is_array() && !roofline->items.empty()) {
      os << "roofline (model peaks: "
         << roofline->items[0].find("peak_bytes_per_s")->as_number() / 1e9
         << " GB/s, "
         << roofline->items[0].find("peak_flops_per_s")->as_number() / 1e9
         << " GFLOP/s):\n";
      char line[240];
      std::snprintf(line, sizeof(line), "  %-34s %12s %10s %10s %10s %7s\n",
                    "engine", "bytes", "AI", "GB/s", "GFLOP/s", "roof%");
      os << line;
      for (const JsonValue& e : roofline->items) {
        std::snprintf(
            line, sizeof(line),
            "  %-34s %12lld %10.3f %10.3f %10.3f %6.1f%%%s\n",
            e.find("name")->as_string().c_str(),
            static_cast<long long>(e.find("bytes")->as_number()),
            e.find("arithmetic_intensity")->as_number(),
            e.find("achieved_bytes_per_s")->as_number() / 1e9,
            e.find("achieved_flops_per_s")->as_number() / 1e9,
            100.0 * e.find("fraction_of_roof")->as_number(),
            e.find("exact")->boolean ? "" : "  (inexact)");
        os << line;
      }
      os << "\n";
    }

  if (const JsonValue* solves = doc.find("solves"))
    if (!solves->items.empty()) {
      os << "solves (" << solves->items.size() << " rank-records):\n";
      for (const JsonValue& s : solves->items)
        os << "  rank " << static_cast<int>(s.find("rank")->as_number())
           << "/" << static_cast<int>(s.find("nprocs")->as_number()) << " "
           << s.find("solver")->as_string() << ": "
           << static_cast<int>(s.find("iterations")->as_number())
           << " iters, "
           << static_cast<long long>(s.find("messages")->as_number())
           << " msgs, "
           << static_cast<long long>(s.find("bytes")->as_number())
           << " bytes\n";
      os << "\n";
    }

  if (const JsonValue* cp = doc.find("critical_path"))
    if (cp->is_object()) render_critical_path(os, *cp);

  if (const JsonValue* prof = doc.find("profile_registry"))
    if (profile_block_nonempty(*prof)) os << "\n" << profile_table_text(*prof);
  return os.str();
}

}  // namespace bernoulli::analysis
