#include "support/counters.hpp"

#include <algorithm>
#include <sstream>

#include "support/json_writer.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {

namespace {

thread_local std::string t_phase = "main";

}  // namespace

std::string counters_text(const MetricsSnapshot& snap, bool skip_zero) {
  // Width over the counters that will actually print, so filtering zeros
  // cannot change the alignment of what remains.
  std::size_t width = 0;
  for (const auto& [name, v] : snap.counts)
    if (!skip_zero || v != 0) width = std::max(width, name.size());
  for (const auto& [name, v] : snap.seconds)
    if (!skip_zero || v != 0.0) width = std::max(width, name.size());
  std::ostringstream os;
  for (const auto& [name, v] : snap.counts) {
    if (skip_zero && v == 0) continue;
    os << name << std::string(width - name.size() + 2, ' ') << v << "\n";
  }
  os.setf(std::ios::scientific);
  os.precision(3);
  for (const auto& [name, v] : snap.seconds) {
    if (skip_zero && v == 0.0) continue;
    os << name << std::string(width - name.size() + 2, ' ') << v << " s\n";
  }
  return os.str();
}

std::string counters_json(const MetricsSnapshot& snap, int indent) {
  JsonWriter w(indent);
  w.begin_object();
  w.key("counts").begin_object();
  for (const auto& [name, v] : snap.counts) w.key(name).value(v);
  w.end_object();
  w.key("seconds").begin_object();
  for (const auto& [name, v] : snap.seconds) w.key(name).value(v);
  w.end_object();
  w.end_object();
  return w.str();
}

const std::string& counter_phase() { return t_phase; }

PhaseScope::PhaseScope(std::string phase) : saved_(t_phase) {
  t_phase = std::move(phase);
}

PhaseScope::~PhaseScope() { t_phase = std::move(saved_); }

Counter& phase_counter(std::string_view family, std::string_view suffix) {
  std::string name;
  name.reserve(family.size() + t_phase.size() + suffix.size() + 2);
  name.append(family).append(".").append(t_phase).append(".").append(suffix);
  return counter(name);
}

TimeCounter& phase_time_counter(std::string_view family,
                                std::string_view suffix) {
  std::string name;
  name.reserve(family.size() + t_phase.size() + suffix.size() + 2);
  name.append(family).append(".").append(t_phase).append(".").append(suffix);
  return time_counter(name);
}

}  // namespace bernoulli::support
