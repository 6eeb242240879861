// Unit tests for the observability substrate: the JSON writer's encoding
// contract and the counter registry's semantics (identity, snapshot/reset,
// phase tagging, thread-local phase isolation).
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "support/counters.hpp"
#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {
namespace {

TEST(JsonWriter, CompactDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("A");
  w.key("n").value(42);
  w.key("xs").begin_array().value(1).value(2.5).value(true).end_array();
  w.key("nested").begin_object().key("ok").value(false).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"A\",\"n\":42,\"xs\":[1,2.5,true],"
            "\"nested\":{\"ok\":false}}");
}

TEST(JsonWriter, PrettyPrintIndents) {
  JsonWriter w(2);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.value(std::string_view("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriter, EscapesEveryControlCharacter) {
  // Lock the full U+0000..U+001F range: short forms where RFC 8259 names
  // one, \u00XX otherwise — so Perfetto (a strict parser) accepts traces
  // whose span names carry arbitrary bytes.
  for (int c = 0; c < 0x20; ++c) {
    std::string s(1, static_cast<char>(c));
    JsonWriter w;
    w.value(std::string_view(s));
    std::string expect;
    switch (c) {
      case '\b': expect = "\"\\b\""; break;
      case '\f': expect = "\"\\f\""; break;
      case '\n': expect = "\"\\n\""; break;
      case '\r': expect = "\"\\r\""; break;
      case '\t': expect = "\"\\t\""; break;
      default: {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "\"\\u%04x\"", c);
        expect = buf;
      }
    }
    EXPECT_EQ(w.str(), expect) << "control char " << c;
  }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  const double cases[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  for (double v : cases) {
    JsonWriter w;
    w.value(v);
    EXPECT_EQ(w.str(), "null");
  }
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  {
    JsonWriter w;
    w.value(0.1);
    EXPECT_EQ(w.str(), "0.1");
  }
  {
    JsonWriter w;
    w.value(3.0);
    EXPECT_EQ(w.str(), "3");
  }
  {
    JsonWriter w;
    w.value(1.0 / 3.0);
    EXPECT_EQ(std::stod(w.str()), 1.0 / 3.0);
  }
  {
    JsonWriter w;
    w.value(std::numeric_limits<double>::infinity());
    EXPECT_EQ(w.str(), "null");
  }
}

TEST(JsonWriter, RawSplicesSubdocument) {
  JsonWriter inner;
  inner.begin_object();
  inner.key("x").value(1);
  inner.end_object();
  JsonWriter w;
  w.begin_object();
  w.key("sub").raw(inner.str());
  w.end_object();
  EXPECT_EQ(w.str(), "{\"sub\":{\"x\":1}}");
}

TEST(JsonWriter, MisuseTrips) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value(1), Error);   // value without key
  EXPECT_THROW(w.str(), Error);      // unclosed container
}

TEST(Counters, SameNameSameCounter) {
  Counter& a = counter("test.same_name");
  Counter& b = counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7);
}

TEST(Counters, SnapshotAndReset) {
  counter("test.snap").reset();
  counter("test.snap").add(5);
  time_counter("test.snap_time").reset();
  time_counter("test.snap_time").add(0.25);
  MetricsSnapshot snap = metrics_snapshot();
  EXPECT_EQ(snap.counts["test.snap"], 5);
  EXPECT_DOUBLE_EQ(snap.seconds["test.snap_time"], 0.25);

  metrics_reset();
  snap = metrics_snapshot();
  EXPECT_EQ(snap.counts["test.snap"], 0);
  EXPECT_DOUBLE_EQ(snap.seconds["test.snap_time"], 0.0);
}

TEST(Counters, PhaseScopingRestores) {
  EXPECT_EQ(counter_phase(), "main");
  {
    PhaseScope inspector("inspector");
    EXPECT_EQ(counter_phase(), "inspector");
    {
      PhaseScope executor("executor");
      EXPECT_EQ(counter_phase(), "executor");
      phase_counter("test.fam", "hits").add(1);
    }
    EXPECT_EQ(counter_phase(), "inspector");
    phase_counter("test.fam", "hits").add(1);
  }
  EXPECT_EQ(counter_phase(), "main");
  EXPECT_EQ(counter("test.fam.executor.hits").value(), 1);
  EXPECT_EQ(counter("test.fam.inspector.hits").value(), 1);
}

TEST(Counters, PhaseIsThreadLocal) {
  PhaseScope scoped("executor");
  std::string other_thread_phase;
  std::thread t([&] { other_thread_phase = counter_phase(); });
  t.join();
  // A fresh thread starts at "main" regardless of this thread's scope —
  // this is what lets each simulated rank carry its own phase tag.
  EXPECT_EQ(other_thread_phase, "main");
  EXPECT_EQ(counter_phase(), "executor");
}

TEST(Counters, PhaseScopeRestoresOnException) {
  EXPECT_EQ(counter_phase(), "main");
  try {
    PhaseScope inspector("inspector");
    throw std::runtime_error("inspector blew up");
  } catch (const std::runtime_error&) {
  }
  // The whole point of RAII phase scoping: an exception mid-phase must
  // not leave later counters mis-tagged.
  EXPECT_EQ(counter_phase(), "main");
}

TEST(Counters, TextRenderingIsDeterministicGolden) {
  metrics_reset();
  counter("test.golden.b").add(2);
  counter("test.golden.a").add(11);
  time_counter("test.golden.t").add(0.5);
  // skip_zero drops every other (reset) counter in the process-wide
  // registry, leaving exactly the three set above — sorted by name,
  // counts before seconds, two spaces of padding to the widest included
  // name, times in scientific notation with an " s" suffix.
  EXPECT_EQ(counters_text(metrics_snapshot(), /*skip_zero=*/true),
            "test.golden.a  11\n"
            "test.golden.b  2\n"
            "test.golden.t  5.000e-01 s\n");
}

TEST(Counters, TextAndJsonRenderings) {
  metrics_reset();
  counter("test.render").add(9);
  time_counter("test.render_time").add(1.5);
  std::string text = counters_text(metrics_snapshot());
  EXPECT_NE(text.find("test.render"), std::string::npos);
  std::string json = counters_json(metrics_snapshot());
  EXPECT_NE(json.find("\"test.render\":9"), std::string::npos);
  EXPECT_NE(json.find("\"test.render_time\":1.5"), std::string::npos);
}

}  // namespace
}  // namespace bernoulli::support
