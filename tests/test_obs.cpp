// Contract tests for the observability layer (src/obs/):
//   * disabled mode records nothing,
//   * trace JSON is well-formed and span-balanced,
//   * the metric registry produced by the reference pipeline is bit-identical
//     across thread budgets 1/2/8 (the PR-1 determinism contract extended to
//     telemetry),
//   * the run report carries the required schema keys,
//   * the JsonWriter emits strict RFC 8259 output on every edge case,
//   * the flight recorder's ring, post-mortem and Chrome-trace export obey
//     the same 1/2/8-thread bit-identity contract as the registry.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "gpusim/device.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "solver/gpu_jacobi.hpp"
#include "solver/jacobi.hpp"
#include "solver/operators.hpp"
#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "verify/json_reader.hpp"

namespace cmesolve {
namespace {

/// RAII thread-budget override; restores auto-detection on scope exit.
class ThreadBudget {
 public:
  explicit ThreadBudget(int n) { util::set_max_threads(n); }
  ~ThreadBudget() { util::set_max_threads(0); }
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;
};

/// Reset every telemetry sink to the disabled, empty state.
void reset_telemetry() {
  obs::Tracer::instance().disable();
  obs::Tracer::instance().clear();
  obs::set_metrics_enabled(false);
  obs::MetricRegistry::instance().clear();
  obs::FlightRecorder::instance().disable();
  obs::FlightRecorder::instance().clear();
}

/// The determinism reference pipeline: enumerate a small toggle switch,
/// assemble its rate matrix and solve on the simulated GPU — touching every
/// instrumented layer (core, solver, gpusim).
void reference_solve() {
  core::models::ToggleSwitchParams params;
  params.cap_a = params.cap_b = 12;
  const auto network = core::models::toggle_switch(params);
  const core::StateSpace space(
      network, core::models::toggle_switch_initial(params), 100'000);
  const auto a = core::rate_matrix(space);

  std::vector<real_t> p(static_cast<std::size_t>(a.nrows));
  solver::fill_uniform(p);
  solver::JacobiOptions opt;
  opt.eps = 1e-8;
  opt.max_iterations = 2'000;
  (void)solver::gpu_jacobi_solve(gpusim::DeviceSpec::gtx580(), a, p, opt);
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (no dependency allowed in-tree;
// accepting exactly the grammar of RFC 8259 is enough to catch unbalanced
// braces, stray commas and non-finite number leaks).
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!parse_value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool parse_value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number();
    }
  }

  bool parse_object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!parse_string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!parse_value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool parse_string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool parse_literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_telemetry(); }
  void TearDown() override { reset_telemetry(); }
};

// ---------------------------------------------------------------------------
// Disabled mode
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledModeEmitsNothing) {
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_FALSE(obs::metrics_enabled());

  reference_solve();

  EXPECT_EQ(obs::Tracer::instance().size(), 0u);
  EXPECT_TRUE(obs::MetricRegistry::instance().empty());
  EXPECT_EQ(obs::MetricRegistry::instance().deterministic_fingerprint(), "");
}

TEST_F(ObsTest, SpanGuardCapturesDisabledStateAtConstruction) {
  obs::Tracer::instance().enable();
  {
    CMESOLVE_TRACE_SPAN("balanced.even.if.disabled.midway");
    obs::Tracer::instance().disable();
  }  // the span was active at construction, so its E event still lands
  EXPECT_EQ(obs::Tracer::instance().open_spans(), 0);
}

// ---------------------------------------------------------------------------
// Trace well-formedness
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceJsonWellFormedAndSpanBalanced) {
  obs::Tracer::instance().enable();
  reference_solve();
  obs::Tracer::instance().disable();

  ASSERT_GT(obs::Tracer::instance().size(), 0u);
  EXPECT_EQ(obs::Tracer::instance().open_spans(), 0);
  EXPECT_EQ(obs::Tracer::instance().dropped(), 0u);

  std::ostringstream os;
  obs::Tracer::instance().write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).valid()) << json.substr(0, 400);

  // The reference pipeline must cover every instrumented layer.
  for (const char* name :
       {"core.enumerate", "core.rate_matrix", "jacobi.solve", "jacobi.sweep",
        "gpu_jacobi.solve", "sim.jacobi_sweep", "sim.vector_op"}) {
    EXPECT_NE(json.find(name), std::string::npos) << "missing span " << name;
  }
}

TEST_F(ObsTest, TraceEventsCarryMatchedBeginEndPairs) {
  obs::Tracer::instance().enable();
  {
    CMESOLVE_TRACE_SPAN("outer");
    CMESOLVE_TRACE_SPAN("inner");
    CMESOLVE_TRACE_INSTANT("tick");
    CMESOLVE_TRACE_COUNTER("gauge", 42.0);
  }
  obs::Tracer::instance().disable();

  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_EQ(events[3].phase, 'C');
  EXPECT_EQ(events[3].value, 42.0);
  // RAII order: inner closes before outer.
  EXPECT_EQ(events[4].name, "inner");
  EXPECT_EQ(events[4].phase, 'E');
  EXPECT_EQ(events[5].name, "outer");
  EXPECT_EQ(events[5].phase, 'E');
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST_F(ObsTest, RegistryCountersGaugesHistograms) {
  obs::set_metrics_enabled(true);
  obs::count("c");
  obs::count("c", 4);
  obs::gauge("g", 2.5);
  obs::gauge("g", 3.5);
  obs::observe("h", 1.0);
  obs::observe("h", 3.0);

  const auto snap = obs::MetricRegistry::instance().snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at("c").count, 5u);
  EXPECT_EQ(snap.at("g").gauge, 3.5);
  EXPECT_EQ(snap.at("h").stats.count(), 2u);
  EXPECT_EQ(snap.at("h").stats.mean(), 2.0);
}

TEST_F(ObsTest, VolatileMetricsExcludedFromFingerprint) {
  obs::set_metrics_enabled(true);
  obs::gauge("det", 1.0);
  obs::gauge("wallclock", 0.123, /*is_volatile=*/true);

  const auto fp = obs::MetricRegistry::instance().deterministic_fingerprint();
  EXPECT_NE(fp.find("det"), std::string::npos);
  EXPECT_EQ(fp.find("wallclock"), std::string::npos);
}

TEST_F(ObsTest, SuppressMetricsBlocksPublication) {
  obs::set_metrics_enabled(true);
  {
    obs::SuppressMetrics guard;
    EXPECT_FALSE(obs::metrics_enabled());
    obs::count("suppressed");
  }
  EXPECT_TRUE(obs::metrics_enabled());
  EXPECT_TRUE(obs::MetricRegistry::instance().empty());
}

// ---------------------------------------------------------------------------
// Determinism across thread budgets (the headline contract)
// ---------------------------------------------------------------------------

TEST_F(ObsTest, RegistryBitIdenticalAcrossThreadCounts) {
  // Reference at 1 thread (the serial engines).
  std::string ref_fingerprint;
  std::uint64_t ref_trace_signature = 0;
  {
    ThreadBudget budget(1);
    obs::set_metrics_enabled(true);
    obs::Tracer::instance().enable();
    reference_solve();
    obs::Tracer::instance().disable();
    obs::set_metrics_enabled(false);
    ref_fingerprint =
        obs::MetricRegistry::instance().deterministic_fingerprint();
    ref_trace_signature = obs::Tracer::instance().content_signature();
  }
  ASSERT_FALSE(ref_fingerprint.empty());

  for (int threads : {2, 8}) {
    reset_telemetry();
    ThreadBudget budget(threads);
    obs::set_metrics_enabled(true);
    obs::Tracer::instance().enable();
    reference_solve();
    obs::Tracer::instance().disable();
    obs::set_metrics_enabled(false);

    EXPECT_EQ(obs::MetricRegistry::instance().deterministic_fingerprint(),
              ref_fingerprint)
        << "metric registry diverged at " << threads << " threads";
    EXPECT_EQ(obs::Tracer::instance().content_signature(), ref_trace_signature)
        << "trace content diverged at " << threads << " threads";
    EXPECT_EQ(obs::Tracer::instance().open_spans(), 0);
  }
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ReportCarriesSchemaProvenanceAndMetrics) {
  obs::set_metrics_enabled(true);
  obs::set_context("program", "test_obs");
  reference_solve();

  std::ostringstream os;
  obs::write_report(os);
  const std::string json = os.str();

  EXPECT_TRUE(JsonParser(json).valid()) << json.substr(0, 400);
  for (const char* key :
       {"cmesolve.run_report/2", "provenance", "version", "git", "threads",
        "perf_available", "metrics", "counters", "gauges", "histograms",
        "volatile", "jacobi.iterations", "jacobi.residual.final",
        "sim.jacobi_sweep", "test_obs"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
}

TEST_F(ObsTest, ReportSerializesNonFiniteAsNull) {
  obs::set_metrics_enabled(true);
  obs::gauge("bad", std::numeric_limits<double>::quiet_NaN());

  std::ostringstream os;
  obs::write_report(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).valid());
  EXPECT_NE(json.find("\"bad\": null"), std::string::npos);
  // Bare non-finite tokens would break strict JSON parsers. (Note: a plain
  // find("nan") would false-positive on the word "provenance".)
  EXPECT_EQ(json.find(": nan"), std::string::npos);
  EXPECT_EQ(json.find(": inf"), std::string::npos);
  EXPECT_EQ(json.find(": -inf"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JsonWriter edge cases (the writer backs the trace exporter, the run
// report, the flight export and the bench ledger — one bug corrupts all).
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object()
      .kv("nan", std::numeric_limits<double>::quiet_NaN())
      .kv("inf", std::numeric_limits<double>::infinity())
      .kv("ninf", -std::numeric_limits<double>::infinity())
      .kv("fine", 1.5)
      .end_object();
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).valid()) << json;
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ninf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"fine\": 1.5"), std::string::npos);
}

TEST(JsonWriterTest, ControlCharactersAndQuotesAreEscaped) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object()
      .kv(std::string_view("q\"b\\s\nn\tt\rr\x01u", 12), "v")
      .end_object();
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).valid()) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  // No raw control byte may survive into the output.
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(JsonWriterTest, DeepNestingStaysBalanced) {
  constexpr int kDepth = 64;
  std::ostringstream os;
  obs::JsonWriter w(os);
  for (int i = 0; i < kDepth; ++i) {
    w.begin_object().key("a");
  }
  w.begin_array().value(std::int64_t{1}).value(std::int64_t{2}).end_array();
  for (int i = 0; i < kDepth; ++i) {
    w.end_object();
  }
  EXPECT_TRUE(JsonParser(os.str()).valid()) << os.str().substr(0, 200);
}

TEST(JsonWriterTest, ZeroIndentPacksOneLine) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object()
      .key("arr")
      .begin_array()
      .value(std::int64_t{1})
      .value(true)
      .null()
      .end_array()
      .kv("s", "x")
      .end_object();
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).valid()) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST_F(ObsTest, FlightDisabledRecordsNothing) {
  EXPECT_FALSE(obs::flight_enabled());
  obs::flight("t", obs::FlightKind::kResidual, 1, 0.5);
  reference_solve();  // instrumented solver paths, recorder off
  EXPECT_EQ(obs::FlightRecorder::instance().size(), 0u);
  EXPECT_FALSE(obs::FlightRecorder::instance().post_mortem());
}

TEST_F(ObsTest, FlightRingOverwritesOldestKeepsTail) {
  auto& rec = obs::FlightRecorder::instance();
  rec.enable(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::flight("tail", obs::FlightKind::kResidual, i,
                static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first unroll of the ring: the post mortem keeps the tail of the
  // flight (iterations 12..19), not the takeoff.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].iteration, 12 + i);
  }
}

TEST_F(ObsTest, FlightSuppressedInsidePoolTasks) {
  obs::FlightRecorder::instance().enable(16);
  {
    obs::SuppressMetrics guard;
    EXPECT_FALSE(obs::flight_enabled());
    obs::flight("suppressed", obs::FlightKind::kResidual, 0, 0.0);
  }
  EXPECT_TRUE(obs::flight_enabled());
  EXPECT_EQ(obs::FlightRecorder::instance().size(), 0u);
}

TEST_F(ObsTest, FlightChromeTraceExportIsValidJson) {
  auto& rec = obs::FlightRecorder::instance();
  rec.enable(16);
  obs::flight("jacobi.residual", obs::FlightKind::kResidual, 100, 1e-7);
  obs::flight("batch.residual", obs::FlightKind::kResidual, 100, 2e-7,
              /*lane=*/3);
  obs::flight("bad", obs::FlightKind::kResidual, 101,
              std::numeric_limits<double>::quiet_NaN());
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("batch.residual[3]"), std::string::npos);
  EXPECT_EQ(json.find(": nan"), std::string::npos);
}

/// The acceptance scenario: a solve forced to stagnate (iteration cap far
/// below convergence) must leave a post-mortem flight section that is
/// bit-identical across thread budgets 1/2/8 — recorded from the calling
/// thread in program order, indexed by iteration, no timestamps.
TEST_F(ObsTest, ForcedStagnationPostMortemBitIdenticalAcrossThreads) {
  const auto solve_capped = [] {
    core::models::ToggleSwitchParams params;
    params.cap_a = params.cap_b = 12;
    const auto network = core::models::toggle_switch(params);
    const core::StateSpace space(
        network, core::models::toggle_switch_initial(params), 100'000);
    const auto a = core::rate_matrix(space);
    std::vector<real_t> p(static_cast<std::size_t>(a.nrows));
    solver::fill_uniform(p);
    solver::JacobiOptions opt;
    opt.eps = 1e-14;          // unreachable
    opt.max_iterations = 40;  // forced stop short of convergence
    opt.check_every = 10;
    const solver::CsrDiaOperator op(a);
    return solver::jacobi_solve(op, a.inf_norm(), p, opt);
  };

  std::uint64_t ref_signature = 0;
  std::string ref_trace;
  std::string ref_reason;
  std::size_t ref_events = 0;
  bool first = true;
  for (int threads : {1, 2, 8}) {
    reset_telemetry();
    ThreadBudget budget(threads);
    obs::FlightRecorder::instance().enable();
    const auto res = solve_capped();
    ASSERT_NE(res.reason, solver::StopReason::kConverged);
    auto& rec = obs::FlightRecorder::instance();
    EXPECT_TRUE(rec.post_mortem())
        << "unconverged solve must mark a post mortem";
    EXPECT_GT(rec.size(), 0u);
    std::ostringstream os;
    rec.write_chrome_trace(os);
    if (first) {
      ref_signature = rec.content_signature();
      ref_trace = os.str();
      ref_reason = rec.post_mortem_reason();
      ref_events = rec.size();
      first = false;
      continue;
    }
    EXPECT_EQ(rec.content_signature(), ref_signature)
        << "flight stream diverged at " << threads << " threads";
    EXPECT_EQ(os.str(), ref_trace)
        << "flight export diverged at " << threads << " threads";
    EXPECT_EQ(rec.post_mortem_reason(), ref_reason);
    EXPECT_EQ(rec.size(), ref_events);
  }
}

/// The /2 run report embeds the flight section when the recorder holds a
/// buffer, and the whole document stays strict JSON.
TEST_F(ObsTest, ReportEmbedsFlightSection) {
  obs::set_metrics_enabled(true);
  obs::FlightRecorder::instance().enable(32);
  obs::flight("jacobi.residual", obs::FlightKind::kResidual, 10, 1e-3);
  obs::FlightRecorder::instance().mark_post_mortem("test: forced");

  std::ostringstream os;
  obs::write_report(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).valid()) << json.substr(0, 400);
  for (const char* key : {"\"flight\"", "\"post_mortem\": \"test: forced\"",
                          "\"signature\"", "\"events\"", "\"capacity\": 32",
                          "\"kind\": \"residual\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// The ledger of a program that never calls flush_outputs() is written by the
// exit-time flush CMESOLVE_BENCH arms at startup. A metric registry first
// built after that flush was registered is destroyed before it runs; the
// re-executed child below records its first metric only after startup.
TEST(ObsExitFlushDeathTest, LedgerWrittenAtExitIsValid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "cmesolve_exit_flush.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("CMESOLVE_BENCH", path.c_str(), 1), 0);
  EXPECT_EXIT(
      {
        obs::count("exit_flush.probe", 3);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  unsetenv("CMESOLVE_BENCH");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream text;
  text << in.rdbuf();
  const verify::JsonValue ledger = verify::parse_json(text.str());
  const verify::JsonValue* det = ledger.find("deterministic");
  ASSERT_NE(det, nullptr);
  const verify::JsonValue* probe = det->find("exit_flush.probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->number, 3.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmesolve
