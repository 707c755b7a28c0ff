// Tests for the CME-as-a-service subsystem (src/serve/): exact result
// cache, request-only determinism, admission/priority scheduling, strict
// environment parsing — plus the regression tests for the request-path
// bugfix sweep (transient truncation accounting, hardened JSON reader,
// warm_restart fallback).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "serve/cache.hpp"
#include "serve/controller.hpp"
#include "serve/workload.hpp"
#include "solver/transient.hpp"
#include "solver/vector_ops.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "solver/operators.hpp"
#include "util/parallel.hpp"
#include "verify/json_reader.hpp"
#include "verify/repro_io.hpp"

namespace cmesolve::serve {
namespace {

bool bitwise_equal(std::span<const real_t> a, std::span<const real_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

/// Tiny birth-death chain: 41 states, solves in milliseconds.
verify::Scenario birth_death(real_t birth, real_t death) {
  verify::Scenario sc;
  sc.name = "bd";
  sc.archetype = "serve-test";
  sc.species.push_back({"X", 40});
  verify::ScenarioReaction b;
  b.name = "birth";
  b.rate = birth;
  b.changes.push_back({0, +1});
  sc.reactions.push_back(b);
  verify::ScenarioReaction d;
  d.name = "death";
  d.rate = death;
  d.reactants.push_back({0, 1});
  d.changes.push_back({0, -1});
  sc.reactions.push_back(d);
  sc.initial = {0};
  return sc;
}

/// Small phage lambda, sized for a unit test.
verify::Scenario small_phage() {
  core::models::PhageLambdaParams p;
  p.cap_ci = p.cap_cro = 5;
  p.cap_ci2 = p.cap_cro2 = 2;
  return scenario_from_network("phage-small", core::models::phage_lambda(p),
                               core::models::phage_lambda_initial(p), 200'000,
                               /*damping=*/0.95);
}

// ---------------------------------------------------------------------------
// Exact cache
// ---------------------------------------------------------------------------

TEST(ServeCache, LruEvictsOldestAndCountsIt) {
  ResultCache cache(2);
  cache.insert("k1", {1.0}, 0.0);
  cache.insert("k2", {1.0}, 0.0);
  ASSERT_NE(cache.find_exact("k1"), nullptr);  // bump k1; k2 is now oldest
  cache.insert("k3", {1.0}, 0.0);
  EXPECT_EQ(cache.find_exact("k2"), nullptr);
  EXPECT_NE(cache.find_exact("k1"), nullptr);
  EXPECT_NE(cache.find_exact("k3"), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

// ---------------------------------------------------------------------------
// Daemon: cache hits, determinism, scheduling, environment
// ---------------------------------------------------------------------------

TEST(Serve, CacheHitIsBitwiseIdenticalToTheColdSolve) {
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  const std::string wire = verify::serialize_repro(birth_death(2.0, 1.0));

  SolveResponse cold = ctl.submit(wire).get();
  ASSERT_EQ(cold.status, Status::kOk);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.iterations, 0u);

  SolveResponse hit = ctl.submit(wire).get();
  ASSERT_EQ(hit.status, Status::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.iterations, 0u);
  EXPECT_TRUE(bitwise_equal(hit.p, cold.p));
  // A hit reports the residual its vector was solved to, not 0.
  EXPECT_GT(cold.residual, 0.0);
  EXPECT_EQ(hit.residual, cold.residual);
  EXPECT_EQ(hit.reason, cold.reason);

  // Whitespace-distinct wire bytes of the same scenario hit too: the key is
  // the canonical re-serialization, not the raw input.
  SolveResponse hit2 = ctl.submit("  " + wire + "\n ").get();
  ASSERT_EQ(hit2.status, Status::kOk);
  EXPECT_TRUE(hit2.cache_hit);

  const ServeStats s = ctl.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cold_solves, 1u);
}

TEST(Serve, ResponseDependsOnlyOnItsRequestBytes) {
  // A near miss of a cached request (2% on the CI synthesis rates, same
  // topology) must come back with the same bits whether or not its
  // neighbour was solved first: every miss starts from the uniform vector.
  const verify::Scenario base = small_phage();
  verify::Scenario variant = base;
  variant.name = "phage-small-up";
  for (auto& r : variant.reactions) {
    if (r.name == "synthCI_basal" || r.name == "synthCI_active") r.rate *= 1.02;
  }
  for (const int workers : {1, 2}) {
    ServeOptions opt;
    opt.workers = workers;
    Controller fresh(opt);
    const SolveResponse alone = fresh.submit(verify::Scenario(variant)).get();
    ASSERT_EQ(alone.status, Status::kOk);

    Controller ctl(opt);
    ASSERT_EQ(ctl.submit(verify::Scenario(base)).get().status, Status::kOk);
    const SolveResponse after = ctl.submit(verify::Scenario(variant)).get();
    ASSERT_EQ(after.status, Status::kOk);
    EXPECT_FALSE(after.cache_hit);
    EXPECT_TRUE(bitwise_equal(after.p, alone.p)) << "workers=" << workers;
    EXPECT_EQ(after.iterations, alone.iterations) << "workers=" << workers;
    EXPECT_EQ(after.residual, alone.residual) << "workers=" << workers;
  }
}

TEST(Serve, QueueFullShedsAndPriorityEvictsTheYoungestLowPriority) {
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.start_paused = true;  // park the worker: admission is deterministic
  Controller ctl(opt);
  const std::string wire = verify::serialize_repro(birth_death(2.0, 1.0));

  auto f1 = ctl.submit(wire, Priority::kNormal);
  auto f2 = ctl.submit(wire, Priority::kNormal);
  EXPECT_EQ(ctl.queue_depth(), 2u);

  // Queue full + no lower-priority victim => the incoming request sheds.
  SolveResponse shed = ctl.submit(wire, Priority::kNormal).get();
  EXPECT_EQ(shed.status, Status::kShed);
  EXPECT_EQ(shed.error, "queue full");

  // An interactive request evicts the YOUNGEST normal entry (f2), not f1.
  auto f3 = ctl.submit(wire, Priority::kInteractive);
  SolveResponse evicted = f2.get();
  EXPECT_EQ(evicted.status, Status::kShed);
  EXPECT_EQ(evicted.error, "evicted by a higher-priority request");
  EXPECT_EQ(ctl.queue_depth(), 2u);

  ctl.resume();
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f3.get().status, Status::kOk);

  const ServeStats s = ctl.stats();
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.queue_evicted, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Serve, MalformedWireRequestsAreInvalidNotQueued) {
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  SolveResponse bad = ctl.submit("{not json").get();
  EXPECT_EQ(bad.status, Status::kInvalid);
  EXPECT_NE(bad.error.find("json:"), std::string::npos);
  SolveResponse bad2 = ctl.submit("{\"schema\": \"nope/9\"}").get();
  EXPECT_EQ(bad2.status, Status::kInvalid);
  const ServeStats s = ctl.stats();
  EXPECT_EQ(s.invalid, 2u);
  EXPECT_EQ(s.submitted, 2u);
}

TEST(Serve, ResponsesAreBitIdenticalAcrossThreadBudgetsAndWorkerCounts) {
  // The InlineRegion contract: a solve inside the daemon takes the serial
  // path whatever CMESOLVE_THREADS resolves to, so responses are bitwise
  // stable across thread budgets AND worker-pool sizes.
  const std::string wire = verify::serialize_repro(birth_death(3.0, 1.25));
  std::vector<real_t> reference;
  for (const int threads : {1, 8}) {
    util::set_max_threads(threads);
    for (const int workers : {1, 4}) {
      ServeOptions opt;
      opt.workers = workers;
      Controller ctl(opt);
      SolveResponse r = ctl.submit(wire).get();
      ASSERT_EQ(r.status, Status::kOk);
      if (reference.empty()) {
        reference = r.p;
      } else {
        EXPECT_TRUE(bitwise_equal(r.p, reference))
            << "threads=" << threads << " workers=" << workers;
      }
    }
  }
  util::set_max_threads(0);
}

TEST(Serve, AbsorbingScenarioFailsWithTheSolverDiagnostic) {
  // Pure-death chain from X=40: state 0 is absorbing => zero diagonal.
  verify::Scenario sc = birth_death(2.0, 1.0);
  sc.reactions.erase(sc.reactions.begin());  // drop birth
  sc.initial = {40};
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  SolveResponse r = ctl.submit(verify::Scenario(sc)).get();
  EXPECT_EQ(r.status, Status::kFailed);
  EXPECT_NE(r.error.find("zero diagonal"), std::string::npos);
}

/// Sets an environment variable for one scope and restores the previous
/// value (or its absence) afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Serve, EnvironmentValuesParseStrictly) {
  const ServeOptions def;
  for (const char* bad : {"abc", "", "12abc", "-3", " 7", "+7", "1e3",
                          "99999999999999999999999"}) {
    ScopedEnv w("CMESOLVE_SERVE_WORKERS", bad);
    ScopedEnv q("CMESOLVE_SERVE_QUEUE_CAP", bad);
    ScopedEnv c("CMESOLVE_SERVE_CACHE_CAP", bad);
    const ServeOptions o = serve_options_from_env();
    EXPECT_EQ(o.workers, def.workers) << "value \"" << bad << '"';
    EXPECT_EQ(o.queue_capacity, def.queue_capacity) << "value \"" << bad << '"';
    EXPECT_EQ(o.cache_capacity, def.cache_capacity) << "value \"" << bad << '"';
  }
  {
    // A whole integer is taken as given; zero workers is not a pool, zero
    // capacities are legal (no queue slack, no cache). The worker count is
    // clamped to util::kMaxThreadCap only when a Controller starts.
    ScopedEnv w("CMESOLVE_SERVE_WORKERS", "0");
    ScopedEnv q("CMESOLVE_SERVE_QUEUE_CAP", "0");
    ScopedEnv c("CMESOLVE_SERVE_CACHE_CAP", "5");
    const ServeOptions o = serve_options_from_env();
    EXPECT_EQ(o.workers, def.workers);
    EXPECT_EQ(o.queue_capacity, 0u);
    EXPECT_EQ(o.cache_capacity, 5u);
  }
  {
    ScopedEnv w("CMESOLVE_SERVE_WORKERS", "3");
    EXPECT_EQ(serve_options_from_env().workers, 3);
  }
  {
    ScopedEnv w("CMESOLVE_SERVE_WORKERS", "100000");
    EXPECT_EQ(serve_options_from_env().workers, 100000);
  }
}

// ---------------------------------------------------------------------------
// Load harness
// ---------------------------------------------------------------------------

TEST(ServeLoad, ZipfTraceIsDeterministicAndSkewed) {
  const auto t1 = zipf_trace(16, 1.1, 500, 7);
  const auto t2 = zipf_trace(16, 1.1, 500, 7);
  EXPECT_EQ(t1, t2);
  std::vector<int> histo(16, 0);
  for (const std::size_t r : t1) {
    ASSERT_LT(r, 16u);
    ++histo[r];
  }
  // Rank 0 must dominate the tail rank under s=1.1.
  EXPECT_GT(histo[0], histo[15] * 2);
}

TEST(ServeLoad, ClosedLoopDeterministicModeServesEveryRequest) {
  ServeOptions sopt;
  sopt.workers = 1;
  Controller ctl(sopt);
  std::vector<SweepFamily> fams;
  fams.push_back(make_sweep_family(birth_death(2.0, 1.0), 6, 0.2, 11));
  LoadOptions lopt;
  lopt.requests = 40;
  lopt.clients = 1;
  lopt.think_seconds = 0.0;
  lopt.seed = 11;
  const LoadReport rep = run_closed_loop(ctl, fams, lopt);
  EXPECT_EQ(rep.requests, 40u);
  EXPECT_EQ(rep.ok, 40u);
  EXPECT_EQ(rep.shed + rep.failed + rep.invalid, 0u);
  // 6 variants, 40 Zipf-skewed requests: most are repeats.
  EXPECT_GT(rep.cache_hits, 20u);
  EXPECT_EQ(rep.cache_hits + rep.cold_solves, rep.ok);
  // The cache holds the whole pool, so each distinct variant is solved
  // exactly once and every other request is a hit.
  const auto trace = zipf_trace(6, lopt.zipf_s, lopt.requests, lopt.seed);
  EXPECT_EQ(rep.cold_solves,
            std::set<std::size_t>(trace.begin(), trace.end()).size());
}

// ---------------------------------------------------------------------------
// Bugfix regressions: transient truncation accounting
// ---------------------------------------------------------------------------

sparse::Csr two_state(real_t up, real_t down) {
  sparse::Coo c;
  c.nrows = c.ncols = 2;
  c.add(0, 0, -up);
  c.add(1, 0, up);
  c.add(0, 1, down);
  c.add(1, 1, -down);
  return sparse::csr_from_coo(std::move(c));
}

TEST(TransientRegression, EpsBelowTheMassFloorTerminatesViaTailExhaustion) {
  // The accumulated Poisson mass carries ~1e-12 of rounding error, so with
  // eps below the accumulation floor the `mass >= 1 - eps` test can never
  // fire. Before the fix this spun all the way to max_terms doing
  // zero-weight SpMVs and then reported the complete series as
  // truncated_early. (eps = 0 itself is rejected up front these days —
  // see Transient.OptionValidationThrowsCleanly — so the smallest positive
  // double stands in for it here.)
  const sparse::Csr a = two_state(2.0, 1.0);
  const solver::CsrOperator op(a);
  std::vector<real_t> p = {1.0, 0.0};
  solver::TransientOptions opt;
  opt.eps = 1e-300;
  opt.max_terms = 100'000;
  const auto res = solver::transient_solve(op, 5.0, std::span<real_t>(p), opt);
  EXPECT_TRUE(res.tail_exhausted);
  EXPECT_FALSE(res.truncated_early);
  // lambda*t ~ 10: the series is numerically complete within a few hundred
  // terms, nowhere near the cap.
  EXPECT_LT(res.matvecs, 1000u);
  EXPECT_NEAR(res.covered_mass, 1.0, 1e-9);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  // And the answer matches the analytic stationary limit at large t.
  EXPECT_NEAR(p[0], 1.0 / 3.0, 1e-6);
}

TEST(TransientRegression, PartialTruncationReportsCoveredMassAndRenormalizes) {
  const sparse::Csr a = two_state(2.0, 1.0);
  const solver::CsrOperator op(a);
  std::vector<real_t> p = {1.0, 0.0};
  solver::TransientOptions opt;
  opt.max_terms = 30;  // Poisson mean ~60: cut mid-bulk
  const auto res = solver::transient_solve(op, 20.0, std::span<real_t>(p), opt);
  EXPECT_TRUE(res.truncated_early);
  EXPECT_FALSE(res.tail_exhausted);
  EXPECT_GT(res.covered_mass, 0.0);
  EXPECT_LT(res.covered_mass, 0.9);
  // The truncated series is renormalized by the covered mass: still a
  // proper distribution.
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(TransientRegression, HeadUnderflowBeforeTheBulkLeavesPUntouched) {
  // max_terms far below the Poisson mean: every computed weight underflows
  // (log w_k ~ -m at small k), covered mass is exactly 0, and p must come
  // back unchanged — NOT renormalized garbage, and NOT tail_exhausted
  // (the guard requires k past the mean so a zero HEAD weight cannot end
  // the series).
  const sparse::Csr a = two_state(2.0, 1.0);
  const solver::CsrOperator op(a);
  std::vector<real_t> p = {0.25, 0.75};
  solver::TransientOptions opt;
  opt.max_terms = 5;  // mean lambda*t ~ 2000
  const auto res =
      solver::transient_solve(op, 700.0, std::span<real_t>(p), opt);
  EXPECT_TRUE(res.truncated_early);
  EXPECT_FALSE(res.tail_exhausted);
  EXPECT_EQ(res.covered_mass, 0.0);
  EXPECT_EQ(p[0], 0.25);
  EXPECT_EQ(p[1], 0.75);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: hardened JSON reader / wire limits
// ---------------------------------------------------------------------------

TEST(JsonRegression, NestingBombIsRejectedNotAStackOverflow) {
  // 5000 unbalanced '[' used to recurse 5000 frames deep; the default cap
  // (256) now rejects it with a diagnostic.
  const std::string bomb(5000, '[');
  try {
    (void)verify::parse_json(bomb);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos);
  }
}

TEST(JsonRegression, WireLimitsCapDepthAtTwentyFour) {
  std::string deep;
  for (int i = 0; i < 30; ++i) deep += "[";
  for (int i = 0; i < 30; ++i) deep += "]";
  EXPECT_NO_THROW((void)verify::parse_json(deep));  // default cap: fine
  EXPECT_THROW((void)verify::parse_json(deep, verify::kWireJsonLimits),
               std::runtime_error);
}

TEST(JsonRegression, DuplicateKeysRejectedOnTheWirePreservedByDefault) {
  const std::string doc = R"({"rate": 1, "rate": 1e9})";
  // Default parser preserves duplicates — the report schema oracle counts
  // them itself.
  const verify::JsonValue v = verify::parse_json(doc);
  EXPECT_EQ(v.count("rate"), 2u);
  // Wire traffic rejects them: {"rate":1,"rate":1e9} would otherwise bind
  // the first and silently drop the second.
  verify::JsonLimits lim;
  lim.reject_duplicate_keys = true;
  try {
    (void)verify::parse_json(doc, lim);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key \"rate\""),
              std::string::npos);
  }
}

TEST(JsonRegression, ParseErrorsCarryLineAndColumn) {
  const std::string doc = "{\n  \"a\": 1,\n  \"b\": oops\n}";
  try {
    (void)verify::parse_json(doc);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column"), std::string::npos) << msg;
  }
}

TEST(JsonRegression, TrailingGarbageIsRejected) {
  EXPECT_THROW((void)verify::parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)verify::parse_json("[1,2,3] 4"), std::runtime_error);
  EXPECT_NO_THROW((void)verify::parse_json("{}  \n"));
}

TEST(JsonRegression, SizeCapBoundsUntrustedInput) {
  verify::JsonLimits lim;
  lim.max_bytes = 16;
  EXPECT_NO_THROW((void)verify::parse_json("[1, 2, 3]", lim));
  try {
    (void)verify::parse_json("[1, 2, 3, 4, 5, 6]", lim);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the 16-byte limit"),
              std::string::npos);
  }
}

TEST(JsonRegression, ParseReproEnforcesWireLimitsEndToEnd) {
  // A canonical document round-trips fine...
  const std::string good = verify::serialize_repro(birth_death(2.0, 1.0));
  EXPECT_NO_THROW((void)verify::parse_repro(good));
  // ...a duplicated top-level key does not.
  std::string dup = good;
  const std::string needle = "\"seed\": 0,";
  const auto pos = dup.find(needle);
  ASSERT_NE(pos, std::string::npos);
  dup.insert(pos, "\"seed\": 7,\n  ");
  EXPECT_THROW((void)verify::parse_repro(dup), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: warm_restart fallback instead of size-mismatch UB
// ---------------------------------------------------------------------------

TEST(WarmRestartRegression, ValidRemapStillScattersAndNormalizes) {
  const std::vector<real_t> prev = {0.2, 0.6, 0.2};
  const std::vector<index_t> remap = {0, 2, -1};  // state 1 -> 2, last pruned
  std::vector<real_t> out(4, -1.0);
  EXPECT_TRUE(solver::warm_restart(prev, remap, out));
  EXPECT_NEAR(out[0], 0.25, 1e-15);
  EXPECT_NEAR(out[1], 0.0, 1e-15);
  EXPECT_NEAR(out[2], 0.75, 1e-15);
  EXPECT_NEAR(out[3], 0.0, 1e-15);
}

TEST(WarmRestartRegression, LengthMismatchFallsBackToUniform) {
  // A cached vector from a different FSP round (pruned/expanded set): the
  // remap no longer matches. Before the fix this was an assert in debug
  // builds and out-of-bounds UB in release.
  const std::vector<real_t> prev = {0.5, 0.5};
  const std::vector<index_t> remap = {0, 1, 2};  // stale: 3 entries
  std::vector<real_t> out(4, -1.0);
  EXPECT_FALSE(solver::warm_restart(prev, remap, out));
  for (const real_t v : out) EXPECT_EQ(v, 0.25);
}

TEST(WarmRestartRegression, OutOfRangeTargetFallsBackToUniform) {
  const std::vector<real_t> prev = {0.5, 0.5};
  const std::vector<index_t> remap = {0, 7};  // 7 is outside out
  std::vector<real_t> out(3, -1.0);
  EXPECT_FALSE(solver::warm_restart(prev, remap, out));
  for (const real_t v : out) EXPECT_NEAR(v, 1.0 / 3.0, 1e-15);
}

TEST(WarmRestartRegression, AllMassDroppedFallsBackToUniform) {
  // Every surviving entry pruned: the scatter carries zero probability and
  // a normalize would be a silent no-op on the zero vector.
  const std::vector<real_t> prev = {0.5, 0.5};
  const std::vector<index_t> remap = {-1, -1};
  std::vector<real_t> out(5, 0.0);
  EXPECT_FALSE(solver::warm_restart(prev, remap, out));
  for (const real_t v : out) EXPECT_EQ(v, 0.2);
}

}  // namespace
}  // namespace cmesolve::serve
