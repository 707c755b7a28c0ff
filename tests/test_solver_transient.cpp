// Tests for the transient CME engines: uniformization (two-sided Poisson
// window, interval splitting) and the Krylov expm(tA)v propagator, plus
// their FSP front end and flight-recorder wiring.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "fsp/fsp.hpp"
#include "obs/flight_recorder.hpp"
#include "solver/jacobi.hpp"
#include "solver/krylov_expm.hpp"
#include "solver/operators.hpp"
#include "solver/transient.hpp"
#include "solver/vector_ops.hpp"
#include "verify/scenario.hpp"

namespace cmesolve::solver {
namespace {

sparse::Csr two_state(real_t up, real_t down) {
  sparse::Coo c;
  c.nrows = c.ncols = 2;
  c.add(0, 0, -up);
  c.add(1, 0, up);
  c.add(0, 1, down);
  c.add(1, 1, -down);
  return sparse::csr_from_coo(std::move(c));
}

/// Closed-form column-0 of exp(At) for the two-state chain: relaxation to
/// pi at rate (up + down).
void two_state_reference(real_t up, real_t down, real_t t, real_t& p0,
                         real_t& p1) {
  const real_t pi0 = down / (up + down);
  const real_t decay = std::exp(-(up + down) * t);
  p0 = pi0 + (1.0 - pi0) * decay;
  p1 = 1.0 - p0;
}

real_t l1_diff(std::span<const real_t> a, std::span<const real_t> b) {
  real_t sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

/// Immigration-death fixture: birth at `lambda`, unit death, buffer 40 —
/// big enough that the truncation never matters at the horizons used here.
struct ImmigrationDeath {
  core::ReactionNetwork net;
  explicit ImmigrationDeath(real_t lambda = 4.0) {
    const int x = net.add_species("X", 40);
    net.add_reaction("birth", lambda, {}, {{x, +1}});
    net.add_reaction("death", 1.0, {{x, 1}}, {{x, -1}});
  }
};

TEST(Transient, TwoStateAnalyticSolution) {
  // p1(t) = pi1 + (p1(0) - pi1) e^{-(a+b) t}.
  const real_t up = 2.0;
  const real_t down = 3.0;
  const auto a = two_state(up, down);
  CsrOperator op(a);

  for (const real_t t : {0.0, 0.1, 0.5, 1.0, 3.0}) {
    std::vector<real_t> p{1.0, 0.0};
    const auto r = transient_solve(op, t, p);
    EXPECT_FALSE(r.truncated_early);
    real_t e0 = 0.0;
    real_t e1 = 0.0;
    two_state_reference(up, down, t, e0, e1);
    EXPECT_NEAR(p[0], e0, 1e-10) << "t=" << t;
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  }
}

TEST(Transient, TimeZeroIsIdentity) {
  const auto a = two_state(1.0, 1.0);
  CsrOperator op(a);
  std::vector<real_t> p{0.3, 0.7};
  const auto r = transient_solve(op, 0.0, p);
  EXPECT_EQ(r.matvecs, 0u);
  EXPECT_DOUBLE_EQ(p[0], 0.3);
  EXPECT_DOUBLE_EQ(p[1], 0.7);
}

TEST(Transient, NegativeTimeRejected) {
  const auto a = two_state(1.0, 1.0);
  CsrOperator op(a);
  std::vector<real_t> p{0.5, 0.5};
  EXPECT_THROW((void)transient_solve(op, -1.0, p), std::invalid_argument);
}

// Degenerate options must be rejected up front (std::invalid_argument, no
// partial progress): eps == 0 could never satisfy `mass >= 1 - eps` through
// rounding, and lambda_margin < 1 makes B = I + A/lambda non-stochastic.
TEST(Transient, OptionValidationThrowsCleanly) {
  const auto a = two_state(1.0, 1.0);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};

  TransientOptions opt;
  opt.eps = 0.0;
  EXPECT_THROW((void)transient_solve(op, 1.0, p, opt), std::invalid_argument);
  opt.eps = -1e-6;
  EXPECT_THROW((void)transient_solve(op, 1.0, p, opt), std::invalid_argument);
  opt.eps = 1.0;
  EXPECT_THROW((void)transient_solve(op, 1.0, p, opt), std::invalid_argument);

  opt = TransientOptions{};
  opt.lambda_margin = 0.99;
  EXPECT_THROW((void)transient_solve(op, 1.0, p, opt), std::invalid_argument);

  opt = TransientOptions{};
  opt.max_step_mean = 0.0;
  EXPECT_THROW((void)transient_solve(op, 1.0, p, opt), std::invalid_argument);

  // Validation happens before any propagation: p is untouched.
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
}

// The explicit mass ledger: for a completed single-step solve the covered
// Poisson window plus both computed tails is the whole series, and the raw
// (unrenormalized) vector matches the closed-form exp(At) column.
TEST(Transient, MassAccountingClosesToOneOnTwoStateChain) {
  const real_t up = 2.0;
  const real_t down = 1.0;
  const auto a = two_state(up, down);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};
  TransientOptions opt;
  opt.renormalize = false;  // keep the raw window mass visible in p
  const real_t t = 0.7;
  const auto r = transient_solve(op, t, p, opt);

  EXPECT_FALSE(r.truncated_early);
  EXPECT_EQ(r.steps, 1u);
  EXPECT_GT(r.covered_mass, 0.999);
  EXPECT_NEAR(r.covered_mass + r.truncated_mass, 1.0, 1e-15);

  real_t e0 = 0.0;
  real_t e1 = 0.0;
  two_state_reference(up, down, t, e0, e1);
  EXPECT_NEAR(p[0], e0, 1e-11);
  EXPECT_NEAR(p[1], e1, 1e-11);
}

// Large Poisson mean: the left tail must actually be trimmed (no axpy for
// the head terms) without costing accuracy.
TEST(Transient, LeftTailTrimSkipsHeadTerms) {
  const auto a = two_state(50.0, 50.0);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};
  const auto r = transient_solve(op, 10.0, p);  // mean = 1.01 * 100 * 10
  EXPECT_EQ(r.steps, 1u);
  EXPECT_FALSE(r.truncated_early);
  EXPECT_GT(r.left_skipped, 0u);
  EXPECT_NEAR(p[0], 0.5, 1e-10);  // fully relaxed by t = 10
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(Transient, IntervalSplittingMatchesSingleStep) {
  ImmigrationDeath model;
  const core::StateSpace space(model.net, core::State{0}, 1000);
  const auto a = core::rate_matrix(space);
  CsrOperator op(a);
  const std::size_t n = static_cast<std::size_t>(a.nrows);

  std::vector<real_t> single(n, 0.0);
  single[0] = 1.0;
  const auto rs = transient_solve(op, 2.0, single);
  EXPECT_EQ(rs.steps, 1u);

  std::vector<real_t> split(n, 0.0);
  split[0] = 1.0;
  TransientOptions opt;
  opt.max_step_mean = 8.0;  // force many sub-steps for the same horizon
  const auto rm = transient_solve(op, 2.0, split, opt);
  EXPECT_GT(rm.steps, 1u);
  EXPECT_FALSE(rm.truncated_early);
  EXPECT_LE(l1_diff(single, split), 1e-10);
}

TEST(Transient, ImmigrationDeathMeanMatchesOde) {
  // d E[X]/dt = lambda - mu E[X]  =>  E[X](t) = (lambda/mu)(1 - e^{-mu t})
  // starting from X = 0 (buffer large enough that truncation is invisible).
  const real_t lambda = 4.0;
  ImmigrationDeath model(lambda);
  const core::StateSpace space(model.net, core::State{0}, 1000);
  const auto a = core::rate_matrix(space);
  CsrOperator op(a);

  for (const real_t t : {0.25, 1.0, 2.5}) {
    std::vector<real_t> p(static_cast<std::size_t>(a.nrows), 0.0);
    p[0] = 1.0;  // start empty
    (void)transient_solve(op, t, p);
    real_t mean = 0.0;
    for (index_t i = 0; i < a.nrows; ++i) mean += p[i] * i;
    const real_t expect = lambda * (1.0 - std::exp(-t));
    EXPECT_NEAR(mean, expect, 1e-6) << "t=" << t;
  }
}

TEST(Transient, LongHorizonReachesSteadyState) {
  core::models::ToggleSwitchParams tp;
  tp.cap_a = tp.cap_b = 8;
  const auto net = core::models::toggle_switch(tp);
  const core::StateSpace space(net, core::models::toggle_switch_initial(tp),
                               100000);
  const auto a = core::rate_matrix(space);
  CsrOperator op(a);

  std::vector<real_t> steady(static_cast<std::size_t>(a.nrows));
  fill_uniform(steady);
  JacobiOptions jopt;
  jopt.eps = 1e-11;
  (void)jacobi_solve(op, a.inf_norm(), steady, jopt);

  std::vector<real_t> p(static_cast<std::size_t>(a.nrows), 0.0);
  p[0] = 1.0;
  (void)transient_solve(op, 200.0, p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(p[i], steady[i], 1e-6);
  }
}

// t -> inf in L1: on the immigration-death chain the spectral gap is
// exactly mu = 1, so by t = 40 the transient term is e^-40 and both engines
// must land on the stationary Jacobi solve to solver precision.
TEST(Transient, StationaryLimitMatchesJacobiInL1) {
  ImmigrationDeath model;
  const core::StateSpace space(model.net, core::State{0}, 1000);
  const auto a = core::rate_matrix(space);
  CsrOperator op(a);
  const std::size_t n = static_cast<std::size_t>(a.nrows);

  std::vector<real_t> steady(n);
  fill_uniform(steady);
  JacobiOptions jopt;
  jopt.eps = 1e-11;
  jopt.damping = 0.9;  // plain Jacobi oscillates on the bipartite-ish chain
  const auto jr = jacobi_solve(op, a.inf_norm(), steady, jopt);
  ASSERT_EQ(jr.reason, StopReason::kConverged);

  std::vector<real_t> pu(n, 0.0);
  pu[0] = 1.0;
  (void)transient_solve(op, 40.0, pu);
  EXPECT_LE(l1_diff(pu, steady), 1e-8);

  std::vector<real_t> pk(n, 0.0);
  pk[0] = 1.0;
  KrylovExpmOptions kopt;
  kopt.tol = 1e-13;
  (void)krylov_expm_solve(op, 40.0, pk, kopt);
  EXPECT_LE(l1_diff(pk, steady), 1e-8);
}

TEST(Transient, ProbabilityVectorInvariantAtAllTimes) {
  core::models::BrusselatorParams bp;
  bp.cap_x = 15;
  bp.cap_y = 8;
  const auto net = core::models::brusselator(bp);
  const core::StateSpace space(net, core::models::brusselator_initial(bp),
                               100000);
  const auto a = core::rate_matrix(space);
  CsrDiaOperator op(a);

  std::vector<real_t> p(static_cast<std::size_t>(a.nrows), 0.0);
  p[0] = 1.0;
  for (const real_t dt : {0.01, 0.1, 1.0}) {
    (void)transient_solve(op, dt, p);  // chained propagation
    real_t sum = 0.0;
    real_t minimum = 1.0;
    for (real_t v : p) {
      sum += v;
      minimum = std::min(minimum, v);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GE(minimum, -1e-15);
  }
}

TEST(Transient, SemigroupProperty) {
  // Propagating by t then s equals propagating by t + s.
  const auto a = two_state(1.3, 0.7);
  CsrOperator op(a);
  std::vector<real_t> p1{1.0, 0.0};
  (void)transient_solve(op, 0.4, p1);
  (void)transient_solve(op, 0.6, p1);
  std::vector<real_t> p2{1.0, 0.0};
  (void)transient_solve(op, 1.0, p2);
  EXPECT_NEAR(p1[0], p2[0], 1e-10);
  EXPECT_NEAR(p1[1], p2[1], 1e-10);
}

TEST(Transient, SeriesLengthGrowsWithHorizon) {
  const auto a = two_state(5.0, 5.0);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};
  const auto short_run = transient_solve(op, 0.1, p);
  p = {1.0, 0.0};
  const auto long_run = transient_solve(op, 10.0, p);
  EXPECT_GT(long_run.matvecs, short_run.matvecs);
}

TEST(Transient, MaxTermsCapRespected) {
  const auto a = two_state(100.0, 100.0);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};
  TransientOptions opt;
  opt.max_terms = 5;  // far too few for lambda*t ~ 2000
  const auto r = transient_solve(op, 10.0, p, opt);
  EXPECT_TRUE(r.truncated_early);
  EXPECT_LE(r.matvecs, 5u);
}

// --- Krylov expm ------------------------------------------------------------

TEST(KrylovExpm, TwoStateAnalyticSolution) {
  const real_t up = 2.0;
  const real_t down = 3.0;
  const auto a = two_state(up, down);
  CsrOperator op(a);
  for (const real_t t : {0.0, 0.1, 0.5, 1.0, 3.0}) {
    std::vector<real_t> p{1.0, 0.0};
    const auto r = krylov_expm_solve(op, t, p);
    EXPECT_FALSE(r.truncated_early);
    real_t e0 = 0.0;
    real_t e1 = 0.0;
    two_state_reference(up, down, t, e0, e1);
    EXPECT_NEAR(p[0], e0, 1e-10) << "t=" << t;
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  }
}

TEST(KrylovExpm, ValidationThrowsCleanly) {
  const auto a = two_state(1.0, 1.0);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};
  EXPECT_THROW((void)krylov_expm_solve(op, -1.0, p), std::invalid_argument);
  KrylovExpmOptions opt;
  opt.krylov_dim = 0;
  EXPECT_THROW((void)krylov_expm_solve(op, 1.0, p, opt),
               std::invalid_argument);
  opt = KrylovExpmOptions{};
  opt.tol = 0.0;
  EXPECT_THROW((void)krylov_expm_solve(op, 1.0, p, opt),
               std::invalid_argument);
}

// n < krylov_dim: the Arnoldi basis spans the whole space, the recursion
// hits an invariant subspace and the single step is exact (no sub-stepping,
// zero error estimate).
TEST(KrylovExpm, HappyBreakdownExactOnTinyChain) {
  const real_t up = 1.3;
  const real_t down = 0.7;
  const auto a = two_state(up, down);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};
  const auto r = krylov_expm_solve(op, 5.0, p);
  EXPECT_TRUE(r.happy_breakdown);
  EXPECT_EQ(r.steps, 1u);
  EXPECT_EQ(r.rejections, 0u);
  EXPECT_DOUBLE_EQ(r.error_estimate, 0.0);
  real_t e0 = 0.0;
  real_t e1 = 0.0;
  two_state_reference(up, down, 5.0, e0, e1);
  EXPECT_NEAR(p[0], e0, 1e-12);
  EXPECT_NEAR(p[1], e1, 1e-12);
}

TEST(KrylovExpm, SemigroupProperty) {
  ImmigrationDeath model;
  const core::StateSpace space(model.net, core::State{0}, 1000);
  const auto a = core::rate_matrix(space);
  CsrOperator op(a);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  KrylovExpmOptions opt;
  opt.tol = 1e-13;

  std::vector<real_t> chained(n, 0.0);
  chained[0] = 1.0;
  (void)krylov_expm_solve(op, 0.8, chained, opt);
  (void)krylov_expm_solve(op, 1.2, chained, opt);
  std::vector<real_t> direct(n, 0.0);
  direct[0] = 1.0;
  (void)krylov_expm_solve(op, 2.0, direct, opt);
  EXPECT_LE(l1_diff(chained, direct), 1e-10);
}

// The core property-suite gate: both transient engines agree in L1 to
// 1e-10 across the fuzzer's adversarial scenario families.
TEST(KrylovExpm, MatchesUniformizationOnScenarioFamilies) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto sc = verify::random_scenario(seed);
    const auto net = verify::build_network(sc);
    const core::StateSpace space(net, sc.initial, sc.max_states);
    const auto a = core::rate_matrix(space);
    if (a.nrows < 2 || a.nrows > 400) continue;
    CsrOperator op(a);
    real_t dmax = 0.0;
    for (const real_t d : op.diag()) dmax = std::max(dmax, std::abs(d));
    if (dmax <= 0.0) continue;
    const std::size_t n = static_cast<std::size_t>(a.nrows);
    const index_t root = space.find(sc.initial);
    ASSERT_GE(root, 0);
    // Two horizons per scenario, scaled to the fastest rate so lambda*t is
    // bounded regardless of the family's rate spread.
    for (const real_t c : {0.5, 4.0}) {
      const real_t t = c / dmax;
      std::vector<real_t> pu(n, 0.0);
      pu[static_cast<std::size_t>(root)] = 1.0;
      const auto ru = transient_solve(op, t, pu);
      ASSERT_FALSE(ru.truncated_early) << sc.name;

      std::vector<real_t> pk(n, 0.0);
      pk[static_cast<std::size_t>(root)] = 1.0;
      KrylovExpmOptions kopt;
      kopt.tol = 1e-13;
      const auto rk = krylov_expm_solve(op, t, pk, kopt);
      ASSERT_FALSE(rk.truncated_early) << sc.name;

      EXPECT_LE(l1_diff(pu, pk), 1e-10) << sc.name << " t=" << t;
      ++compared;
    }
  }
  EXPECT_GE(compared, 4u);  // the seed range must exercise real scenarios
}

// Flag semantics: a matvec-budget cut reports truncated_early (horizon
// incomplete, p == P(t_done) for t_done < t) WITHOUT tol_not_met — the
// steps that did run all met their local budgets.
TEST(KrylovExpm, MatvecBudgetSetsTruncatedEarlyOnly) {
  ImmigrationDeath model;
  const core::StateSpace space(model.net, core::State{0}, 1000);
  const auto a = core::rate_matrix(space);
  CsrOperator op(a);
  std::vector<real_t> p(static_cast<std::size_t>(a.nrows), 0.0);
  p[0] = 1.0;
  KrylovExpmOptions opt;
  opt.max_matvecs = 10;  // less than one full Arnoldi sweep
  const auto r = krylov_expm_solve(op, 50.0, p, opt);
  EXPECT_TRUE(r.truncated_early);
  EXPECT_FALSE(r.tol_not_met);
}

// --- dense expm -------------------------------------------------------------

// Scaling regression: for inf-norm in (0.5, 1] the argument must still be
// halved at least once, or the raw Pade(6,6) error (~1.5e-13 at 0.99)
// exceeds the 1e-13 the transient oracle asks of the propagator.
TEST(DenseExpm, ScalesNormBetweenHalfAndOne) {
  const std::vector<real_t> m{0.99};
  std::vector<real_t> out(1, 0.0);
  dense_expm(m, 1, out);
  EXPECT_NEAR(out[0], std::exp(0.99), 1e-14);
}

TEST(DenseExpm, NilpotentAndDiagonalCases) {
  // Nilpotent: exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly.
  const std::vector<real_t> nilpotent{0.0, 1.0, 0.0, 0.0};
  std::vector<real_t> out(4, 0.0);
  dense_expm(nilpotent, 2, out);
  EXPECT_NEAR(out[0], 1.0, 1e-14);
  EXPECT_NEAR(out[1], 1.0, 1e-14);
  EXPECT_NEAR(out[2], 0.0, 1e-14);
  EXPECT_NEAR(out[3], 1.0, 1e-14);

  // Diagonal: exp(diag(a, b)) = diag(e^a, e^b); norm > 0.5 exercises the
  // scaling-and-squaring branch.
  const std::vector<real_t> diag{2.0, 0.0, 0.0, -3.0};
  dense_expm(diag, 2, out);
  EXPECT_NEAR(out[0], std::exp(2.0), 1e-12 * std::exp(2.0));
  EXPECT_NEAR(out[1], 0.0, 1e-14);
  EXPECT_NEAR(out[2], 0.0, 1e-14);
  EXPECT_NEAR(out[3], std::exp(-3.0), 1e-14);
}

TEST(DenseExpm, MatchesTwoStateGenerator) {
  const real_t up = 2.0;
  const real_t down = 1.0;
  const real_t t = 1.7;
  // Row-major t * A for the two-state chain.
  const std::vector<real_t> m{-up * t, down * t, up * t, -down * t};
  std::vector<real_t> out(4, 0.0);
  dense_expm(m, 2, out);
  real_t e0 = 0.0;
  real_t e1 = 0.0;
  two_state_reference(up, down, t, e0, e1);
  EXPECT_NEAR(out[0], e0, 1e-13);  // column 0 = exp(tA) e_0
  EXPECT_NEAR(out[2], e1, 1e-13);
  // Columns of exp(tA) sum to one (generator columns sum to zero).
  EXPECT_NEAR(out[0] + out[2], 1.0, 1e-13);
  EXPECT_NEAR(out[1] + out[3], 1.0, 1e-13);
}

// --- flight recorder --------------------------------------------------------

TEST(TransientFlight, StepAndStopEventsRecorded) {
  auto& rec = obs::FlightRecorder::instance();
  rec.enable();
  const auto a = two_state(3.0, 1.0);
  CsrOperator op(a);
  std::vector<real_t> p{1.0, 0.0};
  TransientOptions opt;
  opt.max_step_mean = 2.0;  // force multiple sub-steps -> multiple events
  (void)transient_solve(op, 4.0, p, opt);
  std::vector<real_t> pk{1.0, 0.0};
  (void)krylov_expm_solve(op, 4.0, pk);

  std::size_t transient_steps = 0;
  std::size_t krylov_steps = 0;
  std::size_t transient_stops = 0;
  std::size_t krylov_stops = 0;
  for (const auto& e : rec.events()) {
    if (e.kind == obs::FlightKind::kTransientStep) ++transient_steps;
    if (e.kind == obs::FlightKind::kKrylovStep) ++krylov_steps;
    if (e.kind == obs::FlightKind::kStop) {
      if (std::strcmp(e.track, "transient.stop") == 0) ++transient_stops;
      if (std::strcmp(e.track, "krylov.stop") == 0) ++krylov_stops;
    }
  }
  rec.disable();
  EXPECT_GT(transient_steps, 1u);
  EXPECT_GE(krylov_steps, 1u);
  EXPECT_EQ(transient_stops, 1u);
  EXPECT_EQ(krylov_stops, 1u);
}

// --- FSP transient front end ------------------------------------------------

TEST(FspTransient, ConvergesAndMatchesFullSpaceReference) {
  ImmigrationDeath model;
  const std::vector<real_t> grid{0.5, 1.5};

  fsp::TransientFspOptions fopt;
  fopt.tol = 1e-8;
  fopt.seed_states = 4;  // force the expansion loop to do real work
  const auto res = fsp::solve_transient(model.net, core::State{0}, grid, fopt);

  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.error_bound, 1e-8);
  ASSERT_EQ(res.marginals.size(), grid.size());
  ASSERT_EQ(res.sink_mass.size(), grid.size());
  EXPECT_GE(res.rounds.size(), 1u);
  // Sink mass is monotone in t on the final truncation (mass only leaks).
  EXPECT_LE(res.sink_mass[0], res.sink_mass[1] + 1e-15);

  // Full-buffer reference at the final grid point.
  const core::StateSpace full(model.net, core::State{0}, 1000);
  const auto a = core::rate_matrix(full);
  CsrOperator op(a);
  std::vector<real_t> p_ref(static_cast<std::size_t>(a.nrows), 0.0);
  p_ref[static_cast<std::size_t>(full.find(core::State{0}))] = 1.0;
  (void)transient_solve(op, grid.back(), p_ref);

  // Member-by-member diff; reference mass on states the FSP never added
  // counts in full (it is bounded by the sink mass).
  std::vector<char> seen(p_ref.size(), 0);
  real_t l1 = 0.0;
  for (index_t i = 0; i < res.space.size(); ++i) {
    const index_t j = full.find(res.space.state(i));
    ASSERT_GE(j, 0);
    seen[static_cast<std::size_t>(j)] = 1;
    l1 += std::abs(res.marginals.back()[static_cast<std::size_t>(i)] -
                   p_ref[static_cast<std::size_t>(j)]);
  }
  for (std::size_t j = 0; j < p_ref.size(); ++j) {
    if (!seen[j]) l1 += p_ref[j];
  }
  EXPECT_LE(l1, 1e-7);
}

TEST(FspTransient, KrylovEngineMatchesUniformization) {
  ImmigrationDeath model;
  const std::vector<real_t> grid{0.5, 1.5};

  fsp::TransientFspOptions uopt;
  uopt.seed_states = 4;
  const auto ru = fsp::solve_transient(model.net, core::State{0}, grid, uopt);

  fsp::TransientFspOptions kopt;
  kopt.seed_states = 4;
  kopt.engine = fsp::TransientEngine::kKrylov;
  kopt.krylov.tol = 1e-13;
  const auto rk = fsp::solve_transient(model.net, core::State{0}, grid, kopt);

  EXPECT_TRUE(ru.converged);
  EXPECT_TRUE(rk.converged);
  ASSERT_EQ(ru.space.size(), rk.space.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    EXPECT_LE(l1_diff(ru.marginals[g], rk.marginals[g]), 1e-8) << "g=" << g;
  }
}

// The FSP transient bound is a safety guarantee: when an engine budget cuts
// the propagation before the last grid point, no bound exists. The result
// must say so — truncated_early set, infinite error_bound, never-computed
// grid points poisoned (empty marginal, infinite sink) — instead of letting
// the sinks[] zero-initialization masquerade as a converged solve.
TEST(FspTransient, TruncatedUniformizationReportsNoBound) {
  ImmigrationDeath model;
  const std::vector<real_t> grid{0.5, 1.5};
  fsp::TransientFspOptions fopt;
  fopt.uniformization.max_terms = 3;  // cut inside the first segment
  const auto res = fsp::solve_transient(model.net, core::State{0}, grid, fopt);
  EXPECT_TRUE(res.truncated_early);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(std::isinf(res.error_bound));
  ASSERT_EQ(res.marginals.size(), grid.size());
  ASSERT_EQ(res.sink_mass.size(), grid.size());
  EXPECT_TRUE(res.marginals.back().empty());
  EXPECT_TRUE(std::isinf(res.sink_mass.back()));
}

TEST(FspTransient, TruncatedKrylovReportsNoBound) {
  ImmigrationDeath model;
  const std::vector<real_t> grid{0.5, 1.5};
  fsp::TransientFspOptions fopt;
  fopt.engine = fsp::TransientEngine::kKrylov;
  fopt.krylov.max_matvecs = 5;  // less than one Arnoldi sweep
  const auto res = fsp::solve_transient(model.net, core::State{0}, grid, fopt);
  EXPECT_TRUE(res.truncated_early);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(std::isinf(res.error_bound));
  EXPECT_TRUE(res.marginals.back().empty());
  EXPECT_TRUE(std::isinf(res.sink_mass.back()));
}

// Callers index marginals by member. Whatever ends the loop — the round
// budget, the state cap or convergence — the set it returns is the one the
// marginals cover, and the last round propagated exactly that set.
TEST(FspTransient, MarginalsCoverTheReturnedMemberSet) {
  ImmigrationDeath model;
  const std::vector<real_t> grid{0.5, 1.0, 1.5, 2.0};
  for (const auto engine : {fsp::TransientEngine::kUniformization,
                            fsp::TransientEngine::kKrylov}) {
    fsp::TransientFspOptions base;
    base.tol = 1e-8;
    base.seed_states = 4;
    base.engine = engine;
    base.krylov.tol = 1e-13;
    std::vector<fsp::TransientFspOptions> cases(4, base);
    cases[0].max_rounds = 1;
    cases[1].max_rounds = 2;
    cases[2].max_states = 9;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   " case " + std::to_string(c));
      const auto res =
          fsp::solve_transient(model.net, core::State{0}, grid, cases[c]);
      EXPECT_EQ(res.converged, c == 3);
      EXPECT_FALSE(res.truncated_early);
      ASSERT_FALSE(res.rounds.empty());
      EXPECT_EQ(res.rounds.back().states, res.space.size());
      ASSERT_EQ(res.marginals.size(), grid.size());
      for (const std::vector<real_t>& m : res.marginals) {
        EXPECT_EQ(m.size(), static_cast<std::size_t>(res.space.size()));
      }
    }
  }
}

TEST(FspTransient, RejectsBadGridAndRoundBudget) {
  ImmigrationDeath model;
  fsp::TransientFspOptions fopt;
  fopt.max_rounds = 0;
  const std::vector<real_t> grid{1.0};
  EXPECT_THROW((void)fsp::solve_transient(model.net, core::State{0}, grid,
                                          fopt),
               std::invalid_argument);
  fopt = fsp::TransientFspOptions{};
  const std::vector<real_t> bad{1.0, 0.5};
  EXPECT_THROW((void)fsp::solve_transient(model.net, core::State{0}, bad,
                                          fopt),
               std::invalid_argument);
}

}  // namespace
}  // namespace cmesolve::solver
