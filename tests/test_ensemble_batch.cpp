// Batched multi-RHS ensemble solver: bitwise parity with the single-RHS
// path, per-lane convergence masking edge cases, thread-count determinism,
// and warm starts across pruned/expanded FSP state sets.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/models.hpp"
#include "core/stencil.hpp"
#include "solver/batched.hpp"
#include "solver/jacobi.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace cmesolve::solver {
namespace {

using core::State;
using core::StencilTable;

struct ThreadGuard {
  explicit ThreadGuard(int n) { util::set_max_threads(n); }
  ~ThreadGuard() { util::set_max_threads(0); }
};

core::models::ToggleSwitchParams tiny_toggle() {
  core::models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = 8;
  return p;
}

bool bitwise_equal(std::span<const real_t> a, std::span<const real_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

/// Rate variants of the anchor network: lane 0 keeps the compiled rates,
/// later lanes rescale every reaction deterministically.
std::vector<std::vector<real_t>> rate_variants(
    const core::ReactionNetwork& net, int k, std::uint64_t seed = 42) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<real_t>> rates;
  for (int q = 0; q < k; ++q) {
    std::vector<real_t> rk(static_cast<std::size_t>(net.num_reactions()));
    for (int r = 0; r < net.num_reactions(); ++r) {
      const real_t f = q == 0 ? 1.0 : rng.uniform(0.5, 2.0);
      rk[static_cast<std::size_t>(r)] = net.reaction(r).rate * f;
    }
    rates.push_back(std::move(rk));
  }
  return rates;
}

JacobiOptions fast_jacobi() {
  JacobiOptions jopt;
  jopt.eps = 1e-8;
  jopt.max_iterations = 50'000;
  return jopt;
}

void expect_points_bitwise(const EnsembleResult& a, const EnsembleResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t q = 0; q < a.points.size(); ++q) {
    const auto& pa = a.points[q];
    const auto& pb = b.points[q];
    EXPECT_TRUE(bitwise_equal(pa.p, pb.p)) << "point " << q;
    EXPECT_EQ(pa.jacobi.iterations, pb.jacobi.iterations) << "point " << q;
    EXPECT_EQ(pa.jacobi.reason, pb.jacobi.reason) << "point " << q;
    EXPECT_EQ(pa.gmres_used, pb.gmres_used) << "point " << q;
    EXPECT_EQ(pa.converged, pb.converged) << "point " << q;
  }
}

// --- single-RHS equivalence -------------------------------------------------

TEST(EnsembleBatch, K1MatchesDirectSingleRhsSolveBitwise) {
  const auto p = tiny_toggle();
  const auto net = core::models::toggle_switch(p);
  const StencilOperator anchor(net, core::models::toggle_switch_initial(p));
  const auto rates = rate_variants(net, 1);

  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  const auto ens = solve_ensemble(anchor.table(), rates, eopt);
  ASSERT_EQ(ens.points.size(), 1u);
  EXPECT_TRUE(ens.points[0].converged);

  // The direct path an independent script would run: rebind, cache, solve
  // from the uniform-over-active guess.
  core::StencilTable tbl(anchor.table(), rates[0]);
  const StencilOperator op(std::move(tbl), StencilMode::kPropensityCache);
  const auto active = box_active_rows(op.table());
  index_t rows_active = 0;
  for (const auto a : active) rows_active += a;
  std::vector<real_t> x(static_cast<std::size_t>(op.nrows()), 0.0);
  const real_t p0 = 1.0 / static_cast<real_t>(rows_active);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (active[i]) x[i] = p0;
  }
  const auto r = jacobi_solve(op, op.inf_norm(), x, eopt.jacobi);

  EXPECT_TRUE(bitwise_equal(ens.points[0].p, x));
  EXPECT_EQ(ens.points[0].jacobi.iterations, r.iterations);
  EXPECT_EQ(ens.points[0].jacobi.reason, r.reason);
}

TEST(EnsembleBatch, BatchedMatchesSequentialBitwise) {
  const auto p = tiny_toggle();
  const auto net = core::models::toggle_switch(p);
  const StencilOperator anchor(net, core::models::toggle_switch_initial(p));
  const auto rates = rate_variants(net, 4);

  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  eopt.batch_width = 4;
  const auto batched = solve_ensemble(anchor.table(), rates, eopt);
  auto sopt = eopt;
  sopt.batched = false;
  const auto sequential = solve_ensemble(anchor.table(), rates, sopt);

  for (const auto& pt : batched.points) EXPECT_TRUE(pt.converged);
  expect_points_bitwise(batched, sequential);
  EXPECT_EQ(batched.order, sequential.order);
}

TEST(EnsembleBatch, BatchedSolveIsThreadCountInvariant) {
  const auto p = tiny_toggle();
  const auto net = core::models::toggle_switch(p);
  const StencilOperator anchor(net, core::models::toggle_switch_initial(p));
  const auto rates = rate_variants(net, 3);

  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  const auto solve_at = [&](int threads) {
    ThreadGuard guard(threads);
    return solve_ensemble(anchor.table(), rates, eopt);
  };
  const auto e1 = solve_at(1);
  const auto e8 = solve_at(8);
  expect_points_bitwise(e1, e8);
}

// --- convergence masking edge cases -----------------------------------------

// One lane runs out of its iteration budget while its neighbors converge
// and freeze: the frozen lanes' vectors must be exactly what they were at
// their stop, and the still-running lane must be exactly what the
// single-RHS path produces — lanes never perturb each other.
TEST(EnsembleBatch, MixedConvergenceFreezesLanesIndependently) {
  const auto p = tiny_toggle();
  const auto net = core::models::toggle_switch(p);
  const StencilOperator anchor(net, core::models::toggle_switch_initial(p));
  const auto rates = rate_variants(net, 3);

  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  eopt.gmres_fallback = false;
  eopt.continuation = false;  // cold starts: per-lane iterations differ
  const auto full = solve_ensemble(anchor.table(), rates, eopt);
  std::uint64_t lo = full.points[0].jacobi.iterations;
  std::uint64_t hi = lo;
  for (const auto& pt : full.points) {
    lo = std::min(lo, pt.jacobi.iterations);
    hi = std::max(hi, pt.jacobi.iterations);
  }
  ASSERT_LT(lo, hi) << "variants too similar to produce a convergence spread";

  // Cap the budget between the fastest and slowest lane: at least one lane
  // converges (freezes), at least one hits kMaxIterations mid-flight.
  auto copt = eopt;
  copt.jacobi.max_iterations = (lo + hi) / 2;
  const auto batched = solve_ensemble(anchor.table(), rates, copt);
  auto sopt = copt;
  sopt.batched = false;
  const auto sequential = solve_ensemble(anchor.table(), rates, sopt);

  bool saw_converged = false;
  bool saw_maxed = false;
  for (const auto& pt : batched.points) {
    saw_converged = saw_converged || pt.jacobi.reason == StopReason::kConverged;
    saw_maxed = saw_maxed || pt.jacobi.reason == StopReason::kMaxIterations;
  }
  EXPECT_TRUE(saw_converged);
  EXPECT_TRUE(saw_maxed);
  expect_points_bitwise(batched, sequential);
}

// Every lane stops through the stagnation path (a coarse stagnation
// threshold trips after the first couple of residual checks); the GMRES
// fallback then rescues each lane — identically in both modes.
TEST(EnsembleBatch, AllLanesStagnateAndGmresRescues) {
  const auto p = tiny_toggle();
  const auto net = core::models::toggle_switch(p);
  const StencilOperator anchor(net, core::models::toggle_switch_initial(p));
  const auto rates = rate_variants(net, 3);

  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  eopt.jacobi.eps = 1e-15;  // unreachable within the first checks
  // Any residual change within 10x counts as flat: the stagnation patience
  // runs out on the third residual check, long before convergence.
  eopt.jacobi.stagnation_eps = 10.0;
  // The stagnated iterates stop far from the fixed point, so the rescue
  // needs a deeper Krylov space than the default restart.
  eopt.gmres.restart = 64;
  eopt.gmres.max_iterations = 10'000;
  const auto batched = solve_ensemble(anchor.table(), rates, eopt);
  auto sopt = eopt;
  sopt.batched = false;
  const auto sequential = solve_ensemble(anchor.table(), rates, sopt);

  for (const auto& pt : batched.points) {
    EXPECT_EQ(pt.jacobi.reason, StopReason::kStagnated);
    EXPECT_TRUE(pt.gmres_used);
    EXPECT_TRUE(pt.converged);
  }
  expect_points_bitwise(batched, sequential);
}

// Phage lambda's box carries masked rows (derived-count violations): every
// lane must keep exactly zero mass there, and parity must hold through the
// masking.
TEST(EnsembleBatch, MaskedBoxRowsStayZeroInEveryLane) {
  core::models::PhageLambdaParams p;
  p.cap_ci = p.cap_cro = 2;
  p.cap_ci2 = p.cap_cro2 = 1;
  const auto net = core::models::phage_lambda(p);
  const StencilOperator anchor(net, core::models::phage_lambda_initial(p));
  const auto active = box_active_rows(anchor.table());
  index_t masked = 0;
  for (const auto a : active) masked += a == 0;
  ASSERT_GT(masked, 0) << "model no longer exercises masking";

  const auto rates = rate_variants(net, 3);
  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  eopt.jacobi.damping = 0.95;
  const auto batched = solve_ensemble(anchor.table(), rates, eopt);
  auto sopt = eopt;
  sopt.batched = false;
  const auto sequential = solve_ensemble(anchor.table(), rates, sopt);

  for (const auto& pt : batched.points) {
    real_t mass = 0.0;
    for (std::size_t i = 0; i < pt.p.size(); ++i) {
      if (!active[i]) {
        EXPECT_EQ(pt.p[i], 0.0);
      } else {
        mass += pt.p[i];
      }
    }
    EXPECT_NEAR(mass, 1.0, 1e-9);
  }
  expect_points_bitwise(batched, sequential);
}

// --- warm starts across FSP state sets --------------------------------------

// A sweep solved on a pruned (smaller-cap) box warm-starts the same sweep
// on an expanded box via solver::warm_restart's remap contract, and the
// expanded solve keeps batched/sequential parity with the remapped guess.
TEST(EnsembleBatch, WarmStartAcrossExpandedStateSet) {
  auto small = tiny_toggle();
  small.cap_a = small.cap_b = 6;
  auto large = tiny_toggle();
  large.cap_a = large.cap_b = 8;
  const auto net_small = core::models::toggle_switch(small);
  const auto net_large = core::models::toggle_switch(large);
  const StencilOperator anchor_small(
      net_small, core::models::toggle_switch_initial(small));
  const StencilOperator anchor_large(
      net_large, core::models::toggle_switch_initial(large));
  const auto rates = rate_variants(net_small, 2);

  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  const auto pruned = solve_ensemble(anchor_small.table(), rates, eopt);
  ASSERT_TRUE(pruned.points[0].converged);

  // Remap: every small-box row decodes to a state that also lives in the
  // large box.
  const auto& ts = anchor_small.table();
  const auto& tl = anchor_large.table();
  std::vector<index_t> remap(static_cast<std::size_t>(ts.box_rows()));
  State x;
  for (index_t i = 0; i < ts.box_rows(); ++i) {
    ts.decode(i, x);
    remap[static_cast<std::size_t>(i)] = tl.box_index(x);
  }
  auto wopt = eopt;
  wopt.initial_guess.resize(static_cast<std::size_t>(tl.box_rows()));
  warm_restart(pruned.points[0].p, remap, wopt.initial_guess, 0.0);
  wopt.continuation = false;  // both points start from the remapped guess

  const auto batched = solve_ensemble(anchor_large.table(), rates, wopt);
  auto sopt = wopt;
  sopt.batched = false;
  const auto sequential = solve_ensemble(anchor_large.table(), rates, sopt);
  for (const auto& pt : batched.points) EXPECT_TRUE(pt.converged);
  expect_points_bitwise(batched, sequential);
}

// The pruning direction: a large-box solution restricted onto the smaller
// box (dropped states remap to -1) is a valid, parity-preserving guess.
TEST(EnsembleBatch, WarmStartAcrossPrunedStateSet) {
  auto small = tiny_toggle();
  small.cap_a = small.cap_b = 6;
  auto large = tiny_toggle();
  large.cap_a = large.cap_b = 8;
  const auto net_small = core::models::toggle_switch(small);
  const auto net_large = core::models::toggle_switch(large);
  const StencilOperator anchor_small(
      net_small, core::models::toggle_switch_initial(small));
  const StencilOperator anchor_large(
      net_large, core::models::toggle_switch_initial(large));
  const auto rates = rate_variants(net_large, 2);

  EnsembleOptions eopt;
  eopt.jacobi = fast_jacobi();
  const auto full = solve_ensemble(anchor_large.table(), rates, eopt);
  ASSERT_TRUE(full.points[0].converged);

  const auto& ts = anchor_small.table();
  const auto& tl = anchor_large.table();
  std::vector<index_t> remap(static_cast<std::size_t>(tl.box_rows()), -1);
  State x;
  bool dropped = false;
  for (index_t i = 0; i < tl.box_rows(); ++i) {
    tl.decode(i, x);
    bool inside = true;
    for (std::size_t s = 0; s < x.size(); ++s) {
      if (x[s] < 0 || x[s] > 6) inside = false;
    }
    remap[static_cast<std::size_t>(i)] = inside ? ts.box_index(x) : -1;
    dropped = dropped || !inside;
  }
  ASSERT_TRUE(dropped);

  auto wopt = eopt;
  wopt.initial_guess.resize(static_cast<std::size_t>(ts.box_rows()));
  warm_restart(full.points[0].p, remap, wopt.initial_guess, 0.0);
  wopt.continuation = false;

  const auto batched = solve_ensemble(anchor_small.table(), rates, wopt);
  auto sopt = wopt;
  sopt.batched = false;
  const auto sequential = solve_ensemble(anchor_small.table(), rates, sopt);
  for (const auto& pt : batched.points) EXPECT_TRUE(pt.converged);
  expect_points_bitwise(batched, sequential);
}

// --- operator-level masking --------------------------------------------------

TEST(EnsembleBatch, MultiplyActivePartialLanesMatchesFullSweep) {
  const auto p = tiny_toggle();
  const auto net = core::models::toggle_switch(p);
  const StencilOperator anchor(net, core::models::toggle_switch_initial(p));
  const auto rates = rate_variants(net, 4);
  const EnsembleStructure structure(anchor.table());
  const BatchedStencilOperator op(structure, rates);
  const auto n = static_cast<std::size_t>(op.nrows());
  const auto kk = static_cast<std::size_t>(op.batch());

  Xoshiro256 rng(7);
  std::vector<real_t> x(n * kk);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  std::vector<real_t> y_full(n * kk);
  op.multiply(x, y_full);

  const real_t sentinel = -123.25;
  std::vector<real_t> y_part(n * kk, sentinel);
  const std::vector<int> lanes = {0, 2, 3};
  op.multiply_active(x, y_part, lanes);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t q = 0; q < kk; ++q) {
      const std::size_t j = i * kk + q;
      if (q == 1) {
        // The contract: frozen lanes carry zero garbage, never sweep
        // values — the driver must not read them.
        EXPECT_EQ(y_part[j], 0.0) << "frozen lane swept at row " << i;
      } else {
        EXPECT_EQ(y_part[j], y_full[j]) << "lane " << q << " row " << i;
      }
    }
  }

  // The masked sweep is thread-count invariant like the full one.
  std::vector<real_t> y_t1(n * kk, sentinel);
  std::vector<real_t> y_t8(n * kk, sentinel);
  {
    ThreadGuard guard(1);
    op.multiply_active(x, y_t1, lanes);
  }
  {
    ThreadGuard guard(8);
    op.multiply_active(x, y_t8, lanes);
  }
  EXPECT_TRUE(bitwise_equal(y_t1, y_part));
  EXPECT_TRUE(bitwise_equal(y_t8, y_part));
}

TEST(EnsembleBatch, RowOuterSweepMatchesPerLaneStencilAtEveryThreadCountAndIsa) {
  // Phage lambda 6/3 at K = 4 puts the sweep's stream footprint over the
  // 8 MB row-outer threshold, and its slow-digit strides exceed a parallel
  // chunk: a reaction window that starts past the chunk end must not drag
  // the leading face loop into rows later chunks own.
  core::models::PhageLambdaParams params;
  params.cap_ci = params.cap_cro = 6;
  params.cap_ci2 = params.cap_cro2 = 3;
  const auto net = core::models::phage_lambda(params);
  const StencilOperator anchor(net, core::models::phage_lambda_initial(params));
  const auto rates = rate_variants(net, 4);
  const EnsembleStructure structure(anchor.table());
  const BatchedStencilOperator op(structure, rates);
  const auto n = static_cast<std::size_t>(op.nrows());
  const auto kk = static_cast<std::size_t>(op.batch());
  ASSERT_GT(static_cast<double>(n) * sizeof(real_t) *
                (2.0 * static_cast<double>(kk) +
                 static_cast<double>(anchor.table().reactions().size())),
            8.0 * 1024 * 1024);

  Xoshiro256 rng(11);
  std::vector<real_t> x(n * kk);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  // Per-lane reference: the single-RHS cached sweep of each point.
  std::vector<std::vector<real_t>> lane_y(kk, std::vector<real_t>(n));
  for (std::size_t q = 0; q < kk; ++q) {
    const StencilOperator lane(core::StencilTable(anchor.table(), rates[q]),
                               StencilMode::kPropensityCache);
    std::vector<real_t> xq(n);
    for (std::size_t i = 0; i < n; ++i) xq[i] = x[i * kk + q];
    ThreadGuard serial(1);
    lane.multiply(xq, lane_y[q]);
  }
  for (const util::simd::Isa isa : util::simd::compiled_isas()) {
    for (const int threads : {1, 2, 4, 8}) {
      ThreadGuard guard(threads);
      if (!util::simd::force_isa(isa)) continue;  // compiled in, CPU lacks it
      std::vector<real_t> y(n * kk, -1.0);
      op.multiply(x, y);
      util::simd::reset_forced_isa();
      std::size_t mismatches = 0;
      for (std::size_t q = 0; q < kk; ++q) {
        for (std::size_t i = 0; i < n; ++i) {
          mismatches += std::memcmp(&y[i * kk + q], &lane_y[q][i],
                                    sizeof(real_t)) != 0;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "isa=" << util::simd::to_string(isa)
                                << " threads=" << threads;
    }
  }
}

TEST(EnsembleBatch, ContinuationOrderIsDeterministicPermutation) {
  const auto p = tiny_toggle();
  const auto net = core::models::toggle_switch(p);
  const auto rates = rate_variants(net, 6);
  const auto order = continuation_order(rates);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 0);  // chain starts at point 0
  std::vector<int> seen(6, 0);
  for (const int q : order) {
    ASSERT_GE(q, 0);
    ASSERT_LT(q, 6);
    ++seen[static_cast<std::size_t>(q)];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
  EXPECT_EQ(order, continuation_order(rates));
}

}  // namespace
}  // namespace cmesolve::solver
