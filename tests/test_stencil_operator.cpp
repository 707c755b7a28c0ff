// Matrix-free stencil operator: geometry round-trips, exact agreement with
// the assembled CSR pipeline, thread-count determinism, and the masked FSP
// variant.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "core/stencil.hpp"
#include "solver/jacobi.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cmesolve::solver {
namespace {

using core::ReactionNetwork;
using core::State;
using core::StateSpace;
using core::StencilTable;

struct ThreadGuard {
  explicit ThreadGuard(int n) { util::set_max_threads(n); }
  ~ThreadGuard() { util::set_max_threads(0); }
};

core::models::ToggleSwitchParams tiny_toggle() {
  core::models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = 12;
  return p;
}

core::models::FutileCycleParams tiny_futile() {
  core::models::FutileCycleParams p;
  p.substrate_total = 30;
  return p;
}

std::vector<real_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<real_t> x(n);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  return x;
}

real_t l1_distance(std::span<const real_t> a, std::span<const real_t> b) {
  real_t d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

// --- StencilTable geometry --------------------------------------------------

TEST(StencilTable, BoxIndexDecodeRoundTrip) {
  const auto tp = tiny_toggle();
  const auto net = core::models::toggle_switch(tp);
  const StateSpace space(net, core::models::toggle_switch_initial(tp), 100000);
  const StencilTable table(net, core::models::toggle_switch_initial(tp));

  std::vector<char> seen(static_cast<std::size_t>(table.box_rows()), 0);
  State x(static_cast<std::size_t>(net.num_species()));
  for (index_t j = 0; j < space.size(); ++j) {
    const index_t row = table.box_index(space.state(j));
    ASSERT_GE(row, 0) << "reachable state outside the stencil box";
    ASSERT_LT(row, table.box_rows());
    ASSERT_FALSE(seen[static_cast<std::size_t>(row)])
        << "two states mapped to box row " << row;
    seen[static_cast<std::size_t>(row)] = 1;
    table.decode(row, x);
    EXPECT_EQ(x, space.state(j)) << "decode mismatch at row " << row;
  }
}

TEST(StencilTable, FutileCycleConservationLawsShrinkTheBox) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const StencilTable table(net, core::models::futile_cycle_initial(fp));

  // Three independent conservation laws survive elimination, so the box is
  // a tiny fraction of the naive capacity product.
  EXPECT_EQ(table.laws().size(), 3u);
  std::int64_t naive = 1;
  for (int s = 0; s < net.num_species(); ++s) {
    naive *= net.capacity(s) + 1;
  }
  EXPECT_LT(table.box_rows() * 50, naive);

  // Every reachable state maps in; masked rows are exactly the invalid
  // derived-count corners.
  const StateSpace space(net, core::models::futile_cycle_initial(fp), 100000);
  EXPECT_FALSE(space.truncated());
  index_t valid = 0;
  State x(static_cast<std::size_t>(net.num_species()));
  for (index_t r = 0; r < table.box_rows(); ++r) {
    table.decode(r, x);
    if (table.row_valid(x)) ++valid;
  }
  EXPECT_EQ(table.box_rows() - valid, table.rows_masked());
  EXPECT_GE(valid, space.size());
}

TEST(StencilTable, DiagonalMatchesAssembledMatrixExactly) {
  for (int model = 0; model < 2; ++model) {
    ReactionNetwork net;
    State init;
    if (model == 0) {
      const auto tp = tiny_toggle();
      net = core::models::toggle_switch(tp);
      init = core::models::toggle_switch_initial(tp);
    } else {
      const auto fp = tiny_futile();
      net = core::models::futile_cycle(fp);
      init = core::models::futile_cycle_initial(fp);
    }
    const StateSpace space(net, init, 100000);
    const auto a = core::rate_matrix(space);
    const StencilTable table(net, init);
    const auto diag = table.diag();
    for (index_t j = 0; j < space.size(); ++j) {
      const index_t row = table.box_index(space.state(j));
      ASSERT_GE(row, 0);
      // Same propensity evaluation order as the assembler: bitwise equal.
      EXPECT_EQ(diag[static_cast<std::size_t>(row)], a.at(j, j))
          << "model " << model << " state " << j;
    }
  }
}

TEST(StencilTable, RepeatedSpeciesWindowsMatchAssembledMatrix) {
  // "up2" names A twice: from A = 2 each entry alone fits the box but the
  // summed change does not, so the out-window must bound the sum as
  // within_capacity does, or the diagonal leaks the blocked rate.
  ReactionNetwork net;
  const int a = net.add_species("A", 3);
  const int b = net.add_species("B", 1);
  net.add_reaction("up2", 2.0, {}, {{a, +1}, {a, +1}});
  net.add_reaction("down", 1.0, {{a, 1}}, {{a, -1}});
  net.add_reaction("flip", 3.0, {}, {{b, +1}});
  net.add_reaction("flop", 1.0, {{b, 1}}, {{b, -1}});
  const State init{0, 0};
  const StateSpace space(net, init, 1000);
  ASSERT_EQ(space.size(), 8);
  const auto a_csr = core::rate_matrix(space);
  const CsrOperator csr(a_csr);
  const StencilOperator op(net, init);
  const auto diag = op.table().diag();
  for (index_t j = 0; j < space.size(); ++j) {
    const index_t row = op.table().box_index(space.state(j));
    ASSERT_GE(row, 0);
    EXPECT_EQ(diag[static_cast<std::size_t>(row)], a_csr.at(j, j)) << j;
  }
  const auto n = static_cast<std::size_t>(space.size());
  const auto x = random_vector(n, 5);
  std::vector<real_t> y_csr(n);
  csr.multiply(x, y_csr);
  std::vector<real_t> xb(static_cast<std::size_t>(op.nrows()));
  std::vector<real_t> yb(xb.size());
  op.scatter_from(space, x, xb);
  op.multiply(xb, yb);
  std::vector<real_t> y(n);
  op.gather_to(space, yb, y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], y_csr[i], 1e-13 * (1.0 + std::abs(y_csr[i]))) << i;
  }
}

// --- multiply ---------------------------------------------------------------

class StencilMultiply : public ::testing::TestWithParam<StencilMode> {};

TEST_P(StencilMultiply, MatchesCsrOperator) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const auto init = core::models::futile_cycle_initial(fp);
  const StateSpace space(net, init, 100000);
  const auto a = core::rate_matrix(space);
  const CsrOperator csr(a);
  const StencilOperator op(net, init, GetParam());

  const auto n = static_cast<std::size_t>(space.size());
  const auto nbox = static_cast<std::size_t>(op.nrows());
  const auto x = random_vector(n, 99);
  std::vector<real_t> y_csr(n);
  csr.multiply(x, y_csr);

  std::vector<real_t> xb(nbox);
  std::vector<real_t> yb(nbox);
  op.scatter_from(space, x, xb);
  op.multiply(xb, yb);
  std::vector<real_t> y(n);
  op.gather_to(space, yb, y);

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], y_csr[i], 1e-13 * (1.0 + std::abs(y_csr[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, StencilMultiply,
                         ::testing::Values(StencilMode::kRecompute,
                                           StencilMode::kPropensityCache),
                         [](const auto& param_info) {
                           return param_info.param == StencilMode::kRecompute
                                      ? "recompute"
                                      : "cache";
                         });

TEST(StencilOperator, CacheModeMatchesRecomputeExactly) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const auto init = core::models::futile_cycle_initial(fp);
  const StencilOperator rec(net, init, StencilMode::kRecompute);
  const StencilOperator cached(net, init, StencilMode::kPropensityCache);

  const auto n = static_cast<std::size_t>(rec.nrows());
  const auto x = random_vector(n, 7);
  std::vector<real_t> y1(n);
  std::vector<real_t> y2(n);
  rec.multiply(x, y1);
  cached.multiply(x, y2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(y1[i], y2[i]) << i;
  }
  EXPECT_EQ(rec.offdiag_nnz(), cached.offdiag_nnz());
  EXPECT_EQ(rec.inf_norm(), cached.inf_norm());
}

TEST(StencilOperator, MultiplyIsBitIdenticalAcrossThreadCounts) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const auto init = core::models::futile_cycle_initial(fp);
  for (const auto mode :
       {StencilMode::kRecompute, StencilMode::kPropensityCache}) {
    const StencilOperator op(net, init, mode);
    const auto n = static_cast<std::size_t>(op.nrows());
    const auto x = random_vector(n, 1234);
    std::vector<real_t> y1(n);
    {
      ThreadGuard tg(1);
      op.multiply(x, y1);
    }
    for (const int t : {2, 8}) {
      ThreadGuard tg(t);
      std::vector<real_t> yt(n);
      op.multiply(x, yt);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(y1[i], yt[i]) << "threads=" << t << " row " << i;
      }
    }
  }
}

// --- Jacobi parity ----------------------------------------------------------

std::vector<real_t> solve_csr(const StateSpace& space, const sparse::Csr& a) {
  CsrOperator op(a);
  std::vector<real_t> p(static_cast<std::size_t>(space.size()));
  fill_uniform(p);
  JacobiOptions opt;
  opt.eps = 1e-11;
  // The futile cycle's plain-Jacobi iteration oscillates (a -1 mode);
  // the weighted variant removes it for both operators alike.
  opt.damping = 0.9;
  const auto r = jacobi_solve(op, a.inf_norm(), p, opt);
  EXPECT_EQ(r.reason, StopReason::kConverged);
  return p;
}

std::vector<real_t> solve_stencil(const StateSpace& space,
                                  const StencilOperator& op) {
  // Masked box rows must start (and stay) at zero: seed through scatter.
  std::vector<real_t> p0(static_cast<std::size_t>(space.size()));
  fill_uniform(p0);
  std::vector<real_t> pb(static_cast<std::size_t>(op.nrows()));
  op.scatter_from(space, p0, pb);
  JacobiOptions opt;
  opt.eps = 1e-11;
  opt.damping = 0.9;
  const auto r = jacobi_solve(op, op.inf_norm(), pb, opt);
  EXPECT_EQ(r.reason, StopReason::kConverged);
  std::vector<real_t> p(p0.size());
  op.gather_to(space, pb, p);
  return p;
}

TEST(StencilJacobi, ConvergesToCsrStationaryVector) {
  for (int model = 0; model < 2; ++model) {
    SCOPED_TRACE(model == 0 ? "toggle" : "futile");
    ReactionNetwork net;
    State init;
    if (model == 0) {
      const auto tp = tiny_toggle();
      net = core::models::toggle_switch(tp);
      init = core::models::toggle_switch_initial(tp);
    } else {
      const auto fp = tiny_futile();
      net = core::models::futile_cycle(fp);
      init = core::models::futile_cycle_initial(fp);
    }
    const StateSpace space(net, init, 100000);
    const auto a = core::rate_matrix(space);
    const auto p_csr = solve_csr(space, a);

    for (const auto mode :
         {StencilMode::kRecompute, StencilMode::kPropensityCache}) {
      const StencilOperator op(net, init, mode);
      const auto p = solve_stencil(space, op);
      EXPECT_LE(l1_distance(p, p_csr), 1e-10)
          << "model " << model << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(StencilJacobi, SolutionIsBitIdenticalAcrossThreadCounts) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const auto init = core::models::futile_cycle_initial(fp);
  const StateSpace space(net, init, 100000);
  const StencilOperator op(net, init, StencilMode::kRecompute);

  const auto run = [&](int threads) {
    ThreadGuard tg(threads);
    std::vector<real_t> p0(static_cast<std::size_t>(space.size()));
    fill_uniform(p0);
    std::vector<real_t> pb(static_cast<std::size_t>(op.nrows()));
    op.scatter_from(space, p0, pb);
    JacobiOptions opt;
    opt.eps = 0.0;
    opt.stagnation_eps = 0.0;
    opt.max_iterations = 300;
    (void)jacobi_solve(op, op.inf_norm(), pb, opt);
    return pb;
  };

  const auto p1 = run(1);
  const auto p2 = run(2);
  const auto p8 = run(8);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i], p2[i]) << i;
    EXPECT_EQ(p1[i], p8[i]) << i;
  }
}

// --- GMRES through the matrix-free steady-state operator --------------------

TEST(StencilGmres, MatrixFreeSteadyStateMatchesJacobi) {
  const auto tp = tiny_toggle();
  const auto net = core::models::toggle_switch(tp);
  const auto init = core::models::toggle_switch_initial(tp);
  const StateSpace space(net, init, 100000);
  const StencilOperator op(net, init);
  // The toggle box carries no masked padding; its few unreachable rows are
  // transient states, so the nonsingular-ized box system still has the
  // unique solution (stationary vector, zero on transients).
  ASSERT_EQ(op.rows_masked(), 0);

  const auto a = core::rate_matrix(space);
  const auto p_ref = solve_csr(space, a);

  const index_t row = op.nrows() - 1;
  const auto apply = matrix_free_steady_state_operator(op, row);
  const auto b = steady_state_rhs(op.nrows(), row);
  std::vector<real_t> x(static_cast<std::size_t>(op.nrows()));
  fill_uniform(x);
  GmresOptions gopt;
  gopt.restart = 60;
  gopt.max_iterations = 6000;
  gopt.tol = 1e-12;
  const auto r = gmres_solve(apply, op.nrows(), b, x, gopt);
  EXPECT_TRUE(r.converged);

  std::vector<real_t> p(x.begin(), x.end());
  normalize_l1(p);
  std::vector<real_t> p_states(static_cast<std::size_t>(space.size()));
  op.gather_to(space, p, p_states);
  EXPECT_LE(l1_distance(p_states, p_ref), 1e-8);
}

// --- MaskedStencilOperator (FSP inner solve) --------------------------------

TEST(MaskedStencil, MatchesProjectedRateMatrix) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const auto init = core::models::futile_cycle_initial(fp);

  core::DynamicStateSpace dyn(net, init);
  dyn.grow_bfs(300);  // partial cover: real out-of-set leak
  ASSERT_EQ(dyn.size(), 300);

  core::ProjectedRateMatrix prm(net);
  prm.extend(dyn);
  const auto asmbl = prm.assemble(dyn, 0);

  const StencilTable table(net, init);
  const MaskedStencilOperator mop(table, dyn, 0);

  // Per-member outflow agrees with the assembled bookkeeping.
  for (index_t j = 0; j < dyn.size(); ++j) {
    EXPECT_NEAR(mop.outflow(j), asmbl.outflow[static_cast<std::size_t>(j)],
                1e-13 * (1.0 + asmbl.outflow[static_cast<std::size_t>(j)]))
        << j;
  }

  // Same stationary vector from both inner solves.
  JacobiOptions opt;
  opt.eps = 1e-12;

  CsrOperator csr(asmbl.a);
  std::vector<real_t> p_csr(static_cast<std::size_t>(dyn.size()));
  fill_uniform(p_csr);
  const auto r1 = jacobi_solve(csr, asmbl.a.inf_norm(), p_csr, opt);
  EXPECT_EQ(r1.reason, StopReason::kConverged);

  std::vector<real_t> p0(static_cast<std::size_t>(dyn.size()));
  fill_uniform(p0);
  std::vector<real_t> pb(static_cast<std::size_t>(mop.nrows()));
  mop.scatter_from_members(p0, pb);
  const auto r2 = jacobi_solve(mop, mop.inf_norm(), pb, opt);
  EXPECT_EQ(r2.reason, StopReason::kConverged);
  std::vector<real_t> p_mop(static_cast<std::size_t>(dyn.size()));
  mop.gather_to_members(pb, p_mop);

  EXPECT_LE(l1_distance(p_mop, p_csr), 1e-10);
}

TEST(MaskedStencil, MultiplyIsBitIdenticalAcrossThreadCounts) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const auto init = core::models::futile_cycle_initial(fp);
  core::DynamicStateSpace dyn(net, init);
  dyn.grow_bfs(250);
  const StencilTable table(net, init);
  const MaskedStencilOperator mop(table, dyn, 0);

  const auto n = static_cast<std::size_t>(mop.nrows());
  const auto x = random_vector(n, 5);
  std::vector<real_t> y1(n);
  {
    ThreadGuard tg(1);
    mop.multiply(x, y1);
  }
  for (const int t : {2, 8}) {
    ThreadGuard tg(t);
    std::vector<real_t> yt(n);
    mop.multiply(x, yt);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y1[i], yt[i]) << "threads=" << t << " row " << i;
    }
  }
}

// --- error handling ---------------------------------------------------------

TEST(StencilOperator, RejectsForeignStatesInScatter) {
  const auto fp = tiny_futile();
  const auto net = core::models::futile_cycle(fp);
  const auto init = core::models::futile_cycle_initial(fp);
  const StencilOperator op(net, init);

  // A state space anchored in a different conservation class (one less
  // substrate molecule) cannot map into this box.
  auto other = init;
  other[0] -= 1;
  const StateSpace space(net, other, 100000);
  std::vector<real_t> from(static_cast<std::size_t>(space.size()), 1.0);
  std::vector<real_t> to(static_cast<std::size_t>(op.nrows()));
  EXPECT_THROW(op.scatter_from(space, from, to), std::invalid_argument);
}

}  // namespace
}  // namespace cmesolve::solver
