// The transient-FSP pipeline against straightforward references:
//
//   * every CME generator — ProjectedRateMatrix::assemble and
//     assemble_absorbing over resolved successor indices, and rate_matrix —
//     bit for bit against triplets collected in a Coo and converted by
//     csr_from_coo, on every family in core/models through grow -> compact
//     -> regrow, and on directed networks whose reactions share a net
//     change;
//   * fsp::solve_transient, which steps through its grid over a growing
//     member set, against P(t) propagated over the whole reachable box:
//     every marginal is a lower bound within its sink mass of the reference,
//     the answer is the same at any thread count, and a converged run
//     repeats only the segment that failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "fsp/fsp.hpp"
#include "solver/operators.hpp"
#include "solver/transient.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/parallel.hpp"

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

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

bool same_bits(real_t a, real_t b) {
  return std::memcmp(&a, &b, sizeof(real_t)) == 0;
}

void expect_same_csr(const sparse::Csr& got, const sparse::Csr& want,
                     const std::string& what) {
  EXPECT_EQ(got.nrows, want.nrows) << what;
  EXPECT_EQ(got.ncols, want.ncols) << what;
  EXPECT_EQ(got.row_ptr, want.row_ptr) << what;
  EXPECT_EQ(got.col_idx, want.col_idx) << what;
  EXPECT_TRUE(same_bits(got.val, want.val)) << what;
}

// --- reference assembly: Coo triplets + csr_from_coo ------------------------

/// Generator column of state x: successors and rates in reaction order, null
/// transitions dropped, plus the total rate leaving x.
struct Column {
  std::vector<core::State> succ;
  std::vector<real_t> rate;
  real_t total = 0.0;
};

Column column_of(const core::ReactionNetwork& net, const core::State& x) {
  Column c;
  for (int k = 0; k < net.num_reactions(); ++k) {
    if (!net.within_capacity(k, x)) continue;
    const real_t a = net.propensity(k, x);
    if (a <= 0.0) continue;
    core::State next = net.apply(k, x);
    if (next == x) continue;
    c.succ.push_back(std::move(next));
    c.rate.push_back(a);
    c.total += a;
  }
  return c;
}

struct Projected {
  sparse::Csr a;
  std::vector<real_t> outflow;
};

/// The projected generator over `space` through Coo. `ret` >= 0 redirects
/// the leaked flux to that member (assemble); `ret` < 0 drops it
/// (assemble_absorbing).
Projected reference_projected(const core::ReactionNetwork& net,
                              const core::DynamicStateSpace& space,
                              index_t ret) {
  const index_t n = space.size();
  sparse::Coo coo;
  coo.nrows = coo.ncols = n;
  Projected out;
  out.outflow.assign(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    const Column c = column_of(net, space.state(j));
    real_t leaked = 0.0;
    for (std::size_t s = 0; s < c.succ.size(); ++s) {
      const index_t i = space.find(c.succ[s]);
      if (i >= 0) {
        coo.add(i, j, c.rate[s]);
      } else {
        leaked += c.rate[s];
      }
    }
    if (ret >= 0) {
      if (leaked > 0.0 && ret != j) coo.add(ret, j, leaked);
      coo.add(j, j, -(c.total - (ret == j ? leaked : 0.0)));
    } else {
      coo.add(j, j, -c.total);
    }
    out.outflow[static_cast<std::size_t>(j)] = leaked;
  }
  out.a = sparse::csr_from_coo(std::move(coo));
  return out;
}

sparse::Csr reference_rate_matrix(const core::StateSpace& space) {
  const core::ReactionNetwork& net = space.network();
  const index_t n = space.size();
  sparse::Coo coo;
  coo.nrows = coo.ncols = n;
  for (index_t j = 0; j < n; ++j) {
    const Column c = column_of(net, space.state(j));
    for (std::size_t s = 0; s < c.succ.size(); ++s) {
      coo.add(space.find(c.succ[s]), j, c.rate[s]);
    }
    coo.add(j, j, -c.total);
  }
  return sparse::csr_from_coo(std::move(coo));
}

/// Out-of-set successors of member j by direct lookup, in reaction order.
std::vector<core::State> reference_outside(const core::ReactionNetwork& net,
                                           const core::DynamicStateSpace& space,
                                           index_t j) {
  std::vector<core::State> out;
  for (core::State& s : column_of(net, space.state(j)).succ) {
    if (space.find(s) < 0) out.push_back(std::move(s));
  }
  return out;
}

/// Both projected assemblies and the growth candidates of every member.
void expect_projected_parity(const core::ReactionNetwork& net,
                             const core::DynamicStateSpace& space,
                             const core::ProjectedRateMatrix& matrix,
                             index_t ret, const std::string& what) {
  const auto absorbing = matrix.assemble_absorbing(space);
  const Projected ref_abs = reference_projected(net, space, -1);
  expect_same_csr(absorbing.a, ref_abs.a, what + " absorbing");
  EXPECT_TRUE(same_bits(absorbing.outflow, ref_abs.outflow)) << what;

  const auto redirected = matrix.assemble(space, ret);
  const Projected ref_red = reference_projected(net, space, ret);
  expect_same_csr(redirected.a, ref_red.a, what + " redirected");
  EXPECT_TRUE(same_bits(redirected.outflow, ref_red.outflow)) << what;

  for (index_t j = 0; j < space.size(); ++j) {
    std::vector<core::StateKey> keys;
    matrix.out_of_set_successors(space, j, keys);
    std::vector<core::State> outside;
    for (const core::StateKey& key : keys) {
      core::State x(static_cast<std::size_t>(net.num_species()));
      space.packer().unpack(key, x.data());
      outside.push_back(std::move(x));
    }
    EXPECT_EQ(outside, reference_outside(net, space, j)) << what << " j=" << j;
  }
}

/// grow -> compact -> regrow, checking every assembly at each stage.
void check_family(const core::ReactionNetwork& net,
                  const core::State& initial, const std::string& name) {
  SCOPED_TRACE(name);
  core::StateSpace full(net, initial, 1'000'000);
  ASSERT_FALSE(full.truncated());
  expect_same_csr(core::rate_matrix(full), reference_rate_matrix(full),
                  name + " rate_matrix");

  core::DynamicStateSpace space(net, initial);
  space.grow_bfs(150);
  core::ProjectedRateMatrix matrix(net);
  matrix.extend(space);
  expect_projected_parity(net, space, matrix, 0, name + " grown");

  // Drop every third member but the initial state: resolved successors of
  // the survivors must follow the renumbering or fall outside the set.
  std::vector<char> keep(static_cast<std::size_t>(space.size()), 1);
  for (index_t i = 1; i < space.size(); i += 3) {
    keep[static_cast<std::size_t>(i)] = 0;
  }
  const auto remap = space.compact(keep);
  matrix.compact(remap);
  const index_t mid = space.size() / 2;
  expect_projected_parity(net, space, matrix, mid, name + " compacted");

  // Regrow from the boundary: the pruned states come back as successors.
  std::vector<core::StateKey> additions;
  for (index_t j = 0; j < space.size(); ++j) {
    matrix.out_of_set_successors(space, j, additions);
  }
  for (const core::StateKey& key : additions) space.add(key);
  space.grow_bfs(static_cast<std::size_t>(space.size()) + 100);
  matrix.extend(space);
  expect_projected_parity(net, space, matrix, space.find(initial),
                          name + " regrown");
}

TEST(AssemblyParity, EveryModelFamilyMatchesCooThroughGrowCompactRegrow) {
  using namespace core::models;
  for (const int threads : {1, 8}) {
    ThreadBudget budget(threads);
    ToggleSwitchParams toggle;
    toggle.cap_a = toggle.cap_b = 20;
    check_family(toggle_switch(toggle), toggle_switch_initial(toggle),
                 "toggle_switch");
    BrusselatorParams bruss;
    bruss.cap_x = 30;
    bruss.cap_y = 15;
    check_family(brusselator(bruss), brusselator_initial(bruss),
                 "brusselator");
    SchnakenbergParams schnak;
    schnak.cap_x = 30;
    schnak.cap_y = 15;
    check_family(schnakenberg(schnak), schnakenberg_initial(schnak),
                 "schnakenberg");
    PhageLambdaParams phage;
    phage.cap_ci = phage.cap_cro = 4;
    phage.cap_ci2 = phage.cap_cro2 = 2;
    check_family(phage_lambda(phage), phage_lambda_initial(phage),
                 "phage_lambda");
    EnzymeKineticsParams enzyme;
    enzyme.cap_s = enzyme.cap_p = 15;
    check_family(enzyme_kinetics(enzyme), enzyme_kinetics_initial(enzyme),
                 "enzyme_kinetics");
    FutileCycleParams futile;
    futile.substrate_total = 10;
    futile.enzyme1_total = futile.enzyme2_total = 1;
    check_family(futile_cycle(futile), futile_cycle_initial(futile),
                 "futile_cycle");
    SirParams sir_params;
    sir_params.cap_s = sir_params.cap_i = sir_params.cap_r = 10;
    check_family(sir(sir_params), sir_initial(sir_params), "sir");
  }
}

/// Directed conversion X -> Y by `sharing` reactions with the same net
/// change (-1, +1), fed by immigration of X and drained by decay of Y.
core::ReactionNetwork shared_change_network(int sharing, bool integer_rates) {
  core::ReactionNetwork net;
  const int x = net.add_species("X", 12);
  const int y = net.add_species("Y", 12);
  net.add_reaction("feed", integer_rates ? 3.0 : 2.3, {}, {{x, +1}});
  net.add_reaction("convert", integer_rates ? 1.0 : 0.7, {{x, 1}},
                   {{x, -1}, {y, +1}});
  net.add_reaction("catalysed", integer_rates ? 2.0 : 0.3, {{x, 1}, {y, 1}},
                   {{x, -1}, {y, +1}});
  if (sharing == 3) {
    net.add_reaction("paired", integer_rates ? 1.0 : 0.11, {{x, 2}},
                     {{x, -1}, {y, +1}});
  }
  net.add_reaction("decay", integer_rates ? 1.0 : 1.1, {{y, 1}}, {{y, -1}});
  return net;
}

TEST(AssemblyParity, TwoReactionsSharingANetChangeMatchCoo) {
  // Two contributions sum to the same bits in either order, so any rates
  // must match the index-sorted Coo sum.
  const auto net = shared_change_network(2, false);
  check_family(net, core::State{0, 0}, "two shared");
}

TEST(AssemblyParity, ThreeReactionsSharingANetChangeMatchCoo) {
  // Coo's index sort leaves the order of three equal keys unspecified; with
  // integer propensities every order gives the same bits.
  const auto net = shared_change_network(3, true);
  check_family(net, core::State{0, 0}, "three shared");
}

TEST(AssemblyParity, ThreeSharedContributionsSumInStencilOrder) {
  const auto net = shared_change_network(3, false);
  const core::StateSpace full(net, core::State{0, 0}, 1'000'000);
  const auto a = core::rate_matrix(full);
  const core::State x{5, 4};
  const index_t j = full.find(x);
  const index_t i = full.find(core::State{4, 5});
  ASSERT_GE(j, 0);
  ASSERT_GE(i, 0);
  // Reactions 1, 2, 3 share the change; reaction order is stencil order.
  const real_t want =
      (net.propensity(1, x) + net.propensity(2, x)) + net.propensity(3, x);
  EXPECT_TRUE(same_bits(a.at(i, j), want));

  core::DynamicStateSpace space(net, core::State{0, 0});
  space.grow_bfs(1'000'000);
  core::ProjectedRateMatrix matrix(net);
  matrix.extend(space);
  const auto absorbing = matrix.assemble_absorbing(space);
  EXPECT_TRUE(same_bits(absorbing.a.at(space.find(core::State{4, 5}),
                                       space.find(x)),
                        want));
}

TEST(AssemblyParity, StaleCacheThrows) {
  const auto net = shared_change_network(2, false);
  core::DynamicStateSpace space(net, core::State{0, 0});
  space.grow_bfs(10);
  core::ProjectedRateMatrix matrix(net);
  matrix.extend(space);
  space.grow_bfs(20);
  std::vector<core::StateKey> out;
  EXPECT_THROW((void)matrix.assemble(space, 0), std::logic_error);
  EXPECT_THROW((void)matrix.assemble_absorbing(space), std::logic_error);
  EXPECT_THROW(matrix.out_of_set_successors(space, 0, out), std::logic_error);
  matrix.extend(space);
  EXPECT_NO_THROW((void)matrix.assemble_absorbing(space));
}

// --- transient FSP: the bound against the full-box propagation -------------

const std::vector<real_t> kGrid{0.5, 1.0, 1.5, 2.0};

/// P(t) at every grid point over the reachable capacity box: the full
/// generator from rate_matrix, propagated by uniformization at eps 1e-14.
std::vector<std::vector<real_t>> full_box_reference(
    const core::StateSpace& full, const core::State& initial) {
  const solver::CsrOperator op(core::rate_matrix(full));
  solver::TransientOptions uopt;
  uopt.eps = 1e-14;
  std::vector<real_t> p(static_cast<std::size_t>(full.size()), 0.0);
  p[static_cast<std::size_t>(full.find(initial))] = 1.0;
  std::vector<std::vector<real_t>> out;
  real_t from = 0.0;
  for (const real_t t : kGrid) {
    const auto r =
        solver::transient_solve(op, t - from, std::span<real_t>(p), uopt);
    EXPECT_FALSE(r.truncated_early);
    from = t;
    out.push_back(p);
  }
  return out;
}

/// Every marginal is a componentwise lower bound of the reference within
/// 1e-12 and lies within its sink mass (+ 1e-12) of it in L1; the sink mass
/// never falls along the grid; a converged answer meets tol; and every grid
/// point was accepted on exactly one member set.
void expect_honest_bound(const fsp::TransientFspResult& res,
                         const core::StateSpace& full,
                         const std::vector<std::vector<real_t>>& ref,
                         real_t tol) {
  ASSERT_FALSE(res.truncated_early);
  ASSERT_EQ(res.marginals.size(), kGrid.size());
  ASSERT_EQ(res.sink_mass.size(), kGrid.size());
  const auto n = static_cast<std::size_t>(res.space.size());
  std::vector<std::size_t> where(n);
  for (std::size_t i = 0; i < n; ++i) {
    const index_t j = full.find(res.space.state(static_cast<index_t>(i)));
    ASSERT_GE(j, 0) << "member " << i << " outside the box";
    where[i] = static_cast<std::size_t>(j);
  }
  for (std::size_t g = 0; g < kGrid.size(); ++g) {
    const std::vector<real_t>& m = res.marginals[g];
    ASSERT_EQ(m.size(), n) << "g=" << g;
    std::vector<char> member(ref[g].size(), 0);
    real_t excess = -std::numeric_limits<real_t>::infinity();
    real_t l1 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const real_t want = ref[g][where[i]];
      excess = std::max(excess, m[i] - want);
      l1 += std::abs(m[i] - want);
      member[where[i]] = 1;
    }
    for (std::size_t j = 0; j < ref[g].size(); ++j) {
      if (!member[j]) l1 += ref[g][j];
    }
    EXPECT_LE(excess, 1e-12) << "g=" << g;
    EXPECT_LE(l1, res.sink_mass[g] + 1e-12) << "g=" << g;
    if (g > 0) {
      EXPECT_GE(res.sink_mass[g], res.sink_mass[g - 1]) << "g=" << g;
    }
  }
  if (res.converged) {
    EXPECT_LE(res.error_bound, tol);
  }
  std::size_t accepted = 0;
  for (const fsp::TransientFspRound& r : res.rounds) accepted += r.checkpoints;
  EXPECT_EQ(accepted, kGrid.size());
}

/// solve_transient with both engines at 1, 2 and 8 threads: the same bits
/// at every thread count and an honest bound against the full box. A
/// converged answer repeats only the failing segment, so its last member
/// set accepts fewer grid points than the grid holds. Returns the
/// one-thread answer of each engine.
std::vector<fsp::TransientFspResult> expect_transient_bound(
    const core::ReactionNetwork& net, const core::State& initial,
    fsp::TransientFspOptions opt, bool converges) {
  const core::StateSpace full(net, initial, 1'000'000);
  EXPECT_FALSE(full.truncated());
  const auto ref = full_box_reference(full, initial);
  std::vector<fsp::TransientFspResult> answers;
  for (const auto engine : {fsp::TransientEngine::kUniformization,
                            fsp::TransientEngine::kKrylov}) {
    opt.engine = engine;
    opt.krylov.tol = 1e-13;
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   " threads " + std::to_string(threads));
      ThreadBudget budget(threads);
      auto res = fsp::solve_transient(net, initial, kGrid, opt);
      expect_honest_bound(res, full, ref, opt.tol);
      EXPECT_EQ(res.converged, converges);
      if (converges) {
        EXPECT_LT(res.rounds.back().checkpoints, kGrid.size());
      }
      if (threads == 1) {
        answers.push_back(std::move(res));
        continue;
      }
      const fsp::TransientFspResult& one = answers.back();
      EXPECT_EQ(res.space.size(), one.space.size());
      EXPECT_EQ(res.rounds.size(), one.rounds.size());
      EXPECT_EQ(res.total_matvecs, one.total_matvecs);
      EXPECT_EQ(res.marginals.size(), one.marginals.size());
      for (std::size_t g = 0;
           g < std::min(res.marginals.size(), one.marginals.size()); ++g) {
        EXPECT_TRUE(same_bits(res.marginals[g], one.marginals[g]))
            << "g=" << g;
      }
      EXPECT_TRUE(same_bits(res.sink_mass, one.sink_mass));
    }
  }
  return answers;
}

core::ReactionNetwork immigration_death() {
  core::ReactionNetwork net;
  const int x = net.add_species("X", 40);
  net.add_reaction("birth", 4.0, {}, {{x, +1}});
  net.add_reaction("death", 1.0, {{x, 1}}, {{x, -1}});
  return net;
}

TEST(TransientParity, ImmigrationDeathMatchesFullGridLoop) {
  fsp::TransientFspOptions opt;
  opt.tol = 1e-8;
  opt.seed_states = 4;
  (void)expect_transient_bound(immigration_death(), core::State{0}, opt,
                               true);
}

TEST(TransientParity, PhageLambdaMatchesFullGridLoop) {
  core::models::PhageLambdaParams params;
  params.cap_ci = params.cap_cro = 4;
  params.cap_ci2 = params.cap_cro2 = 2;
  fsp::TransientFspOptions opt;
  opt.tol = 1e-6;
  opt.seed_states = 16;
  (void)expect_transient_bound(core::models::phage_lambda(params),
                               core::models::phage_lambda_initial(params), opt,
                               true);
}

TEST(TransientParity, NonConvergedBudgetsMatchFullGridLoop) {
  const auto net = immigration_death();
  fsp::TransientFspOptions opt;
  opt.tol = 1e-8;
  opt.seed_states = 4;
  for (const int max_rounds : {1, 2}) {
    SCOPED_TRACE("max_rounds " + std::to_string(max_rounds));
    opt.max_rounds = max_rounds;
    for (const auto& res :
         expect_transient_bound(net, core::State{0}, opt, false)) {
      EXPECT_EQ(res.rounds.size(), static_cast<std::size_t>(max_rounds));
    }
  }
  // A state cap that is hit: the capped set accepts the rest of the grid.
  opt.max_rounds = fsp::TransientFspOptions{}.max_rounds;
  opt.max_states = 9;
  for (const auto& res :
       expect_transient_bound(net, core::State{0}, opt, false)) {
    EXPECT_EQ(res.space.size(), 9);
  }
}

}  // namespace
}  // namespace cmesolve
