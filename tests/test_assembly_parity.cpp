// Parity of the two transient-FSP cost cuts against the straightforward
// forms they replace, bit for bit:
//
//   * every CME generator — ProjectedRateMatrix::assemble and
//     assemble_absorbing over resolved successor indices, and rate_matrix —
//     against triplets collected in a Coo and converted by csr_from_coo, on
//     every family in core/models through grow -> compact -> regrow, and on
//     directed networks whose reactions share a net change;
//   * fsp::solve_transient, which stops a lost round at its first checkpoint
//     past tol, against a copy of the loop that propagates every round over
//     the whole grid and assembles through Coo: same member set, marginals,
//     sink masses, bound and flags, with fewer matvecs.
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
#include "solver/krylov_expm.hpp"
#include "solver/operators.hpp"
#include "solver/transient.hpp"
#include "solver/vector_ops.hpp"
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

// --- transient FSP: the full-grid loop ---------------------------------------

struct ReferenceRound {
  index_t states = 0;
  real_t sink_mass = 0.0;
  std::uint64_t matvecs = 0;
};

struct ReferenceTransient {
  core::DynamicStateSpace space;
  std::vector<std::vector<real_t>> marginals;
  std::vector<real_t> sink_mass;
  real_t error_bound = std::numeric_limits<real_t>::infinity();
  bool converged = false;
  bool truncated_early = false;
  std::vector<ReferenceRound> rounds;
  std::uint64_t total_matvecs = 0;
};

/// fsp::solve_transient as it was before lost rounds stopped early: every
/// round propagates over the whole grid, and each round's generator and
/// growth candidates come from direct lookups and a Coo assembly.
ReferenceTransient reference_solve_transient(
    const core::ReactionNetwork& net, const core::State& initial,
    const std::vector<real_t>& grid, const fsp::TransientFspOptions& opt) {
  core::DynamicStateSpace space(net, initial);
  space.grow_bfs(std::min(opt.seed_states, opt.max_states));
  solver::TransientOptions uopt = opt.uniformization;
  uopt.renormalize = false;
  solver::KrylovExpmOptions kopt = opt.krylov;
  kopt.renormalize = false;

  std::vector<ReferenceRound> rounds;
  std::uint64_t total_matvecs = 0;
  bool converged = false;
  bool truncated = false;
  real_t bound = std::numeric_limits<real_t>::infinity();
  std::vector<std::vector<real_t>> marginals;
  std::vector<real_t> sinks;

  for (int round = 1; round <= opt.max_rounds; ++round) {
    const index_t n = space.size();
    const Projected rs = reference_projected(net, space, -1);
    const solver::CsrOperator op(rs.a);
    std::vector<real_t> p(static_cast<std::size_t>(n), 0.0);
    p[static_cast<std::size_t>(space.find(initial))] = 1.0;

    marginals.assign(grid.size(), {});
    sinks.assign(grid.size(), 0.0);
    std::uint64_t matvecs = 0;
    std::size_t reached = 0;
    bool round_truncated = false;
    const auto record = [&](std::size_t i, std::span<const real_t> pi) {
      marginals[i].assign(pi.begin(), pi.end());
      sinks[i] = std::max<real_t>(0.0, 1.0 - solver::norm_l1(pi));
      reached = i + 1;
      return true;
    };
    if (opt.engine == fsp::TransientEngine::kUniformization) {
      const auto r = solver::transient_solve_grid(
          op, grid, std::span<real_t>(p), record, uopt);
      matvecs = r.matvecs;
      round_truncated = r.truncated_early;
    } else {
      real_t from = 0.0;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto r = solver::krylov_expm_solve(
            op, grid[i] - from, std::span<real_t>(p), kopt);
        from = grid[i];
        matvecs += r.matvecs;
        if (r.truncated_early || r.tol_not_met) {
          round_truncated = true;
          break;
        }
        record(i, p);
      }
    }
    total_matvecs += matvecs;
    if (round_truncated) {
      for (std::size_t i = reached; i < grid.size(); ++i) {
        marginals[i].clear();
        sinks[i] = std::numeric_limits<real_t>::infinity();
      }
      bound = std::numeric_limits<real_t>::infinity();
      truncated = true;
      rounds.push_back({n, bound, matvecs});
      break;
    }
    bound = sinks.back();
    rounds.push_back({n, bound, matvecs});
    if (bound <= opt.tol) {
      converged = true;
      break;
    }

    std::vector<core::State> additions;
    for (index_t j = 0; j < n; ++j) {
      if (rs.outflow[static_cast<std::size_t>(j)] > 0.0) {
        for (core::State& s : reference_outside(net, space, j)) {
          additions.push_back(std::move(s));
        }
      }
    }
    const index_t before_add = space.size();
    for (const core::State& s : additions) {
      if (static_cast<std::size_t>(space.size()) >= opt.max_states) break;
      space.add(s);
    }
    if (opt.min_growth > 0.0) {
      const std::size_t target = std::min(
          opt.max_states,
          static_cast<std::size_t>(before_add) +
              static_cast<std::size_t>(
                  std::ceil(opt.min_growth * static_cast<real_t>(n))));
      index_t layer_begin = before_add;
      index_t layer_end = space.size();
      while (static_cast<std::size_t>(space.size()) < target &&
             layer_end > layer_begin) {
        for (index_t j = layer_begin;
             j < layer_end && static_cast<std::size_t>(space.size()) < target;
             ++j) {
          const core::State s = space.state(j);
          for (int k = 0; k < net.num_reactions(); ++k) {
            if (static_cast<std::size_t>(space.size()) >= target) break;
            if (net.applicable(k, s)) space.add(net.apply(k, s));
          }
        }
        layer_begin = layer_end;
        layer_end = space.size();
      }
    }
    if (space.size() == before_add) break;
  }
  return ReferenceTransient{std::move(space), std::move(marginals),
                            std::move(sinks), bound,
                            converged,        truncated,
                            std::move(rounds), total_matvecs};
}

/// Everything the answer carries matches bit for bit; lost rounds stop
/// early and cost less. Returns the matvecs saved.
std::uint64_t expect_transient_parity(const core::ReactionNetwork& net,
                                      const core::State& initial,
                                      const std::vector<real_t>& grid,
                                      const fsp::TransientFspOptions& opt) {
  const ReferenceTransient ref =
      reference_solve_transient(net, initial, grid, opt);
  const auto got = fsp::solve_transient(net, initial, grid, opt);

  EXPECT_EQ(got.space.size(), ref.space.size());
  if (got.space.size() == ref.space.size()) {
    for (index_t i = 0; i < ref.space.size(); ++i) {
      EXPECT_EQ(got.space.state(i), ref.space.state(i)) << "member " << i;
    }
  }
  EXPECT_EQ(got.marginals.size(), ref.marginals.size());
  for (std::size_t g = 0;
       g < std::min(got.marginals.size(), ref.marginals.size()); ++g) {
    EXPECT_TRUE(same_bits(got.marginals[g], ref.marginals[g])) << "g=" << g;
  }
  EXPECT_TRUE(same_bits(got.sink_mass, ref.sink_mass));
  EXPECT_TRUE(same_bits(got.error_bound, ref.error_bound));
  EXPECT_EQ(got.converged, ref.converged);
  EXPECT_EQ(got.truncated_early, ref.truncated_early);

  EXPECT_EQ(got.rounds.size(), ref.rounds.size());
  std::uint64_t got_total = 0;
  for (std::size_t r = 0; r < std::min(got.rounds.size(), ref.rounds.size());
       ++r) {
    const fsp::TransientFspRound& g = got.rounds[r];
    const ReferenceRound& w = ref.rounds[r];
    EXPECT_EQ(g.round, static_cast<int>(r) + 1);
    EXPECT_EQ(g.states, w.states) << "round " << g.round;
    got_total += g.matvecs;
    if (g.checkpoints < grid.size()) {
      // A lost round: stopped past tol, on a lower bound of its final sink.
      EXPECT_GT(g.sink_mass, opt.tol) << "round " << g.round;
      EXPECT_LE(g.sink_mass, w.sink_mass) << "round " << g.round;
      EXPECT_LT(g.matvecs, w.matvecs) << "round " << g.round;
      EXPECT_LT(r + 1, got.rounds.size()) << "the last round stopped early";
    } else {
      EXPECT_EQ(g.checkpoints, grid.size());
      EXPECT_TRUE(same_bits(g.sink_mass, w.sink_mass)) << "round " << g.round;
      EXPECT_EQ(g.matvecs, w.matvecs) << "round " << g.round;
    }
  }
  EXPECT_EQ(got.total_matvecs, got_total);
  EXPECT_LE(got.total_matvecs, ref.total_matvecs);
  return ref.total_matvecs - std::min(ref.total_matvecs, got.total_matvecs);
}

core::ReactionNetwork immigration_death() {
  core::ReactionNetwork net;
  const int x = net.add_species("X", 40);
  net.add_reaction("birth", 4.0, {}, {{x, +1}});
  net.add_reaction("death", 1.0, {{x, 1}}, {{x, -1}});
  return net;
}

const std::vector<real_t> kGrid{0.5, 1.0, 1.5, 2.0};

fsp::TransientFspOptions engine_options(fsp::TransientEngine engine) {
  fsp::TransientFspOptions opt;
  opt.engine = engine;
  opt.krylov.tol = 1e-13;
  return opt;
}

TEST(TransientParity, ImmigrationDeathMatchesFullGridLoop) {
  const auto net = immigration_death();
  for (const auto engine : {fsp::TransientEngine::kUniformization,
                            fsp::TransientEngine::kKrylov}) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   " threads " + std::to_string(threads));
      ThreadBudget budget(threads);
      fsp::TransientFspOptions opt = engine_options(engine);
      opt.tol = 1e-8;
      opt.seed_states = 4;
      EXPECT_GT(expect_transient_parity(net, core::State{0}, kGrid, opt), 0u);
    }
  }
}

TEST(TransientParity, PhageLambdaMatchesFullGridLoop) {
  core::models::PhageLambdaParams params;
  params.cap_ci = params.cap_cro = 4;
  params.cap_ci2 = params.cap_cro2 = 2;
  const auto net = core::models::phage_lambda(params);
  const auto initial = core::models::phage_lambda_initial(params);
  for (const auto engine : {fsp::TransientEngine::kUniformization,
                            fsp::TransientEngine::kKrylov}) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   " threads " + std::to_string(threads));
      ThreadBudget budget(threads);
      fsp::TransientFspOptions opt = engine_options(engine);
      opt.tol = 1e-6;
      opt.seed_states = 16;
      EXPECT_GT(expect_transient_parity(net, initial, kGrid, opt), 0u);
    }
  }
}

TEST(TransientParity, NonConvergedBudgetsMatchFullGridLoop) {
  const auto net = immigration_death();
  for (const auto engine : {fsp::TransientEngine::kUniformization,
                            fsp::TransientEngine::kKrylov}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    for (const int max_rounds : {1, 2}) {
      fsp::TransientFspOptions opt = engine_options(engine);
      opt.tol = 1e-8;
      opt.seed_states = 4;
      opt.max_rounds = max_rounds;
      (void)expect_transient_parity(net, core::State{0}, kGrid, opt);
      const auto res = fsp::solve_transient(net, core::State{0}, kGrid, opt);
      EXPECT_FALSE(res.converged);
      EXPECT_EQ(res.rounds.back().checkpoints, kGrid.size());
    }
    // A state cap that is hit: the capped round must run the whole grid.
    fsp::TransientFspOptions opt = engine_options(engine);
    opt.tol = 1e-8;
    opt.seed_states = 4;
    opt.max_states = 9;
    (void)expect_transient_parity(net, core::State{0}, kGrid, opt);
    const auto res = fsp::solve_transient(net, core::State{0}, kGrid, opt);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.space.size(), 9);
    EXPECT_EQ(res.rounds.back().checkpoints, kGrid.size());
  }
}

}  // namespace
}  // namespace cmesolve
