// Fused sweep epilogues (solver/sweep_epilogue.hpp): jacobi_solve forms
// the Jacobi update, each renormalize sweep's L1 sum and the residual check
// inside the operator's sweep. This suite pins it, bit for bit, against a
// test-local copy of the unfused loop it replaced — multiply, then
// separate scale/swap, normalization and residual passes — for every
// JacobiOperator, both update formulas, 1/2/8 threads and every compiled
// ISA, flight-recorder signatures and residual histories included.
#include <gtest/gtest.h>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "core/stencil.hpp"
#include "obs/flight_recorder.hpp"
#include "solver/jacobi.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/simd_kernels.hpp"

namespace cmesolve::solver {
namespace {

namespace simd = util::simd;

#if defined(_OPENMP)
// The thread-count axis under test is the pool's: fused sweeps and epilogue
// passes run on it. The assembled formats' OpenMP SpMV loops stay serial
// here — row-parallel, they cannot change a bit — because their
// spin-waiting threads slow this suite a hundredfold when ctest runs
// several OpenMP processes side by side.
[[maybe_unused]] const bool kSerialOpenMp = [] {
  omp_set_num_threads(1);
  return true;
}();
#endif

class ThreadBudget {
 public:
  explicit ThreadBudget(int n) { util::set_max_threads(n); }
  ~ThreadBudget() { util::set_max_threads(0); }
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;
};

class ForcedIsa {
 public:
  explicit ForcedIsa(simd::Isa isa) : ok_(simd::force_isa(isa)) {}
  ~ForcedIsa() { simd::reset_forced_isa(); }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  ForcedIsa(const ForcedIsa&) = delete;
  ForcedIsa& operator=(const ForcedIsa&) = delete;

 private:
  bool ok_;
};

bool same_bits(real_t a, real_t b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

/// Runs `body` under every compiled ISA the CPU supports x 1/2/8 threads.
template <class Body>
void for_each_isa_and_thread_count(Body&& body) {
  for (const simd::Isa isa : simd::compiled_isas()) {
    for (const int threads : {1, 2, 8}) {
      ThreadBudget budget(threads);
      ForcedIsa forced(isa);
      if (!forced.ok()) continue;  // compiled in, CPU lacks it
      body(std::string("isa=") + simd::to_string(isa) +
           " threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// The unfused reference loops.
// ---------------------------------------------------------------------------

/// jacobi_solve before the sweep epilogues: next = (L+U)x, then a separate
/// scale+swap pass, normalize_l1 passes, and a residual check with its own
/// product, cmul_add pass and two inf-norm passes. Flight events as the
/// solver records them.
template <class Op>
JacobiResult unfused_jacobi(const Op& op, real_t a_inf_norm,
                            std::span<real_t> x, const JacobiOptions& opt) {
  const auto n = static_cast<std::size_t>(op.nrows());
  const std::span<const real_t> d = op.diag();
  std::vector<real_t> next(n);
  std::vector<real_t> resid(n);
  const real_t omega = opt.damping;
  const util::simdk::KernelOps& ko = util::simdk::kernels();
  JacobiResult out;
  real_t prev_residual = -1.0;
  std::uint32_t flat_checks = 0;
  std::uint64_t check_number = 0;
  const std::size_t history_cap =
      opt.history_capacity > 0 ? std::max<std::size_t>(opt.history_capacity, 2)
                               : 0;
  normalize_l1(x);
  for (std::uint64_t it = 1; it <= opt.max_iterations; ++it) {
    op.multiply(x, next);
    util::parallel_for(n, [&](std::size_t b, std::size_t e) {
      if (omega == 1.0) {
        ko.scale_swap(x.data() + b, next.data() + b, d.data() + b, e - b);
      } else {
        ko.scale_swap_damped(x.data() + b, next.data() + b, d.data() + b,
                             omega, e - b);
      }
    });
    out.iterations = it;
    if (opt.normalize_every > 0 && it % opt.normalize_every == 0) {
      obs::flight("jacobi.l1_drift", obs::FlightKind::kNormalization, it,
                  norm_l1(x));
      normalize_l1(x);
    }
    if (it % opt.check_every == 0 || it == opt.max_iterations) {
      normalize_l1(x);
      op.multiply(x, resid);
      util::parallel_for(n, [&](std::size_t b, std::size_t e) {
        ko.cmul_add(resid.data() + b, d.data() + b, x.data() + b, e - b);
      });
      const real_t xn = norm_inf(x);
      const real_t rn = norm_inf(resid);
      if (rn == 0.0) {
        out.residual = 0.0;
        obs::flight("jacobi.residual", obs::FlightKind::kResidual, it, 0.0);
        out.reason = StopReason::kConverged;
        break;
      }
      out.residual = rn / (a_inf_norm * (xn > 0 ? xn : 1.0));
      obs::flight("jacobi.residual", obs::FlightKind::kResidual, it,
                  out.residual);
      if (history_cap > 0) {
        if (check_number % out.history_stride == 0) {
          if (out.residual_history.size() >= history_cap) {
            std::size_t w = 0;
            for (std::size_t r = 0; r < out.residual_history.size(); r += 2) {
              out.residual_history[w++] = out.residual_history[r];
            }
            out.residual_history.resize(w);
            out.history_stride *= 2;
          }
          if (check_number % out.history_stride == 0) {
            out.residual_history.push_back({it, out.residual});
          }
        }
        ++check_number;
      }
      if (out.residual <= opt.eps) {
        out.reason = StopReason::kConverged;
        break;
      }
      if (prev_residual > 0.0 &&
          std::abs(out.residual - prev_residual) / prev_residual <=
              opt.stagnation_eps) {
        obs::flight("jacobi.stagnation", obs::FlightKind::kStagnation, it,
                    std::abs(out.residual - prev_residual) / prev_residual);
        if (++flat_checks >= opt.stagnation_patience) {
          out.reason = StopReason::kStagnated;
          break;
        }
      } else {
        flat_checks = 0;
      }
      prev_residual = out.residual;
    }
  }
  normalize_l1(x);
  obs::flight("jacobi.stop", obs::FlightKind::kStop, out.iterations,
              static_cast<double>(out.reason));
  return out;
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

struct JacobiRun {
  std::vector<real_t> x;
  JacobiResult res;
  std::uint64_t flight_sig = 0;
};

template <class Solve>
JacobiRun record_jacobi(std::vector<real_t> x0, Solve&& solve) {
  JacobiRun out;
  out.x = std::move(x0);
  auto& flight = obs::FlightRecorder::instance();
  flight.enable();
  out.res = solve(out.x);
  out.flight_sig = flight.content_signature();
  flight.disable();
  return out;
}

void expect_same_run(const JacobiRun& got, const JacobiRun& ref,
                     const std::string& ctx) {
  EXPECT_TRUE(same_bits(got.x, ref.x)) << ctx;
  EXPECT_EQ(got.res.iterations, ref.res.iterations) << ctx;
  EXPECT_EQ(got.res.reason, ref.res.reason) << ctx;
  EXPECT_TRUE(same_bits(got.res.residual, ref.res.residual)) << ctx;
  EXPECT_EQ(got.res.history_stride, ref.res.history_stride) << ctx;
  ASSERT_EQ(got.res.residual_history.size(), ref.res.residual_history.size())
      << ctx;
  for (std::size_t i = 0; i < ref.res.residual_history.size(); ++i) {
    EXPECT_EQ(got.res.residual_history[i].iteration,
              ref.res.residual_history[i].iteration)
        << ctx;
    EXPECT_TRUE(same_bits(got.res.residual_history[i].residual,
                          ref.res.residual_history[i].residual))
        << ctx;
  }
  EXPECT_EQ(got.flight_sig, ref.flight_sig) << ctx;
}

/// Fused jacobi_solve vs the unfused loop (reference taken once, scalar
/// table at 1 thread) at every ISA x 1/2/8 threads.
template <class Op>
void expect_jacobi_parity(const Op& op, real_t norm,
                          const std::vector<real_t>& x0,
                          const JacobiOptions& opt, const std::string& name) {
  JacobiRun ref;
  {
    ThreadBudget serial(1);
    ForcedIsa scalar(simd::Isa::kScalar);
    ASSERT_TRUE(scalar.ok());
    ref = record_jacobi(x0, [&](std::vector<real_t>& x) {
      return unfused_jacobi(op, norm, x, opt);
    });
  }
  for_each_isa_and_thread_count([&](const std::string& where) {
    const JacobiRun run = record_jacobi(x0, [&](std::vector<real_t>& x) {
      return jacobi_solve(op, norm, x, opt);
    });
    expect_same_run(run, ref,
                    name + " damping=" + std::to_string(opt.damping) +
                        " max_iterations=" +
                        std::to_string(opt.max_iterations) + " " + where);
  });
}

/// Box rows of the phage-lambda stencil, 2 kReduceChunk chunks, 58 % of
/// them masked (most in wholly masked tiles).
core::models::PhageLambdaParams small_phage() {
  core::models::PhageLambdaParams p;
  p.cap_ci = p.cap_cro = 4;
  p.cap_ci2 = p.cap_cro2 = 2;
  return p;
}

/// Box seed: uniform over the enumerated states, plus nonzero and -0.0
/// values on rows the space does not cover (masked rows among them), so
/// the masked-tile shortcut sees more than +0 inputs.
std::vector<real_t> seeded_box(const StencilOperator& op,
                               const core::StateSpace& space) {
  const auto n = static_cast<std::size_t>(op.nrows());
  std::vector<real_t> uniform(static_cast<std::size_t>(space.size()),
                              1.0 / static_cast<real_t>(space.size()));
  std::vector<real_t> x(n);
  op.scatter_from(space, uniform, x);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] != 0.0) continue;
    if (i % 3 == 0) x[i] = -0.0;
    if (i % 3 == 1) x[i] = 1e-4 * static_cast<real_t>(1 + i % 7);
  }
  return x;
}

std::vector<JacobiOptions> option_grid() {
  std::vector<JacobiOptions> grid;
  for (const real_t damping : {1.0, 0.95}) {
    // Odd and even final iteration counts: the iterate ends in the work
    // buffer or in x, so the copy-back runs or not. The schedule mixes
    // renormalize-only sweeps, checks that follow a renormalize, and a
    // final check off both periods.
    for (const std::uint64_t iters : {1, 47, 50}) {
      JacobiOptions opt;
      opt.eps = 1e-30;
      opt.damping = damping;
      opt.max_iterations = iters;
      opt.check_every = 20;
      opt.normalize_every = 5;
      opt.history_capacity = 2;  // the third check compacts the history
      grid.push_back(opt);
    }
  }
  return grid;
}

TEST(SweepEpilogueJacobi, StencilOperatorsMatchUnfusedLoop) {
  const auto params = small_phage();
  const auto net = core::models::phage_lambda(params);
  const auto init = core::models::phage_lambda_initial(params);
  const core::StateSpace space(net, init, 1'000'000);
  const StencilOperator recompute(net, init);
  const StencilOperator cached(recompute.table(),
                               StencilMode::kPropensityCache);
  ASSERT_GT(recompute.nrows(), static_cast<index_t>(kReduceChunk));
  ASSERT_GT(recompute.rows_masked(), 0);
  // Masked rows seeded nonzero and -0.0, and the plain scatter whose +0
  // masked rows let the recompute sweep skip masked tiles from sweep 3 on.
  std::vector<real_t> scattered(static_cast<std::size_t>(recompute.nrows()));
  recompute.scatter_from(
      space,
      std::vector<real_t>(static_cast<std::size_t>(space.size()),
                          1.0 / static_cast<real_t>(space.size())),
      scattered);
  for (const auto& x0 : {seeded_box(recompute, space), scattered}) {
    for (const JacobiOptions& opt : option_grid()) {
      expect_jacobi_parity(recompute, recompute.inf_norm(), x0, opt,
                           "stencil-recompute");
      expect_jacobi_parity(cached, cached.inf_norm(), x0, opt,
                           "stencil-cache");
    }
  }
}

TEST(SweepEpilogueJacobi, MaskedStencilOperatorMatchesUnfusedLoop) {
  const auto params = small_phage();
  const auto net = core::models::phage_lambda(params);
  const auto init = core::models::phage_lambda_initial(params);
  const core::StencilTable table(net, init);
  core::DynamicStateSpace dyn(net, init);
  dyn.grow_bfs(1500);  // partial cover: a real out-of-set leak
  // Return member at the median member row of the most populated
  // kReduceChunk chunk: its chunk's held-back epilogue then has nonzero
  // rows on both sides of it, so the L1 order across the hold is tested.
  std::vector<std::vector<std::pair<index_t, index_t>>> by_chunk;
  for (index_t j = 0; j < dyn.size(); ++j) {
    const index_t b = table.box_index(dyn.state(j));
    const auto c = static_cast<std::size_t>(b) / kReduceChunk;
    if (by_chunk.size() <= c) by_chunk.resize(c + 1);
    by_chunk[c].emplace_back(b, j);
  }
  auto& busiest = *std::max_element(
      by_chunk.begin(), by_chunk.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  ASSERT_GE(busiest.size(), 100u);
  std::sort(busiest.begin(), busiest.end());
  const index_t ret = busiest[busiest.size() / 2].second;
  const MaskedStencilOperator op(table, dyn, ret);
  std::vector<real_t> members(static_cast<std::size_t>(dyn.size()),
                              1.0 / static_cast<real_t>(dyn.size()));
  std::vector<real_t> x0(static_cast<std::size_t>(op.nrows()));
  op.scatter_from_members(members, x0);
  for (const JacobiOptions& opt : option_grid()) {
    expect_jacobi_parity(op, op.inf_norm(), x0, opt, "masked-stencil");
  }
}

TEST(SweepEpilogueJacobi, AssembledOperatorsMatchUnfusedLoop) {
  core::models::ToggleSwitchParams params;
  params.cap_a = params.cap_b = 50;
  const auto net = core::models::toggle_switch(params);
  const core::StateSpace space(
      net, core::models::toggle_switch_initial(params), 1'000'000);
  const sparse::Csr a = core::rate_matrix(space);
  ASSERT_GT(a.nrows, static_cast<index_t>(kReduceChunk));
  const CsrOperator csr(a);
  const CsrDiaOperator csr_dia(a);
  const EllDiaOperator ell_dia(a);
  const WarpedEllDiaOperator warped(a);
  std::vector<real_t> x0(static_cast<std::size_t>(a.nrows));
  fill_uniform(x0);
  for (const JacobiOptions& opt : option_grid()) {
    expect_jacobi_parity(csr, a.inf_norm(), x0, opt, "csr");
    expect_jacobi_parity(csr_dia, a.inf_norm(), x0, opt, "csr+dia");
    expect_jacobi_parity(ell_dia, a.inf_norm(), x0, opt, "ell+dia");
    expect_jacobi_parity(warped, a.inf_norm(), x0, opt, "warped-ell+dia");
  }
}

/// Birth-death chain 0 <-> X, capacity `cap`.
core::ReactionNetwork birth_death(std::int32_t cap, real_t birth,
                                  real_t death) {
  core::ReactionNetwork net;
  const int x = net.add_species("X", cap);
  net.add_reaction("birth", birth, {}, {{x, +1}});
  net.add_reaction("death", death, {{x, 1}}, {{x, -1}});
  return net;
}

/// body(op, norm, name) for the chain on CSR's multiply-then-epilogue path
/// and on the fused stencil path.
template <class Body>
void for_fused_and_unfused_operator(const core::ReactionNetwork& net,
                                    Body&& body) {
  const sparse::Csr a =
      core::rate_matrix(core::StateSpace(net, core::State{0}, 1000));
  body(CsrOperator(a), a.inf_norm(), "csr");
  const StencilOperator stencil(net, core::State{0});
  body(stencil, stencil.inf_norm(), "stencil");
}

TEST(SweepEpilogueJacobi, ZeroResidualExitMatchesUnfusedLoop) {
  // Symmetric two-state flip: the uniform start solves A x = 0 exactly.
  JacobiOptions opt;
  opt.eps = 1e-9;
  opt.damping = 0.8;
  opt.check_every = 10;
  for_fused_and_unfused_operator(
      birth_death(1, 2.0, 2.0),
      [&](const auto& op, real_t norm, const char* name) {
        std::vector<real_t> x0(static_cast<std::size_t>(op.nrows()));
        fill_uniform(x0);
        expect_jacobi_parity(op, norm, x0, opt, name);
        std::vector<real_t> x = x0;
        const JacobiResult r = jacobi_solve(op, norm, x, opt);
        EXPECT_EQ(r.reason, StopReason::kConverged) << name;
        EXPECT_EQ(r.residual, 0.0) << name;
      });
}

TEST(SweepEpilogueJacobi, StagnationExitMatchesUnfusedLoop) {
  // Undamped Jacobi on a bipartite birth-death chain keeps a -1 mode: the
  // iterate oscillates with period 2 and the residual plateaus.
  JacobiOptions opt;
  opt.eps = 1e-9;
  opt.check_every = 10;  // even: every check sees the same phase
  opt.history_capacity = 8;
  for_fused_and_unfused_operator(
      birth_death(7, 1.3, 0.7),
      [&](const auto& op, real_t norm, const char* name) {
        std::vector<real_t> x0(static_cast<std::size_t>(op.nrows()));
        fill_uniform(x0);
        expect_jacobi_parity(op, norm, x0, opt, name);
        std::vector<real_t> x = x0;
        const JacobiResult r = jacobi_solve(op, norm, x, opt);
        EXPECT_EQ(r.reason, StopReason::kStagnated) << name;
        EXPECT_GT(r.residual, 1e-3) << name;
      });
}

// ---------------------------------------------------------------------------
// Epilogue contract.
// ---------------------------------------------------------------------------

TEST(SweepEpilogueContract, EveryRowOnceInChunkOrderAndMaskedTilesAreMasked) {
  auto params = small_phage();
  params.cap_ci = params.cap_cro = 6;
  params.cap_ci2 = params.cap_cro2 = 3;
  const auto net = core::models::phage_lambda(params);
  const StencilOperator op(net, core::models::phage_lambda_initial(params));
  const auto n = static_cast<std::size_t>(op.nrows());
  ASSERT_GT(n, 2 * kReduceChunk);  // several chunks, so alignment matters
  const auto d = op.diag();
  std::vector<real_t> x(n, 1.0);
  std::vector<int> flagged_ref;  // rows flagged masked, single-threaded
  for (const bool skip : {false, true}) {
    for (const bool reduces : {false, true}) {
      for (const int threads : {1, 2, 8}) {
        ThreadBudget budget(threads);
        const std::string where = std::string(skip ? "skip " : "") +
                                  (reduces ? "reducing" : "plain") +
                                  " threads=" + std::to_string(threads);
        std::vector<real_t> y(n, 7.0);
        std::vector<int> seen(n, 0);
        std::vector<int> flagged(n, 0);
        // Per chunk, the lowest row a reducing epilogue may visit next
        // (ascending order; with every row seen once, consecutive). Only
        // one thread walks a chunk then, so this bookkeeping is race-free
        // by the contract.
        std::vector<std::size_t> next_row(n / kReduceChunk + 1);
        for (std::size_t c = 0; c < next_row.size(); ++c) {
          next_row[c] = c * kReduceChunk;
        }
        std::atomic<bool> ordered{true};
        std::atomic<bool> masked_ok{true};
        const auto check = [&](std::size_t b, std::size_t e, bool masked) {
          for (std::size_t i = b; i < e; ++i) {
            ++seen[i];
            flagged[i] = masked ? 1 : 0;
            if (reduces) {
              const std::size_t c = i / kReduceChunk;
              if (i < next_row[c]) ordered = false;
              next_row[c] = i + 1;
            }
            if (masked &&
                (d[i] != -1.0 || std::bit_cast<std::uint64_t>(y[i]) != 0)) {
              masked_ok = false;
            }
          }
        };
        op.multiply(x, y,
                    SweepEpilogue(check, {.reduces = reduces,
                                          .skip_masked = skip}));
        EXPECT_TRUE(ordered.load()) << where;
        EXPECT_TRUE(masked_ok.load()) << where;
        if (!skip) {
          EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                                  [](int s) { return s == 1; }))
              << where;
          // Masked is a tile property: no chunking moves a row in or out.
          if (flagged_ref.empty()) flagged_ref = flagged;
          EXPECT_EQ(flagged, flagged_ref) << where;
          continue;
        }
        // Skipping: exactly the masked rows are neither visited nor
        // written.
        std::size_t bad = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const bool skipped = seen[i] == 0;
          bad += seen[i] > 1 || skipped != (flagged_ref[i] == 1) ||
                 (skipped && y[i] != 7.0);
        }
        EXPECT_EQ(bad, 0u) << where;
      }
    }
  }
  // Most masked rows sit in whole tiles.
  EXPECT_GT(std::count(flagged_ref.begin(), flagged_ref.end(), 1),
            static_cast<std::ptrdiff_t>(n / 2));
}

}  // namespace
}  // namespace cmesolve::solver
