#include "solver/batched.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/vector_ops.hpp"
#include "util/aligned_vector.hpp"
#include "util/parallel.hpp"
#include "util/simd_kernels.hpp"
#include "util/timer.hpp"

namespace cmesolve::solver {

namespace {

constexpr std::size_t kSweepGrain = 4096;

void validate_rates(const core::ReactionNetwork& net,
                    std::span<const std::vector<real_t>> rates) {
  if (rates.empty()) {
    throw std::invalid_argument("ensemble: at least one parameter point");
  }
  const auto nr = static_cast<std::size_t>(net.num_reactions());
  for (const auto& rk : rates) {
    if (rk.size() != nr) {
      throw std::invalid_argument(
          "ensemble: rate vector must cover every network reaction");
    }
    for (const real_t v : rk) {
      if (!std::isfinite(v) || v <= 0.0) {
        throw std::invalid_argument(
            "ensemble: every rate must be finite and > 0");
      }
    }
  }
}

/// Squared distance of points a and b in log-rate space.
real_t log_rate_dist(std::span<const std::vector<real_t>> rates, int a,
                     int b) {
  const auto& ra = rates[static_cast<std::size_t>(a)];
  const auto& rb = rates[static_cast<std::size_t>(b)];
  real_t s = 0.0;
  for (std::size_t j = 0; j < ra.size(); ++j) {
    const real_t dl = std::log(ra[j]) - std::log(rb[j]);
    s += dl * dl;
  }
  return s;
}

}  // namespace

std::vector<std::uint8_t> box_active_rows(const core::StencilTable& table) {
  const auto n = static_cast<std::size_t>(table.box_rows());
  std::vector<std::uint8_t> active(n, 0);
  const auto& rx = table.reactions();
  std::uint8_t* pa = active.data();
  util::parallel_for(n, [&, pa](std::size_t b, std::size_t e) {
    core::State x(static_cast<std::size_t>(table.num_species()));
    for (std::size_t i = b; i < e; ++i) {
      table.decode(static_cast<index_t>(i), x);
      if (!table.row_valid(x)) continue;
      for (const auto& r : rx) {
        if (table.unit_out_propensity(r, x) > 0.0) {
          pa[i] = 1;
          break;
        }
      }
    }
  });
  return active;
}

EnsembleStructure::EnsembleStructure(const core::StencilTable& base)
    : unit_(core::StencilTable(
                base, std::vector<real_t>(
                          static_cast<std::size_t>(
                              base.network().num_reactions()),
                          1.0)),
            StencilMode::kPropensityCache) {
  CMESOLVE_TRACE_SPAN("batch.structure_build");
  row_active_ = box_active_rows(unit_.table());
  for (std::size_t i = 0; i < row_active_.size(); ++i) {
    if (row_active_[i]) {
      ++rows_active_;
      last_active_ = static_cast<index_t>(i);
    }
  }
  if (rows_active_ == 0) {
    throw std::invalid_argument(
        "EnsembleStructure: every box row is masked (no active states)");
  }
  obs::count("batch.structures_built");
}

BatchedStencilOperator::BatchedStencilOperator(
    const EnsembleStructure& structure,
    std::span<const std::vector<real_t>> rates)
    : structure_(&structure), batch_(static_cast<int>(rates.size())) {
  const core::StencilTable& t = structure.unit().table();
  validate_rates(t.network(), rates);
  const auto& rx = t.reactions();
  const auto n = static_cast<std::size_t>(t.box_rows());
  const auto kk = static_cast<std::size_t>(batch_);

  coef_.resize(rx.size() * kk);
  for (std::size_t r = 0; r < rx.size(); ++r) {
    for (std::size_t q = 0; q < kk; ++q) {
      coef_[r * kk + q] =
          rates[q][static_cast<std::size_t>(rx[r].reaction)];
    }
  }

  // Interleaved per-lane diagonal from ONE decode pass: for every valid
  // row the unit outflow of each reaction is evaluated once and scaled by
  // each lane's coefficient in reaction order — the exact terms, order and
  // positivity test of StencilTable::build_diagonal per lane, so lane
  // diagonals are bitwise the single-point tables'.
  diag_.assign(n * kk, -1.0);
  {
    real_t* pd = diag_.data();
    const real_t* pc = coef_.data();
    util::parallel_for(n, [&, pd, pc, kk](std::size_t b, std::size_t e) {
      core::State x(static_cast<std::size_t>(t.num_species()));
      std::vector<real_t> u(rx.size());
      for (std::size_t i = b; i < e; ++i) {
        t.decode(static_cast<index_t>(i), x);
        if (!t.row_valid(x)) continue;
        for (std::size_t r = 0; r < rx.size(); ++r) {
          u[r] = t.unit_out_propensity(rx[r], x);
        }
        for (std::size_t q = 0; q < kk; ++q) {
          real_t out_rate = 0.0;
          for (std::size_t r = 0; r < rx.size(); ++r) {
            const real_t a = pc[r * kk + q] * u[r];
            if (a > 0.0) out_rate += a;
          }
          if (out_rate > 0.0) pd[i * kk + q] = -out_rate;
        }
      }
    });
  }

  // Per-lane ||A_k||_inf via a batched ones sweep, max-reduced with the
  // same fixed row chunks as StencilOperator::compute_inf_norm.
  {
    const std::vector<real_t> ones(n * kk, 1.0);
    std::vector<real_t> rowsum(n * kk, 0.0);
    multiply(ones, rowsum);
    const real_t* pd = diag_.data();
    const real_t* pr = rowsum.data();
    inf_norms_ = util::parallel_reduce(
        n, kReduceChunk, std::vector<real_t>(kk, 0.0),
        [pd, pr, kk](std::size_t b, std::size_t e) {
          std::vector<real_t> mx(kk, 0.0);
          for (std::size_t i = b; i < e; ++i) {
            for (std::size_t q = 0; q < kk; ++q) {
              mx[q] = std::max(mx[q],
                               std::abs(pd[i * kk + q]) + pr[i * kk + q]);
            }
          }
          return mx;
        },
        [kk](std::vector<real_t> acc, std::vector<real_t> part) {
          for (std::size_t q = 0; q < kk; ++q) {
            acc[q] = std::max(acc[q], part[q]);
          }
          return acc;
        });
  }
  obs::count("batch.operators_built");
  obs::gauge("batch.width", static_cast<double>(batch_));
  obs::gauge("batch.sweep_bytes_modeled",
             static_cast<double>(bytes_modeled()));
}

std::size_t BatchedStencilOperator::bytes_modeled() const noexcept {
  const auto n = static_cast<std::size_t>(structure_->nrows());
  const auto k = static_cast<std::size_t>(batch_);
  const std::size_t unit_stream =
      structure_->unit().table().reactions().size() * n;
  return sizeof(real_t) * (unit_stream + k * (offdiag_nnz() + n));
}

void BatchedStencilOperator::multiply(std::span<const real_t> x,
                                      std::span<real_t> y) const {
  CMESOLVE_TRACE_SPAN("batch.sweep");
  const auto n = static_cast<std::int64_t>(structure_->nrows());
  const auto kk = static_cast<std::size_t>(batch_);
  const auto& rx = structure_->unit().table().reactions();
  const real_t* cache = structure_->unit().propensity_cache().data();
  // Rows per chunk shrink with the batch width so chunk payloads stay
  // comparable to the single-RHS sweep; values are chunk-invariant, so the
  // grain only affects load balance, never bits.
  const std::size_t grain = std::max<std::size_t>(kSweepGrain / kk, 256);

  // Per-row accumulation in reaction order within the owning chunk; lane
  // k's terms are (coef*u)*x — the exact cached single-RHS values
  // (skipping u == 0 only drops exact-zero addends, which cannot flip an
  // accumulator that is never -0.0). The sweep runs through the explicit
  // SIMD kernel table, vectorized across the k lanes; lanes never mix, so
  // every ISA produces the same bits.
  std::vector<std::int64_t> strides(rx.size());
  for (std::size_t r = 0; r < rx.size(); ++r) strides[r] = rx[r].stride;
  const util::simdk::BatchedSweepArgs args{
      x.data(), y.data(), cache, coef_.data(), strides.data(), rx.size(), n,
      kk};
  const util::simdk::KernelOps& KO = util::simdk::kernels();
  util::parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t cb, std::size_t ce) {
        KO.batched_sweep(args, static_cast<std::int64_t>(cb),
                         static_cast<std::int64_t>(ce));
      },
      grain);
}

std::vector<int> continuation_order(
    std::span<const std::vector<real_t>> rates) {
  const int k = static_cast<int>(rates.size());
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(k));
  if (k == 0) return order;
  std::vector<std::uint8_t> used(static_cast<std::size_t>(k), 0);
  int cur = 0;
  used[0] = 1;
  order.push_back(0);
  for (int step = 1; step < k; ++step) {
    int best = -1;
    real_t best_d = 0.0;
    for (int c = 0; c < k; ++c) {
      if (used[static_cast<std::size_t>(c)]) continue;
      const real_t dc = log_rate_dist(rates, cur, c);
      if (best < 0 || dc < best_d) {  // strict <: smallest index wins ties
        best = c;
        best_d = dc;
      }
    }
    used[static_cast<std::size_t>(best)] = 1;
    order.push_back(best);
    cur = best;
  }
  return order;
}

EnsembleResult solve_ensemble(const core::StencilTable& base,
                              std::span<const std::vector<real_t>> rates,
                              const EnsembleOptions& opt) {
  validate_rates(base.network(), rates);
  if (opt.batch_width < 1) {
    throw std::invalid_argument("solve_ensemble: batch_width must be >= 1");
  }
  const auto n = static_cast<std::size_t>(base.box_rows());
  if (!opt.initial_guess.empty() && opt.initial_guess.size() != n) {
    throw std::invalid_argument(
        "solve_ensemble: initial guess must be box-sized");
  }
  const int k = static_cast<int>(rates.size());
  CMESOLVE_TRACE_SPAN("ensemble.solve");
  WallTimer total;

  EnsembleResult out;
  out.points.resize(static_cast<std::size_t>(k));
  out.order = opt.continuation
                  ? continuation_order(rates)
                  : [&] {
                      std::vector<int> ident(static_cast<std::size_t>(k));
                      std::iota(ident.begin(), ident.end(), 0);
                      return ident;
                    }();

  // Shared setup. The activity mask (and the unit cache in batched mode)
  // is computed once for the whole ensemble; both modes derive the
  // default guess and the GMRES constraint row from the SAME mask so the
  // two paths stay bitwise comparable.
  WallTimer setup;
  std::unique_ptr<EnsembleStructure> structure;
  std::vector<std::uint8_t> row_active;
  if (opt.batched) {
    structure = std::make_unique<EnsembleStructure>(base);
    row_active.assign(structure->row_active().begin(),
                      structure->row_active().end());
  } else {
    row_active = box_active_rows(base);
  }
  index_t rows_active = 0;
  index_t last_active = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (row_active[i]) {
      ++rows_active;
      last_active = static_cast<index_t>(i);
    }
  }
  if (rows_active == 0) {
    throw std::invalid_argument("solve_ensemble: every box row is masked");
  }
  out.seconds_setup = setup.seconds();

  // Default guess: uniform over ACTIVE rows (masked rows must stay zero —
  // Jacobi never writes them).
  std::vector<real_t> uniform_guess(n, 0.0);
  {
    const real_t p0 = 1.0 / static_cast<real_t>(rows_active);
    for (std::size_t i = 0; i < n; ++i) {
      if (row_active[i]) uniform_guess[i] = p0;
    }
  }
  std::vector<index_t> identity_remap(n);
  std::iota(identity_remap.begin(), identity_remap.end(), 0);

  // Warm-start source: nearest CONVERGED point among earlier blocks (block
  // granularity — identical in batched and sequential modes). -1: none.
  std::vector<int> solved;
  const auto nearest_solved = [&](int point) {
    int best = -1;
    real_t best_d = 0.0;
    for (const int s : solved) {
      if (!out.points[static_cast<std::size_t>(s)].converged) continue;
      const real_t dc = log_rate_dist(rates, point, s);
      if (best < 0 || dc < best_d) {
        best = s;
        best_d = dc;
      }
    }
    return best;
  };
  const auto guess_for = [&](int point, std::span<real_t> g) {
    const int src = opt.continuation ? nearest_solved(point) : -1;
    if (src >= 0) {
      warm_restart(out.points[static_cast<std::size_t>(src)].p,
                   identity_remap, g, 0.0);
    } else if (!opt.initial_guess.empty()) {
      std::copy(opt.initial_guess.begin(), opt.initial_guess.end(),
                g.begin());
    } else {
      std::copy(uniform_guess.begin(), uniform_guess.end(), g.begin());
    }
  };

  // GMRES fallback on the nonsingular-ized system, warm-started from the
  // lane's Jacobi iterate. Runs through a per-point single-RHS operator in
  // BOTH modes, so recovered lanes stay bitwise comparable too.
  const auto gmres_rescue = [&](int point, EnsemblePointResult& pr) {
    if (!opt.gmres_fallback ||
        pr.jacobi.reason == StopReason::kConverged) {
      return;
    }
    obs::count("ensemble.gmres_fallbacks");
    const core::StencilTable tbl(base, rates[static_cast<std::size_t>(point)]);
    const StencilOperator op(std::move(tbl), StencilMode::kPropensityCache);
    const auto apply = matrix_free_steady_state_operator(op, last_active);
    const auto b = steady_state_rhs(static_cast<index_t>(n), last_active);
    GmresOptions go = opt.gmres;
    go.restart = static_cast<int>(
        std::min<index_t>(go.restart, static_cast<index_t>(n)));
    const auto res =
        gmres_solve(apply, static_cast<index_t>(n), b, pr.p, go);
    pr.gmres_used = true;
    if (res.converged) {
      normalize_l1(pr.p);
      pr.converged = true;
    }
  };

  const auto nblocks = (static_cast<std::size_t>(k) +
                        static_cast<std::size_t>(opt.batch_width) - 1) /
                       static_cast<std::size_t>(opt.batch_width);
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t b0 = blk * static_cast<std::size_t>(opt.batch_width);
    const std::size_t b1 = std::min(
        b0 + static_cast<std::size_t>(opt.batch_width),
        static_cast<std::size_t>(k));
    const auto width = static_cast<int>(b1 - b0);

    if (opt.batched) {
      std::vector<std::vector<real_t>> block_rates(
          static_cast<std::size_t>(width));
      for (int q = 0; q < width; ++q) {
        block_rates[static_cast<std::size_t>(q)] =
            rates[static_cast<std::size_t>(out.order[b0 +
                                                     static_cast<std::size_t>(
                                                         q)])];
      }
      const BatchedStencilOperator op(*structure, block_rates);
      // Interleaved block iterate and the per-point gather buffer are SIMD
      // kernel operands: keep them 64-byte aligned like the solver state.
      util::aligned_vector<real_t> x(n * static_cast<std::size_t>(width));
      util::aligned_vector<real_t> g(n);
      for (int q = 0; q < width; ++q) {
        const int point = out.order[b0 + static_cast<std::size_t>(q)];
        guess_for(point, g);
        for (std::size_t i = 0; i < n; ++i) {
          x[i * static_cast<std::size_t>(width) +
            static_cast<std::size_t>(q)] = g[i];
        }
      }
      // Each lane lands in its point's p as it stops.
      std::vector<std::span<real_t>> lane_out;
      for (int q = 0; q < width; ++q) {
        auto& pr = out.points[static_cast<std::size_t>(
            out.order[b0 + static_cast<std::size_t>(q)])];
        pr.p.resize(n);
        lane_out.emplace_back(pr.p);
      }
      auto lanes = jacobi_solve_lanes(op, op.inf_norms(), x, lane_out,
                                      opt.jacobi);
      obs::count("jacobi.batched_solves");
      // Lanes still iterating when the budget ran out.
      obs::gauge("batch.points_active",
                 static_cast<double>(std::count_if(
                     lanes.begin(), lanes.end(), [](const JacobiResult& r) {
                       return r.reason == StopReason::kMaxIterations;
                     })));
      for (int q = 0; q < width; ++q) {
        const int point = out.order[b0 + static_cast<std::size_t>(q)];
        auto& pr = out.points[static_cast<std::size_t>(point)];
        pr.jacobi = std::move(lanes[static_cast<std::size_t>(q)]);
        pr.converged = pr.jacobi.reason == StopReason::kConverged;
        gmres_rescue(point, pr);
      }
    } else {
      for (int q = 0; q < width; ++q) {
        const int point = out.order[b0 + static_cast<std::size_t>(q)];
        auto& pr = out.points[static_cast<std::size_t>(point)];
        core::StencilTable tbl(base,
                               rates[static_cast<std::size_t>(point)]);
        const StencilOperator op(std::move(tbl),
                                 StencilMode::kPropensityCache);
        pr.p.resize(n);
        guess_for(point, pr.p);
        pr.jacobi = jacobi_solve(op, op.inf_norm(), pr.p, opt.jacobi);
        pr.converged = pr.jacobi.reason == StopReason::kConverged;
        gmres_rescue(point, pr);
      }
    }
    for (std::size_t q = b0; q < b1; ++q) solved.push_back(out.order[q]);
    // Ensemble progress on the flight timeline: points solved after each
    // continuation block (block index is the iteration axis here).
    obs::flight("ensemble.solved", obs::FlightKind::kBatchActive, blk,
                static_cast<double>(solved.size()));
  }

  out.seconds_total = total.seconds();
  obs::count("ensemble.solves");
  obs::gauge("ensemble.points", static_cast<double>(k));
  obs::gauge("ensemble.blocks", static_cast<double>(nblocks));
  obs::gauge("ensemble.seconds", out.seconds_total, /*is_volatile=*/true);
  return out;
}

}  // namespace cmesolve::solver
