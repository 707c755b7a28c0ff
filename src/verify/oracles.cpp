#include "verify/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/irreducibility.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "core/stencil.hpp"
#include "fsp/fsp.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernels.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "solver/batched.hpp"
#include "solver/gauss_seidel.hpp"
#include "solver/gmres.hpp"
#include "solver/jacobi.hpp"
#include "solver/krylov_expm.hpp"
#include "solver/operators.hpp"
#include "solver/power_iteration.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/transient.hpp"
#include "solver/vector_ops.hpp"
#include "sparse/bcsr.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hybrid.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/sliced_ell.hpp"
#include "ssa/ssa.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cmesolve::verify {

namespace {

std::string fmt(real_t v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(v));
  return buf;
}

real_t l1_distance(std::span<const real_t> a, std::span<const real_t> b) {
  real_t d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

bool bitwise_equal(std::span<const real_t> a, std::span<const real_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

/// Dense null-space reference: Gaussian elimination with partial pivoting
/// on A with the last row replaced by the normalization constraint
/// sum_i x_i = 1 (rhs e_last). Returns {} when elimination meets a
/// numerically zero pivot — the caller reports that, because a scenario
/// reaching this oracle has already passed the unique-stationarity check.
std::vector<real_t> dense_nullspace_reference(const sparse::Csr& a) {
  const index_t n = a.nrows;
  sparse::Dense m = sparse::dense_from_csr(a);
  std::vector<real_t> b(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) m(n - 1, j) = 1.0;
  b[static_cast<std::size_t>(n - 1)] = 1.0;

  real_t scale = 0.0;
  for (index_t r = 0; r < n; ++r) {
    for (index_t c = 0; c < n; ++c) scale = std::max(scale, std::abs(m(r, c)));
  }
  const real_t tiny = scale * 1e-14 * static_cast<real_t>(n);

  for (index_t k = 0; k < n; ++k) {
    index_t piv = k;
    for (index_t r = k + 1; r < n; ++r) {
      if (std::abs(m(r, k)) > std::abs(m(piv, k))) piv = r;
    }
    if (std::abs(m(piv, k)) <= tiny) return {};
    if (piv != k) {
      for (index_t c = k; c < n; ++c) std::swap(m(k, c), m(piv, c));
      std::swap(b[static_cast<std::size_t>(k)],
                b[static_cast<std::size_t>(piv)]);
    }
    for (index_t r = k + 1; r < n; ++r) {
      const real_t f = m(r, k) / m(k, k);
      if (f == 0.0) continue;
      for (index_t c = k; c < n; ++c) m(r, c) -= f * m(k, c);
      b[static_cast<std::size_t>(r)] -= f * b[static_cast<std::size_t>(k)];
    }
  }
  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
  for (index_t r = n - 1; r >= 0; --r) {
    real_t acc = b[static_cast<std::size_t>(r)];
    for (index_t c = r + 1; c < n; ++c) {
      acc -= m(r, c) * x[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(r)] = acc / m(r, r);
  }
  solver::normalize_l1(x);
  return x;
}

class Verifier {
 public:
  Verifier(const Scenario& sc, const OracleOptions& opt, VerifyResult& out)
      : sc_(sc), opt_(opt), out_(out) {}

  void run() {
    try {
      net_ = build_network(sc_);
    } catch (const std::exception& e) {
      fail("scenario", std::string("network rejected: ") + e.what());
      return;
    }
    ran("enumeration");
    space_ = std::make_unique<core::StateSpace>(net_, sc_.initial,
                                                sc_.max_states);
    if (space_->truncated()) {
      fail("enumeration", "state space truncated at max_states=" +
                              std::to_string(sc_.max_states));
      return;
    }
    out_.states = static_cast<std::size_t>(space_->size());
    if (space_->size() < 2) {
      fail("enumeration", "degenerate space (fewer than 2 states)");
      return;
    }
    a_ = core::rate_matrix(*space_);
    a_norm_ = a_.inf_norm();
    n_ = static_cast<std::size_t>(a_.nrows);

    check_invariants();
    check_formats();
    if (opt_.with_matrix_market) check_matrix_market();

    switch (sc_.expect) {
      case Expectation::kAbsorbing:
        check_absorbing_edge();
        // exp(At) is perfectly well-defined on an absorbing chain even
        // though A P = 0 is not solvable — the transient battery is the
        // only cross-algorithm oracle this family gets.
        if (opt_.with_transient) check_transient();
        return;
      case Expectation::kStagnation:
      case Expectation::kZeroResidual: check_jacobi_edge(); return;
      case Expectation::kSteadyState: break;
    }

    check_solvers();
    if (opt_.with_transient) check_transient();
    if (opt_.with_ssa) check_ssa();
    if (opt_.with_gpusim) check_gpusim();
    if (opt_.with_threads) check_threads();
    if (opt_.with_telemetry) check_telemetry();
    if (opt_.with_fsp) check_fsp_parity();
    if (opt_.with_ensemble) check_ensemble();
  }

 private:
  void fail(std::string oracle, std::string message) {
    out_.passed = false;
    out_.failures.push_back({std::move(oracle), std::move(message)});
  }
  void ran(const char* name) { out_.oracles_run.emplace_back(name); }

  solver::JacobiOptions jacobi_options() const {
    solver::JacobiOptions jopt;
    jopt.eps = sc_.jacobi_eps;
    jopt.stagnation_eps = sc_.jacobi_stagnation_eps;
    jopt.max_iterations = sc_.jacobi_max_iterations;
    jopt.damping = sc_.jacobi_damping;
    return jopt;
  }

  /// Conditioning proxy. When reaction rates span many orders of magnitude
  /// the generator's null space is numerically near-degenerate: two correct
  /// solvers can converge (small residual) to visibly different vectors, and
  /// dense elimination pivots drop below any absolute tiny-threshold. Those
  /// scenarios still exercise the structural and bitwise oracles, but
  /// cross-algorithm L1 comparisons would only measure conditioning, not
  /// correctness — so they gate on this.
  bool well_conditioned() const {
    real_t lo = std::numeric_limits<real_t>::infinity();
    real_t hi = 0.0;
    for (const auto& r : sc_.reactions) {
      if (r.rate <= 0.0) continue;
      lo = std::min(lo, r.rate);
      hi = std::max(hi, r.rate);
    }
    return hi <= lo * 1e6;
  }

  std::vector<real_t> test_vector() const {
    std::vector<real_t> x(n_);
    Xoshiro256 rng(sc_.seed * 0x9E3779B97F4A7C15ULL + 0xA5A5A5A5ULL);
    for (auto& v : x) v = rng.uniform(0.5, 1.5);
    return x;
  }

  // -- invariants ----------------------------------------------------------

  void check_invariants() {
    ran("invariants");
    std::vector<real_t> colsum(static_cast<std::size_t>(a_.ncols), 0.0);
    for (index_t r = 0; r < a_.nrows; ++r) {
      for (index_t k = a_.row_ptr[static_cast<std::size_t>(r)];
           k < a_.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const index_t c = a_.col_idx[static_cast<std::size_t>(k)];
        const real_t v = a_.val[static_cast<std::size_t>(k)];
        colsum[static_cast<std::size_t>(c)] += v;
        if (c == r) {
          if (v > 0.0) {
            fail("invariants", "positive diagonal a(" + std::to_string(r) +
                                   "," + std::to_string(r) + ")=" + fmt(v));
            return;
          }
        } else if (v < 0.0) {
          fail("invariants", "negative off-diagonal a(" + std::to_string(r) +
                                 "," + std::to_string(c) + ")=" + fmt(v));
          return;
        }
      }
    }
    const real_t tol = 1e-12 * std::max<real_t>(a_norm_, 1.0);
    for (index_t c = 0; c < a_.ncols; ++c) {
      const real_t s = colsum[static_cast<std::size_t>(c)];
      if (std::abs(s) > tol) {
        fail("invariants", "column " + std::to_string(c) +
                               " sums to " + fmt(s) + " (tol " + fmt(tol) +
                               ") — generator loses probability flux");
        return;
      }
    }
  }

  // -- cross-format SpMV ---------------------------------------------------

  void check_formats() {
    ran("spmv-formats");
    const std::vector<real_t> x = test_vector();
    std::vector<real_t> y_ref(n_);
    sparse::spmv(a_, x, y_ref);
    const real_t tol = opt_.spmv_rel_tol * std::max<real_t>(a_norm_, 1.0) *
                       solver::norm_inf(x);

    auto check = [&](const char* what, std::span<const real_t> y) {
      real_t worst = 0.0;
      index_t row = -1;
      for (std::size_t i = 0; i < n_; ++i) {
        const real_t d = std::abs(y[i] - y_ref[i]);
        if (d > worst) {
          worst = d;
          row = static_cast<index_t>(i);
        }
      }
      if (worst > tol) {
        fail("spmv-formats", std::string(what) + " deviates from CSR by " +
                                 fmt(worst) + " at row " + std::to_string(row) +
                                 " (tol " + fmt(tol) + ")");
      }
    };

    std::vector<real_t> y(n_);
    if (a_.nrows <= opt_.dense_max) {
      const sparse::Dense d = sparse::dense_from_csr(a_);
      sparse::spmv(d, x, y);
      check("dense", y);
    }
    {
      const sparse::Ell m = sparse::ell_from_csr(a_);
      sparse::spmv(m, x, y);
      check("ell", y);
    }
    {
      const sparse::SlicedEll m = sparse::warped_ell_from_csr(a_);
      sparse::spmv(m, x, y);
      check("warped-ell", y);
    }
    {
      const sparse::SlicedEll m = sparse::pjds_from_csr(a_);
      sparse::spmv(m, x, y);
      check("pjds", y);
    }
    const std::vector<index_t> band = sparse::select_band_offsets(a_);
    {
      const sparse::EllDia m = sparse::ell_dia_from_csr(a_, band);
      sparse::spmv(m, x, y);
      check("ell+dia", y);
    }
    {
      const sparse::SlicedEllDia m = sparse::sliced_ell_dia_from_csr(a_, band);
      sparse::spmv(m, x, y);
      check("sliced-ell+dia", y);
    }
    {
      const sparse::CsrDia m = sparse::csr_dia_from_csr(a_, band);
      sparse::spmv(m, x, y);
      check("csr+dia", y);
    }
    {
      const sparse::Bcsr m = sparse::bcsr_from_csr(a_);
      sparse::spmv(m, x, y);
      check("bcsr", y);
    }

    // Operator wrappers: off-diagonal multiply + explicit diagonal must
    // reassemble the full product.
    auto check_op = [&](const char* what, const auto& op) {
      if (op.nrows() != a_.nrows) {
        fail("spmv-formats", std::string(what) + " row-count mismatch");
        return;
      }
      std::vector<real_t> yo(n_);
      op.multiply(x, yo);
      const auto d = op.diag();
      for (std::size_t i = 0; i < n_; ++i) yo[i] += d[i] * x[i];
      check(what, yo);
    };
    check_op("op:csr", solver::CsrOperator(a_));
    check_op("op:csr+dia", solver::CsrDiaOperator(a_));
    check_op("op:ell+dia", solver::EllDiaOperator(a_));
    check_op("op:warped-ell+dia", solver::WarpedEllDiaOperator(a_));

    build_stencil();
    if (stencil_ != nullptr) {
      const auto nbox = static_cast<std::size_t>(stencil_->nrows());
      std::vector<real_t> xb(nbox, 0.0), yb(nbox, 0.0);
      std::vector<real_t> ys(n_, 0.0), ds(n_, 0.0);
      stencil_->scatter_from(*space_, x, xb);
      stencil_->multiply(xb, yb);
      stencil_->gather_to(*space_, yb, ys);
      const auto db = stencil_->diag();
      const std::vector<real_t> dbox(db.begin(), db.end());
      stencil_->gather_to(*space_, dbox, ds);
      // Zero-outflow members (absorbing states) carry the stencil's -1
      // diagonal sentinel and no off-diagonal entries by contract — the
      // solver rejects such chains up front, so the stencil oracle compares
      // the unmasked complement. An exact -1.0 outflow also matches the
      // sentinel; skipping that row costs a little coverage, never a false
      // positive.
      for (std::size_t i = 0; i < n_; ++i) {
        ys[i] = ds[i] == -1.0 ? y_ref[i] : ys[i] + ds[i] * x[i];
      }
      check("op:stencil", ys);
    }
  }

  // -- Matrix Market round trip -------------------------------------------

  void check_matrix_market() {
    ran("matrix-market");
    std::ostringstream first;
    sparse::write_matrix_market(first, a_);
    sparse::Csr back;
    try {
      std::istringstream in(first.str());
      back = sparse::read_matrix_market(in);
    } catch (const std::exception& e) {
      fail("matrix-market", std::string("own output rejected: ") + e.what());
      return;
    }
    if (back.nrows != a_.nrows || back.ncols != a_.ncols ||
        back.row_ptr != a_.row_ptr || back.col_idx != a_.col_idx) {
      fail("matrix-market", "structure changed across write -> read");
      return;
    }
    if (!bitwise_equal(back.val, a_.val)) {
      real_t worst = 0.0;
      for (std::size_t i = 0; i < a_.val.size(); ++i) {
        worst = std::max(worst, std::abs(back.val[i] - a_.val[i]));
      }
      fail("matrix-market",
           "values drift across write -> read (max " + fmt(worst) + ")");
      return;
    }
    std::ostringstream second;
    sparse::write_matrix_market(second, back);
    if (first.str() != second.str()) {
      fail("matrix-market", "write -> read -> write is not byte-stable");
    }
  }

  void build_stencil() {
    if (stencil_attempted_) return;
    stencil_attempted_ = true;
    try {
      stencil_ = std::make_unique<solver::StencilOperator>(net_, sc_.initial);
    } catch (const std::invalid_argument&) {
      // Box exceeds index_t (or is otherwise uncompilable): the stencil
      // paths simply don't apply to this scenario.
      stencil_.reset();
    }
  }

  // -- directed edge paths -------------------------------------------------

  void check_absorbing_edge() {
    ran("absorbing-edge");
    const solver::CsrOperator op(a_);
    std::vector<real_t> x(n_);
    solver::fill_uniform(x);
    try {
      (void)solver::jacobi_solve(op, a_norm_, x, jacobi_options());
      fail("absorbing-edge",
           "expected the zero-diagonal rejection, but the solver ran");
    } catch (const std::domain_error&) {
      // the contract: absorbing states are rejected up front
    }
  }

  void check_jacobi_edge() {
    ran("jacobi-edge");
    const solver::CsrOperator op(a_);
    std::vector<real_t> x(n_);
    solver::fill_uniform(x);
    const auto res = solver::jacobi_solve(op, a_norm_, x, jacobi_options());
    if (sc_.expect == Expectation::kZeroResidual) {
      if (res.reason != solver::StopReason::kConverged ||
          res.residual != 0.0) {
        fail("jacobi-edge",
             std::string("expected the exact-zero residual exit, got ") +
                 to_string(res.reason) + " at residual " + fmt(res.residual));
      }
    } else {
      if (res.reason != solver::StopReason::kStagnated) {
        fail("jacobi-edge",
             std::string("expected stagnation, got ") + to_string(res.reason) +
                 " at residual " + fmt(res.residual) + " after " +
                 std::to_string(res.iterations) + " iterations");
      }
    }
  }

  // -- cross-solver --------------------------------------------------------

  void check_solvers() {
    ran("ergodicity");
    const auto cs = core::analyze_communication(a_);
    if (!cs.unique_stationary()) {
      fail("ergodicity",
           "scenario expects a steady state but the chain has no unique "
           "stationary distribution (generator bug or bad shrink)");
      return;
    }

    ran("solvers");
    const auto jopt = jacobi_options();
    const solver::CsrOperator csr_op(a_);
    p_jacobi_.assign(n_, 0.0);
    solver::fill_uniform(p_jacobi_);
    solver::JacobiResult rj;
    try {
      rj = solver::jacobi_solve(csr_op, a_norm_, p_jacobi_, jopt);
    } catch (const std::domain_error& e) {
      // A chain can pass unique_stationary() and still carry a zero
      // diagonal: an absorbing state reachable from everywhere (point-mass
      // stationary distribution). Shrunk candidates hit this constantly.
      fail("solvers",
           std::string("steady-state scenario hit the zero-diagonal "
                       "rejection: ") +
               e.what());
      return;
    }
    jacobi_converged_ = rj.reason == solver::StopReason::kConverged;
    jacobi_iterations_ = rj.iterations;
    if (!jacobi_converged_) return;  // stagnation is a legal outcome

    // Stationary-vector invariants.
    real_t sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (p_jacobi_[i] < 0.0) {
        fail("invariants", "stationary entry " + std::to_string(i) +
                               " is negative: " + fmt(p_jacobi_[i]));
        return;
      }
      sum += p_jacobi_[i];
    }
    if (std::abs(sum - 1.0) > 1e-10) {
      fail("invariants", "stationary vector sums to " + fmt(sum));
      return;
    }

    // Residual consistency: the independently assembled full CSR product
    // must confirm the convergence the split operator reported.
    ran("residual-consistency");
    std::vector<real_t> r(n_);
    sparse::spmv(a_, p_jacobi_, r);
    const real_t rel = solver::norm_inf(r) /
                       (a_norm_ * std::max<real_t>(
                                      solver::norm_inf(p_jacobi_), 1e-300));
    if (rel > 10.0 * sc_.jacobi_eps) {
      fail("residual-consistency",
           "full-matrix residual " + fmt(rel) + " vs converged eps " +
               fmt(sc_.jacobi_eps));
    }

    if (!well_conditioned()) {
      // Rate spread past ~1e6: the L1 gates below would flag conditioning,
      // not bugs. The structural, bitwise, and residual oracles above have
      // already run for this scenario.
      ran("cross-solver[conditioning-gated]");
      return;
    }

    auto compare = [&](const char* what, std::span<const real_t> q) {
      const real_t d = l1_distance(q, p_jacobi_);
      if (d > opt_.solver_l1_tol) {
        fail("solvers", std::string(what) + " vs jacobi: L1 distance " +
                            fmt(d) + " (tol " + fmt(opt_.solver_l1_tol) + ")");
      }
    };

    {
      const solver::WarpedEllDiaOperator wop(a_);
      std::vector<real_t> p(n_);
      solver::fill_uniform(p);
      const auto res = solver::jacobi_solve(wop, a_norm_, p, jopt);
      if (res.reason == solver::StopReason::kConverged) {
        compare("jacobi[warped-hybrid]", p);
      }
    }
    {
      std::vector<real_t> p(n_);
      solver::fill_uniform(p);
      const auto res = solver::gauss_seidel_solve(a_, a_norm_, p, jopt);
      if (res.reason == solver::StopReason::kConverged) {
        compare("gauss-seidel", p);
      }
    }
    {
      std::vector<real_t> p(n_);
      solver::fill_uniform(p);
      solver::PowerIterationOptions po;
      po.eps = sc_.jacobi_eps;
      po.max_iterations = sc_.jacobi_max_iterations;
      const auto res = solver::power_iteration_solve(csr_op, a_norm_, p, po);
      if (res.reason == solver::StopReason::kConverged) {
        compare("power-iteration", p);
      }
    }
    {
      const index_t last = a_.nrows - 1;
      const auto apply = solver::steady_state_operator(a_, last);
      const auto b = solver::steady_state_rhs(a_.nrows, last);
      std::vector<real_t> p(n_);
      solver::fill_uniform(p);
      solver::GmresOptions go;
      go.tol = 1e-10;
      go.max_iterations = 4000;
      go.restart = static_cast<int>(std::min<index_t>(60, a_.nrows));
      const auto res = solver::gmres_solve(apply, a_.nrows, b, p, go);
      if (res.converged) {
        solver::normalize_l1(p);
        compare("gmres", p);
      }
    }

    if (a_.nrows <= opt_.dense_max) {
      ran("dense-reference");
      const auto p_ref = dense_nullspace_reference(a_);
      if (p_ref.empty()) {
        fail("dense-reference",
             "Gaussian elimination hit a zero pivot on a chain that passed "
             "the unique-stationarity check");
      } else {
        compare("dense-ge", p_ref);
      }
    }
  }

  // -- SSA chi-square ------------------------------------------------------

  void check_ssa() {
    if (!jacobi_converged_ || a_.nrows > opt_.ssa_max) return;
    // SSA cost scales with the event rate and mixing slows with tiny rates;
    // outside this window the oracle would be either unaffordable or noise.
    if (a_norm_ < 0.5 || a_norm_ > 500.0) return;
    if (!well_conditioned()) return;  // mixing time beyond any finite horizon
    ran("ssa");
    ssa::EmpiricalOptions eo;
    eo.burn_in = 50.0;
    eo.horizon = 4000.0;
    eo.seed = sc_.seed * 2 + 7;
    const auto emp =
        ssa::empirical_stationary(net_, *space_, sc_.initial, eo);

    // Chi-square gate over the well-supported states, with a conservative
    // effective sample count (time-averaged occupancy mixes faster than
    // iid sampling, so this undercounts the information in the trajectory).
    const real_t samples = 2000.0;
    real_t x2 = 0.0;
    std::size_t cells = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (p_jacobi_[i] * samples < 5.0) continue;
      const real_t diff = emp[i] - p_jacobi_[i];
      x2 += samples * diff * diff / p_jacobi_[i];
      ++cells;
    }
    if (cells >= 2) {
      const auto dof = static_cast<real_t>(cells - 1);
      const real_t gate = dof + 10.0 * std::sqrt(2.0 * dof) + 10.0;
      if (x2 > gate) {
        fail("ssa", "chi-square " + fmt(x2) + " over " +
                        std::to_string(cells) + " cells exceeds gate " +
                        fmt(gate));
      }
    }
    const real_t tv = ssa::total_variation(emp, p_jacobi_);
    if (tv > 0.15) {
      fail("ssa", "total variation " + fmt(tv) +
                      " between SSA occupancy and solved landscape");
    }
  }

  // -- simulated GPU kernels ----------------------------------------------

  void check_gpusim() {
    ran("gpusim");
    const obs::SuppressMetrics quiet;  // keep sim launches out of reports
    const auto dev = gpusim::DeviceSpec::gtx580();
    const std::vector<real_t> x = test_vector();
    std::vector<real_t> y_host(n_), y_sim(n_);

    auto bit = [&](const char* what) {
      if (!bitwise_equal(y_sim, y_host)) {
        real_t worst = 0.0;
        index_t row = -1;
        for (std::size_t i = 0; i < n_; ++i) {
          const real_t d = std::abs(y_sim[i] - y_host[i]);
          if (d > worst) {
            worst = d;
            row = static_cast<index_t>(i);
          }
        }
        fail("gpusim", std::string(what) +
                           " simulated kernel differs from host kernel" +
                           (row >= 0 ? " (max " + fmt(worst) + " at row " +
                                           std::to_string(row) + ")"
                                     : " (size mismatch)"));
      }
    };

    {
      const sparse::Ell m = sparse::ell_from_csr(a_);
      sparse::spmv(m, x, y_host);
      (void)gpusim::simulate_spmv(dev, m, x, y_sim);
      bit("ell");
    }
    {
      const sparse::SlicedEll m = sparse::warped_ell_from_csr(a_);
      sparse::spmv(m, x, y_host);
      (void)gpusim::simulate_spmv(dev, m, x, y_sim);
      bit("warped-ell");
    }
    const std::vector<index_t> band = sparse::select_band_offsets(a_);
    {
      const sparse::EllDia m = sparse::ell_dia_from_csr(a_, band);
      sparse::spmv(m, x, y_host);
      (void)gpusim::simulate_spmv(dev, m, x, y_sim);
      bit("ell+dia");
    }
    {
      const sparse::SlicedEllDia m = sparse::sliced_ell_dia_from_csr(a_, band);
      sparse::spmv(m, x, y_host);
      (void)gpusim::simulate_spmv(dev, m, x, y_sim);
      bit("sliced-ell+dia");
    }
    {
      sparse::spmv(a_, x, y_host);
      (void)gpusim::simulate_spmv(dev, a_, x, y_sim);
      bit("csr");
    }
  }

  // -- thread determinism --------------------------------------------------

  void check_threads() {
    ran("thread-determinism");
    const auto jopt = jacobi_options();
    const solver::CsrOperator csr_op(a_);
    // Restore the ambient thread cap even if a solve throws (the top-level
    // backstop in verify_scenario turns that into an oracle failure, and the
    // next scenario must not inherit a pinned pool).
    struct ThreadRestore {
      ~ThreadRestore() { util::set_max_threads(0); }
    } restore;
    auto solve_at = [&](int threads) {
      util::set_max_threads(threads);
      std::vector<real_t> p(n_);
      solver::fill_uniform(p);
      (void)solver::jacobi_solve(csr_op, a_norm_, p, jopt);
      return p;
    };
    const auto p1 = solve_at(1);
    const auto p8 = solve_at(8);
    if (!bitwise_equal(p1, p8)) {
      fail("thread-determinism",
           "jacobi solution differs bitwise between 1 and 8 threads");
    }
    if (jacobi_converged_ && !bitwise_equal(p1, p_jacobi_)) {
      fail("thread-determinism",
           "jacobi solution differs bitwise between 1 and ambient threads");
    }
  }

  // -- full-observability determinism --------------------------------------

  /// Runs the reference solve with the whole obs layer live — metric
  /// registry AND flight recorder — and asserts that (a) the deterministic
  /// fingerprint and the recorded flight stream are bit-identical at 1 and
  /// 8 threads, and (b) attaching the recorder leaves the fingerprint
  /// unchanged (observability must never change the computation it
  /// observes). Clobbers the process-wide registry/flight buffer; ambient
  /// enable-state is restored on every exit path.
  void check_telemetry() {
    ran("telemetry");
    const auto jopt = jacobi_options();
    const solver::CsrOperator csr_op(a_);
    struct ObsRestore {
      bool metrics_was_on = obs::metrics_enabled();
      bool flight_was_on = obs::flight_enabled();
      ~ObsRestore() {
        util::set_max_threads(0);
        obs::MetricRegistry::instance().clear();
        obs::FlightRecorder::instance().clear();
        obs::set_metrics_enabled(metrics_was_on);
        if (flight_was_on) {
          obs::detail::g_flight_on.store(true, std::memory_order_relaxed);
        } else {
          obs::FlightRecorder::instance().disable();
        }
      }
    } restore;

    struct Observed {
      std::string fingerprint;
      std::uint64_t flight_sig = 0;
      std::size_t flight_events = 0;
      std::vector<real_t> p;
    };
    auto solve_at = [&](int threads, bool with_flight) {
      util::set_max_threads(threads);
      obs::MetricRegistry::instance().clear();
      obs::set_metrics_enabled(true);
      if (with_flight) {
        obs::FlightRecorder::instance().enable();
      } else {
        obs::FlightRecorder::instance().disable();
        obs::FlightRecorder::instance().clear();
      }
      Observed o;
      o.p.resize(n_);
      solver::fill_uniform(o.p);
      (void)solver::jacobi_solve(csr_op, a_norm_, o.p, jopt);
      o.fingerprint = obs::MetricRegistry::instance().deterministic_fingerprint();
      o.flight_sig = obs::FlightRecorder::instance().content_signature();
      o.flight_events = obs::FlightRecorder::instance().size();
      return o;
    };

    const auto t1 = solve_at(1, /*with_flight=*/true);
    const auto t8 = solve_at(8, /*with_flight=*/true);
    const auto bare = solve_at(1, /*with_flight=*/false);

    if (t1.fingerprint != t8.fingerprint) {
      fail("telemetry",
           "deterministic metric fingerprint differs between 1 and 8 threads "
           "under full observability");
    }
    if (t1.flight_sig != t8.flight_sig ||
        t1.flight_events != t8.flight_events) {
      fail("telemetry",
           "flight-recorder stream differs between 1 and 8 threads");
    }
    if (t1.flight_events == 0) {
      fail("telemetry", "flight recorder captured no events from the solve");
    }
    if (bare.fingerprint != t1.fingerprint) {
      fail("telemetry",
           "attaching the flight recorder changed the metric fingerprint");
    }
    if (!bitwise_equal(bare.p, t1.p)) {
      fail("telemetry",
           "attaching the flight recorder changed the solve result");
    }
  }

  // -- FSP matrix-free parity ---------------------------------------------

  void check_fsp_parity() {
    if (!jacobi_converged_ || a_.nrows > opt_.fsp_max) return;
    if (jacobi_iterations_ > 100'000) return;  // too stiff to re-solve twice
    if (!well_conditioned()) return;  // L1-vs-reference gate needs a clean
                                      // null space, same as cross-solver
    build_stencil();
    if (stencil_ == nullptr) return;
    ran("fsp-parity");

    fsp::FspOptions fo;
    fo.tol = 1e-9;
    fo.seed_states = 64;
    fo.max_states = n_ * 2 + 64;
    fo.min_growth = 0.25;
    fo.prune_quantile = 0.0;
    fo.solver = fsp::InnerSolver::kJacobi;
    fo.jacobi = jacobi_options();
    fo.jacobi.eps = std::min<real_t>(sc_.jacobi_eps, 1e-11);
    fo.jacobi.max_iterations = 500'000;
    fo.jacobi.damping = 0.9;
    fo.matrix_free_box_ratio = 1e9;  // every round eligible

    try {
      auto opt_a = fo;
      opt_a.matrix_free = false;
      const fsp::FspResult assembled =
          fsp::solve_adaptive(net_, sc_.initial, opt_a);
      auto opt_m = fo;
      opt_m.matrix_free = true;
      const fsp::FspResult matrix_free =
          fsp::solve_adaptive(net_, sc_.initial, opt_m);
      if (!assembled.converged || !matrix_free.converged) return;
      const real_t da =
          fsp::l1_distance_to_reference(assembled, *space_, p_jacobi_);
      const real_t dm =
          fsp::l1_distance_to_reference(matrix_free, *space_, p_jacobi_);
      if (da > 1e-5) {
        fail("fsp-parity",
             "assembled FSP lands " + fmt(da) + " (L1) off the full answer");
      }
      if (dm > 1e-5) {
        fail("fsp-parity",
             "matrix-free FSP lands " + fmt(dm) + " (L1) off the full answer");
      }
    } catch (const std::exception& e) {
      fail("fsp-parity", std::string("adaptive FSP threw: ") + e.what());
    }
  }

  // -- batched ensemble parity ---------------------------------------------

  /// The batched multi-RHS solver's contract: lane k is bit-identical to
  /// the single-RHS path solving point k alone — same vector, same
  /// iteration count, same stop reason, same GMRES-fallback decision — at
  /// any thread count. The scenario is turned into a K=3 ensemble (the
  /// compiled rates plus two deterministic rescalings) so the lanes are
  /// genuinely distinct and converge at different iterations, exercising
  /// the per-lane stops.
  void check_ensemble() {
    if (jacobi_iterations_ > 100'000) return;  // too stiff to re-solve x6
    build_stencil();
    if (stencil_ == nullptr) return;
    if (stencil_->nrows() > opt_.ensemble_max) return;

    constexpr int kPoints = 3;
    std::vector<std::vector<real_t>> rates;
    Xoshiro256 rng(sc_.seed * 0x9E3779B97F4A7C15ULL + 0xBA7C4EDULL);
    for (int q = 0; q < kPoints; ++q) {
      std::vector<real_t> rk(static_cast<std::size_t>(net_.num_reactions()));
      for (int r = 0; r < net_.num_reactions(); ++r) {
        const real_t f = q == 0 ? 1.0 : rng.uniform(0.5, 2.0);
        rk[static_cast<std::size_t>(r)] = net_.reaction(r).rate * f;
      }
      rates.push_back(std::move(rk));
    }

    solver::EnsembleOptions eopt;
    eopt.jacobi = jacobi_options();
    solver::EnsembleResult batched;
    solver::EnsembleResult sequential;
    try {
      batched = solver::solve_ensemble(stencil_->table(), rates, eopt);
      auto sopt = eopt;
      sopt.batched = false;
      sequential = solver::solve_ensemble(stencil_->table(), rates, sopt);
    } catch (const std::invalid_argument&) {
      // Rates not rebind-eligible for this scenario's box (a zero-rate
      // compiled reaction): the ensemble path simply doesn't apply.
      return;
    }
    ran("ensemble");

    for (int q = 0; q < kPoints; ++q) {
      const auto& b = batched.points[static_cast<std::size_t>(q)];
      const auto& s = sequential.points[static_cast<std::size_t>(q)];
      if (!bitwise_equal(b.p, s.p)) {
        fail("ensemble", "batched point " + std::to_string(q) +
                             " differs bitwise from the sequential "
                             "single-RHS solve");
        return;
      }
      if (b.jacobi.iterations != s.jacobi.iterations ||
          b.jacobi.reason != s.jacobi.reason || b.gmres_used != s.gmres_used) {
        fail("ensemble", "batched point " + std::to_string(q) +
                             " stops differently from the sequential path (" +
                             std::to_string(b.jacobi.iterations) + " vs " +
                             std::to_string(s.jacobi.iterations) + " iters)");
        return;
      }
    }

    if (opt_.with_threads) {
      struct ThreadRestore {
        ~ThreadRestore() { util::set_max_threads(0); }
      } restore;
      auto solve_at = [&](int threads) {
        util::set_max_threads(threads);
        return solver::solve_ensemble(stencil_->table(), rates, eopt);
      };
      const auto e1 = solve_at(1);
      const auto e8 = solve_at(8);
      for (int q = 0; q < kPoints; ++q) {
        const auto& b = batched.points[static_cast<std::size_t>(q)];
        if (!bitwise_equal(e1.points[static_cast<std::size_t>(q)].p, b.p) ||
            !bitwise_equal(e8.points[static_cast<std::size_t>(q)].p, b.p)) {
          fail("ensemble", "batched ensemble point " + std::to_string(q) +
                               " differs bitwise across thread counts");
          return;
        }
      }
    }
  }

  // -- transient cross-check -----------------------------------------------

  /// Time-domain battery: uniformization vs Arnoldi expm(tA)v in L1 at
  /// several horizons, the transient FSP loop's bound against the same
  /// marginals, the SIMD-dispatched stencil path vs the assembled path,
  /// the semigroup property, the L1-contraction toward the
  /// stationary landscape (monotonicity needs no mixing-time assumption),
  /// and — when the SSA oracle is also enabled — a chi-square gate between
  /// the solved time marginal and an endpoint histogram of independent SSA
  /// trajectories. Horizons scale with 1 / max|a_ii| so the Poisson means
  /// stay bounded on stiff generators.
  void check_transient() {
    if (a_.nrows > opt_.transient_max) return;
    if (a_norm_ <= 0.0) return;  // zero generator: exp(At) == I
    const index_t root = space_->find(sc_.initial);
    if (root < 0) {
      fail("transient", "initial state missing from the enumerated space");
      return;
    }
    ran("transient");
    const solver::CsrOperator op(a_);
    real_t max_diag = 0.0;
    for (const real_t d : op.diag()) {
      max_diag = std::max(max_diag, std::abs(d));
    }
    const real_t base = 1.0 / max_diag;  // fastest timescale

    solver::TransientOptions uopt;  // eps 1e-12
    solver::KrylovExpmOptions kopt;
    kopt.tol = 1e-13;

    const auto point_mass = [&](std::vector<real_t>& p) {
      p.assign(n_, 0.0);
      p[static_cast<std::size_t>(root)] = 1.0;
    };

    std::vector<real_t> pu;
    std::vector<real_t> pk;
    std::vector<real_t> horizons;
    std::vector<std::vector<real_t>> marginals;  // uniformization P(t)
    real_t prev_station_dist = std::numeric_limits<real_t>::infinity();
    for (const real_t c : {0.5, 2.0, 8.0}) {
      const real_t t = c * base;
      point_mass(pu);
      const auto ru =
          solver::transient_solve(op, t, std::span<real_t>(pu), uopt);
      if (ru.truncated_early) {
        fail("transient", "uniformization hit max_terms at t=" + fmt(t));
        return;
      }
      real_t sum = 0.0;
      for (const real_t v : pu) {
        if (v < 0.0) {
          fail("transient", "uniformization produced a negative marginal "
                            "entry " + fmt(v));
          return;
        }
        sum += v;
      }
      if (std::abs(sum - 1.0) > 1e-10) {
        fail("transient", "time marginal at t=" + fmt(t) + " sums to " +
                              fmt(sum));
        return;
      }
      point_mass(pk);
      const auto rk =
          solver::krylov_expm_solve(op, t, std::span<real_t>(pk), kopt);
      if (rk.truncated_early || rk.tol_not_met) {
        fail("transient", "krylov expm could not meet tol at t=" + fmt(t));
        return;
      }
      const real_t dist = l1_distance(pu, pk);
      if (dist > 1e-10) {
        fail("transient", "uniformization vs krylov expm L1 " + fmt(dist) +
                              " at t=" + fmt(t));
        return;
      }
      // L1 contraction: every CTMC semigroup is an L1 contraction, so the
      // distance to ANY fixed point never grows with t — a stationarity
      // check with no mixing-time assumption.
      if (jacobi_converged_ && well_conditioned()) {
        const real_t station_dist = l1_distance(pu, p_jacobi_);
        if (station_dist > prev_station_dist + 1e-9) {
          fail("transient",
               "L1 distance to the stationary landscape grew with t: " +
                   fmt(prev_station_dist) + " -> " + fmt(station_dist));
          return;
        }
        prev_station_dist = station_dist;
      }
      horizons.push_back(t);
      marginals.push_back(pu);
    }
    check_transient_fsp(horizons, marginals);

    // Semigroup: P(t1 + t2) == step(P(t1), t2).
    {
      const real_t t1 = 1.0 * base;
      const real_t t2 = 3.0 * base;
      point_mass(pu);
      (void)solver::transient_solve(op, t1 + t2, std::span<real_t>(pu), uopt);
      point_mass(pk);
      (void)solver::transient_solve(op, t1, std::span<real_t>(pk), uopt);
      (void)solver::transient_solve(op, t2, std::span<real_t>(pk), uopt);
      const real_t dist = l1_distance(pu, pk);
      if (dist > 1e-10) {
        fail("transient", "semigroup violation: chained vs direct L1 " +
                              fmt(dist));
        return;
      }
    }

    // Stencil-path parity: the SIMD-dispatched matrix-free operator must
    // land on the assembled-path marginal. Skipped when the enumerated
    // space contains an absorbing state: the stencil table masks
    // zero-outflow box corners with a -1 diagonal sentinel (a deliberate
    // Jacobi guard), so the box propagation bleeds the mass parked there.
    bool has_absorbing = false;
    for (const real_t d : op.diag()) {
      if (d == 0.0) {
        has_absorbing = true;
        break;
      }
    }
    build_stencil();
    if (!has_absorbing && stencil_ != nullptr &&
        stencil_->nrows() <= 8 * opt_.transient_max) {
      const real_t t = 2.0 * base;
      point_mass(pu);
      (void)solver::transient_solve(op, t, std::span<real_t>(pu), uopt);
      const auto nb = static_cast<std::size_t>(stencil_->nrows());
      std::vector<real_t> pb(nb, 0.0);
      point_mass(pk);
      stencil_->scatter_from(*space_, pk, pb);
      (void)solver::transient_solve(*stencil_, t, std::span<real_t>(pb),
                                    uopt);
      std::vector<real_t> gathered(n_, 0.0);
      stencil_->gather_to(*space_, pb, gathered);
      const real_t dist = l1_distance(pu, gathered);
      if (dist > 1e-10) {
        fail("transient", "stencil-path transient differs from assembled "
                          "path by L1 " + fmt(dist));
        return;
      }
    }

    // SSA endpoint histogram vs the solved time marginal — the transient
    // extension of the stationary chi-square gate, behind the same cost
    // and conditioning window.
    if (!opt_.with_ssa || a_.nrows > opt_.ssa_max || a_norm_ < 0.5 ||
        a_norm_ > 500.0 || !well_conditioned()) {
      return;
    }
    ran("transient-ssa");
    const real_t t = 4.0 * base;
    point_mass(pu);
    (void)solver::transient_solve(op, t, std::span<real_t>(pu), uopt);
    ssa::MarginalOptions mo;
    mo.t = t;
    mo.trajectories = 2000;
    mo.seed = sc_.seed * 3 + 11;
    const auto emp = ssa::empirical_marginal(net_, *space_, sc_.initial, mo);
    const auto samples = static_cast<real_t>(mo.trajectories);
    real_t x2 = 0.0;
    std::size_t cells = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (pu[i] * samples < 5.0) continue;
      const real_t diff = emp[i] - pu[i];
      x2 += samples * diff * diff / pu[i];
      ++cells;
    }
    if (cells >= 2) {
      const auto dof = static_cast<real_t>(cells - 1);
      const real_t gate = dof + 10.0 * std::sqrt(2.0 * dof) + 10.0;
      if (x2 > gate) {
        fail("transient-ssa", "time-marginal chi-square " + fmt(x2) +
                                  " over " + std::to_string(cells) +
                                  " cells exceeds gate " + fmt(gate) +
                                  " at t=" + fmt(t));
      }
    }
    const real_t tv = ssa::total_variation(emp, pu);
    if (tv > 0.15) {
      fail("transient-ssa", "total variation " + fmt(tv) +
                                " between SSA endpoint histogram and the "
                                "solved time marginal");
    }
  }

  /// The transient FSP loop against P(t) over the enumerated space at the
  /// battery's horizons, with each engine.
  void check_transient_fsp(const std::vector<real_t>& grid,
                           const std::vector<std::vector<real_t>>& ref) {
    ran("transient-fsp");
    for (const auto engine : {fsp::TransientEngine::kUniformization,
                              fsp::TransientEngine::kKrylov}) {
      fsp::TransientFspOptions fo;
      fo.tol = 1e-6;
      fo.seed_states = 8;
      fo.engine = engine;
      fo.krylov.tol = 1e-13;
      std::string why;
      try {
        why = transient_fsp_fault(
            fsp::solve_transient(net_, sc_.initial, grid, fo), grid, ref,
            fo.tol);
      } catch (const std::exception& e) {
        why = std::string("threw ") + e.what();
      }
      if (!why.empty()) {
        fail("transient-fsp",
             (engine == fsp::TransientEngine::kKrylov ? "krylov: "
                                                      : "uniformization: ") +
                 why);
      }
    }
  }

  /// What breaks the FSP guarantee in `r`, or "" when it holds: every
  /// member is enumerated, every marginal covers the member set and is a
  /// lower bound of P(t) within 1e-12 whose L1 distance stays within its
  /// sink mass, and a converged answer meets tol.
  std::string transient_fsp_fault(const fsp::TransientFspResult& r,
                                  const std::vector<real_t>& grid,
                                  const std::vector<std::vector<real_t>>& ref,
                                  real_t tol) const {
    if (r.truncated_early) return "an engine budget cut the solve";
    if (r.converged && !(r.error_bound <= tol)) {
      return "converged with bound " + fmt(r.error_bound);
    }
    std::vector<std::size_t> where;
    for (index_t i = 0; i < r.space.size(); ++i) {
      const index_t j = space_->find(r.space.state(i));
      if (j < 0) return "member " + std::to_string(i) + " is not enumerated";
      where.push_back(static_cast<std::size_t>(j));
    }
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const std::vector<real_t>& m = r.marginals[g];
      const std::string at = " at t=" + fmt(grid[g]);
      if (m.size() != where.size()) {
        return std::to_string(m.size()) + " marginal entries for " +
               std::to_string(where.size()) + " members" + at;
      }
      std::vector<real_t> off = ref[g];  // P(t) off the member set
      real_t l1 = 0.0;
      for (std::size_t i = 0; i < where.size(); ++i) {
        if (m[i] > off[where[i]] + 1e-12) {
          return "member " + std::to_string(i) + " holds " + fmt(m[i]) +
                 " > P(t) = " + fmt(off[where[i]]) + at;
        }
        l1 += std::abs(m[i] - off[where[i]]);
        off[where[i]] = 0.0;
      }
      for (const real_t v : off) l1 += v;
      if (l1 > r.sink_mass[g] + 1e-10) {
        return "L1 distance " + fmt(l1) + " exceeds the sink mass " +
               fmt(r.sink_mass[g]) + at;
      }
    }
    return {};
  }

  const Scenario& sc_;
  const OracleOptions& opt_;
  VerifyResult& out_;

  core::ReactionNetwork net_;
  std::unique_ptr<core::StateSpace> space_;
  sparse::Csr a_;
  real_t a_norm_ = 0.0;
  std::size_t n_ = 0;

  std::unique_ptr<solver::StencilOperator> stencil_;
  bool stencil_attempted_ = false;

  std::vector<real_t> p_jacobi_;
  bool jacobi_converged_ = false;
  std::uint64_t jacobi_iterations_ = 0;
};

}  // namespace

VerifyResult verify_scenario(const Scenario& sc, const OracleOptions& opt) {
  VerifyResult out;
  try {
    Verifier(sc, opt, out).run();
  } catch (const std::exception& e) {
    // The battery must never crash the driver: an unexpected throw is
    // itself a finding, and the shrinker minimizes toward it like any
    // other oracle failure.
    out.passed = false;
    out.failures.push_back({"exception", e.what()});
  }
  return out;
}

}  // namespace cmesolve::verify
