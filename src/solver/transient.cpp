//
// Uniformization engine: two-sided Poisson truncation, interval splitting.
// See transient.hpp for the contract.
//
#include "solver/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/simd_kernels.hpp"

namespace cmesolve::solver {
namespace {

void validate(const TransientOptions& opt) {
  if (!(opt.eps > 0.0) || !(opt.eps < 1.0)) {
    throw std::invalid_argument(
        "transient_solve: eps must be in (0, 1) — eps == 0 can never "
        "terminate the series (the mass sum carries rounding error); use a "
        "tiny positive eps and rely on the tail-exhaustion exit");
  }
  if (!(opt.lambda_margin >= 1.0)) {
    throw std::invalid_argument(
        "transient_solve: lambda_margin must be >= 1 (lambda below "
        "max |a_ii| makes B = I + A/lambda negative)");
  }
  if (!(opt.max_step_mean > 0.0)) {
    throw std::invalid_argument(
        "transient_solve: max_step_mean must be positive");
  }
}

/// y += c .* x through the kernel table — same deterministic elementwise
/// contract as axpy in vector_ops.hpp.
void cmul_add(std::span<real_t> y, std::span<const real_t> c,
              std::span<const real_t> x) {
  real_t* py = y.data();
  const real_t* pc = c.data();
  const real_t* px = x.data();
  const util::simdk::KernelOps& ko = util::simdk::kernels();
  util::parallel_for(y.size(),
                     [py, pc, px, &ko](std::size_t b, std::size_t e) {
                       ko.cmul_add(py + b, pc + b, px + b, e - b);
                     });
}

struct Workspace {
  std::vector<real_t> v;    ///< B^k P(0)
  std::vector<real_t> bv;   ///< off-diagonal product scratch
  std::vector<real_t> acc;  ///< windowed series accumulator
};

/// One uniformization sub-step over horizon dt with tail budget eps_step.
/// Reads P from `p`, leaves the (optionally renormalized) windowed series
/// sum back in `p`. Returns false when the max_terms budget ran out.
bool uniformize_step(const TransientOperator& op, real_t dt, real_t eps_step,
                     std::span<real_t> p, Workspace& ws,
                     const TransientOptions& opt, TransientResult& out) {
  const auto n = static_cast<std::size_t>(op.n);
  const real_t m = out.lambda * dt;  // Poisson mean of this step
  if (m == 0.0) return true;
  const real_t eps_left = 0.5 * eps_step;
  const real_t eps_right = eps_step - eps_left;

  ws.v.assign(p.begin(), p.end());
  ws.bv.assign(n, 0.0);
  ws.acc.assign(n, 0.0);
  const std::span<real_t> v(ws.v);
  const std::span<real_t> bv(ws.bv);
  const std::span<real_t> acc(ws.acc);

  // Poisson weights by stable log-space recursion:
  // log w_0 = -m; log w_k = log w_{k-1} + log(m / k).
  real_t log_w = -m;
  real_t cum = 0.0;        // total weight seen (window + trimmed head)
  real_t covered = 0.0;    // window weight actually accumulated
  real_t head = 0.0;       // left-trimmed weight
  bool accumulating = false;
  bool seen_weight = false;
  std::uint64_t k = 0;
  bool budget_ok = true;
  for (;; ++k) {
    const real_t w = std::exp(log_w);
    if (w > 0.0) seen_weight = true;
    if (!accumulating && cum + w <= eps_left &&
        static_cast<real_t>(k) < m) {
      // Still safely inside the left tail: the term's weight is dropped
      // (bounded by eps_left in total) but v must keep advancing below.
      head += w;
      cum += w;
      ++out.left_skipped;
    } else {
      accumulating = true;
      if (w > 0.0) {
        covered += w;
        cum += w;
        axpy(w, v, acc);
      }
    }
    if (cum >= 1.0 - eps_right) break;
    // Tail exhaustion: past the Poisson mode the weights decay
    // monotonically, so once one underflows every later one does too and
    // the series is numerically complete. Checked independently of the
    // mass test — for eps below the ~1e-12 accumulation floor the mass
    // test can never fire.
    if (w == 0.0 && seen_weight && static_cast<real_t>(k) > m) {
      out.tail_exhausted = true;
      break;
    }
    if (out.matvecs >= opt.max_terms) {
      out.truncated_early = true;
      budget_ok = false;
      break;
    }
    // v <- B v = v + (offdiag*v + diag.*v) / lambda
    op.multiply(v, bv);
    cmul_add(bv, op.diag, v);
    axpy(1.0 / out.lambda, bv, v);
    ++out.matvecs;
    log_w += std::log(m / static_cast<real_t>(k + 1));
  }

  // Walk the remaining right tail scalar (no SpMVs) until it underflows:
  // covered + truncated then closes to the full representable series sum.
  // Pointless after a budget cut — the tail was never reached.
  real_t right = 0.0;
  if (budget_ok && !out.tail_exhausted) {
    real_t lw = log_w;
    for (std::uint64_t j = k + 1; j <= k + opt.max_terms; ++j) {
      lw += std::log(m / static_cast<real_t>(j));
      const real_t w = std::exp(lw);
      if (w == 0.0 && static_cast<real_t>(j) > m) break;
      right += w;
    }
  }

  out.covered_mass *= covered;
  out.truncated_mass += head + right;
  ++out.steps;
  obs::flight("transient.step", obs::FlightKind::kTransientStep,
              out.steps - 1, covered);

  if (covered > 0.0) {
    std::copy(acc.begin(), acc.end(), p.begin());
    if (opt.renormalize) normalize_l1(p);
  }
  // covered == 0 can only happen when max_terms cut the series before the
  // Poisson bulk (every computed weight underflowed); p is left unchanged —
  // truncated_early + covered_mass == 0 tells the caller so.
  return budget_ok;
}

}  // namespace

TransientResult transient_solve(const TransientOperator& op, real_t t,
                                std::span<real_t> p,
                                const TransientOptions& opt) {
  CMESOLVE_TRACE_SPAN("solver.transient");
  if (t < 0.0) {
    throw std::invalid_argument("transient_solve: negative time");
  }
  validate(opt);
  if (p.size() != static_cast<std::size_t>(op.n)) {
    throw std::invalid_argument("transient_solve: p size mismatch");
  }
  real_t max_diag = 0.0;
  for (const real_t d : op.diag) max_diag = std::max(max_diag, std::abs(d));
  TransientResult out;
  out.lambda = opt.lambda_margin * max_diag;
  out.covered_mass = 1.0;
  // Interval splitting: no sub-step carries a Poisson mean above
  // max_step_mean. A zero mean (t == 0 or A == 0) leaves p as it is.
  const real_t mean = out.lambda * t;
  if (mean > 0.0) {
    const auto splits = static_cast<std::uint64_t>(
        std::max<real_t>(1.0, std::ceil(mean / opt.max_step_mean)));
    const real_t dt = t / static_cast<real_t>(splits);
    const real_t eps_step = opt.eps / static_cast<real_t>(splits);
    Workspace ws;
    for (std::uint64_t s = 0; s < splits; ++s) {
      if (!uniformize_step(op, dt, eps_step, p, ws, opt, out)) break;
    }
  }

  obs::flight("transient.stop", obs::FlightKind::kStop, out.steps,
              out.truncated_early ? 0.0 : 1.0);
  obs::count("transient.solves");
  obs::gauge("transient.matvecs", static_cast<real_t>(out.matvecs));
  obs::gauge("transient.steps", static_cast<real_t>(out.steps));
  obs::observe("transient.covered_mass", out.covered_mass);
  return out;
}

}  // namespace cmesolve::solver
