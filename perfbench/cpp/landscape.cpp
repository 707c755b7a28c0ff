// landscape: one phage-lambda box of ~0.3M rows solved to eps = 1e-8 through
// StencilOperator + jacobi_solve, seeded with scatter_from over the
// enumerated space. Setup is dominated by enumeration; the solve by the
// stencil sweep and the Jacobi control passes. No serve, batched or fsp
// code runs.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "solver/jacobi.hpp"
#include "solver/stencil_operator.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

namespace cm = cmesolve;

namespace {

// 278,784 box rows, 117,468 states: each solver vector (2.2 MB) exceeds the
// 2 MiB per-core L2, all of them fit the shared L3.
constexpr int kMonomerCap = 10;
constexpr int kDimerCap = 5;
constexpr double kRateSpread = 0.02;
constexpr double kEps = 1e-8;
constexpr std::uint64_t kIterationBudget = 40'000;
constexpr int kMinAnswers = 3;
/// Accepted normalized residual of the answer, recomputed through the
/// assembled CSR generator (the solve stops at <= kEps on the stencil box).
constexpr double kCheckResidual = 10 * kEps;

/// Normalized residual ||A p||_inf / (||A||_inf ||p||_inf) through the
/// assembled generator, plus the sanity conditions of a distribution.
bool answer_ok(const cm::sparse::Csr& a, const std::vector<real_t>& p,
               std::string& why) {
  std::vector<real_t> r(p.size());
  cm::sparse::spmv(a, p, r);
  double rn = 0.0;
  double pn = 0.0;
  double sum = 0.0;
  double pmin = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    rn = std::max(rn, std::abs(r[i]));
    pn = std::max(pn, std::abs(p[i]));
    sum += p[i];
    pmin = std::min(pmin, p[i]);
  }
  const double resid = rn / (a.inf_norm() * pn);
  if (!(resid <= kCheckResidual) || std::abs(sum - 1.0) > 1e-9 ||
      pmin < 0.0) {
    why = "landscape: CSR residual " + std::to_string(resid) + ", mass " +
          std::to_string(sum) + ", min " + std::to_string(pmin);
    return false;
  }
  return true;
}

}  // namespace

void run_landscape(const Args& args, Recorder& rec, Outcome& out,
                   double triad_gbps) {
  cm::core::models::PhageLambdaParams params;
  params.cap_ci = params.cap_cro = kMonomerCap;
  params.cap_ci2 = params.cap_cro2 = kDimerCap;
  const cm::core::ReactionNetwork net = jitter_rates(
      cm::core::models::phage_lambda(params), args.seed, kRateSpread);
  const cm::core::State initial = cm::core::models::phage_lambda_initial(params);

  cm::solver::JacobiOptions jopt;
  jopt.eps = kEps;
  jopt.damping = 0.95;
  jopt.max_iterations = kIterationBudget;

  std::vector<double> setup_s;
  std::vector<double> solve_s;
  std::vector<double> latency_ms;
  std::vector<real_t> first;  // box layout; every later answer must match it
  std::size_t answers = 0;
  double rss_mib = 0.0;  // after the second answer; later ones repeat it
  std::unique_ptr<cm::core::StateSpace> space;
  std::unique_ptr<cm::solver::StencilOperator> op;
  cm::solver::JacobiResult last;

  const double start = now_s();
  while (answers < static_cast<std::size_t>(kMinAnswers) ||
         now_s() - start < args.seconds) {
    Recorder::Scope answer_span(rec, "landscape.answer", "bench");
    const double t0 = now_s();
    std::vector<real_t> x;
    {
      Recorder::Scope s(rec, "landscape.setup", "bench");
      op.reset();
      space.reset();
      {
        Recorder::Scope c(rec, "core.StateSpace", "core");
        space = std::make_unique<cm::core::StateSpace>(net, initial,
                                                       50'000'000);
      }
      {
        Recorder::Scope c(rec, "core.StencilTable", "core");
        op = std::make_unique<cm::solver::StencilOperator>(net, initial);
      }
      Recorder::Scope c(rec, "solver.scatter_from", "solver");
      const std::vector<real_t> uniform(
          static_cast<std::size_t>(space->size()),
          1.0 / static_cast<real_t>(space->size()));
      x.assign(static_cast<std::size_t>(op->nrows()), 0.0);
      op->scatter_from(*space, uniform, x);
    }
    const double t1 = now_s();
    {
      Recorder::Scope s(rec, "solver.jacobi_solve", "solver");
      last = cm::solver::jacobi_solve(*op, op->inf_norm(), x, jopt);
    }
    const double t2 = now_s();
    ++out.attempted;
    if (last.reason != cm::solver::StopReason::kConverged) {
      out.fail("landscape: Jacobi stopped by " +
               std::string(cm::solver::to_string(last.reason)) + " after " +
               std::to_string(last.iterations) + " iterations");
    }
    std::printf("# answer %zu: setup %.3f s, solve %.3f s, %llu iterations\n",
                answers, t1 - t0, t2 - t1,
                static_cast<unsigned long long>(last.iterations));
    setup_s.push_back(t1 - t0);
    solve_s.push_back(t2 - t1);
    latency_ms.push_back((t2 - t0) * 1e3);
    // Same input, same bits: the determinism contract makes every repeat
    // of the solve bitwise equal to the first.
    if (answers++ == 0) {
      first = std::move(x);
    } else if (x != first) {
      out.fail("landscape: repeat solve differs bitwise from the first");
    }
    if (answers == 2) rss_mib = peak_rss_mib();
  }
  double busy = 0.0;
  for (const double l : latency_ms) busy += l / 1e3;
  record_answer_metrics(rec, setup_s, solve_s, latency_ms,
                        static_cast<double>(answers) / busy, rss_mib);

  // Checks, outside every timed region: the answer's residual through the
  // assembled CSR operator, which the solve never used.
  {
    Recorder::Scope s(rec, "landscape.check", "bench");
    const cm::sparse::Csr a = cm::core::rate_matrix(*space);
    std::vector<real_t> p(static_cast<std::size_t>(space->size()));
    std::string why;
    op->gather_to(*space, first, p);
    if (!answer_ok(a, p, why)) out.fail(why);
    // Self-check: a perturbed answer must be flagged.
    std::size_t imax = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] > p[imax]) imax = i;
    }
    p[imax] *= 1.01;
    double sum = 0.0;
    for (const real_t v : p) sum += v;
    for (real_t& v : p) v /= sum;
    out.selfcheck_ok = !answer_ok(a, p, why);
  }

  if (!rec.tracing()) return;
  probe_network_layers(rec, net, initial, triad_gbps);
  const std::uint64_t checks =
      last.iterations / jopt.check_every +
      (last.iterations % jopt.check_every != 0 &&
               last.iterations == jopt.max_iterations
           ? 1
           : 0);
  rec.layer("solver.jacobi_iterations", static_cast<double>(last.iterations));
  rec.layer("solver.jacobi_checks", static_cast<double>(checks));
  const double sweep_s = rec.layers().at("solver.sweep_s");
  rec.layer("solver.jacobi_control_share",
            1.0 - static_cast<double>(last.iterations + checks) * sweep_s /
                      median(solve_s));
}

}  // namespace perfbench
