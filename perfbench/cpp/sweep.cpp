// sweep: K seeded rate points of one phage-lambda network through
// solver::solve_ensemble with default EnsembleOptions except a Jacobi
// budget — the batched K-lane sweep, lane control passes, continuation warm
// starts and GMRES rescue, with no enumeration. Multi-threaded, the library
// default. Not listed in BENCHMARK.json while the batched sweep returns
// wrong bits above one thread (see README.md); run it by name.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/models.hpp"
#include "solver/batched.hpp"
#include "solver/stencil_operator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace cm = cmesolve;

namespace {

constexpr int kMonomerCap = 6;  // 50,176 box rows
constexpr int kDimerCap = 3;
constexpr int kPoints = 4;
constexpr double kRateSpread = 0.3;
constexpr std::uint64_t kIterationBudget = 3'000;
/// Accepted L1 distance between a point and the sequential reference.
constexpr double kCheckL1 = 1e-4;

}  // namespace

void run_sweep(const Args& args, Recorder& rec, Outcome& out,
               double triad_gbps) {
  cm::core::models::PhageLambdaParams params;
  params.cap_ci = params.cap_cro = kMonomerCap;
  params.cap_ci2 = params.cap_cro2 = kDimerCap;
  const cm::core::ReactionNetwork net = cm::core::models::phage_lambda(params);
  const cm::core::State initial = cm::core::models::phage_lambda_initial(params);

  std::vector<std::vector<real_t>> rates(kPoints);
  cm::Xoshiro256 rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  for (auto& rk : rates) {
    for (const cm::core::Reaction& r : net.reactions()) {
      rk.push_back(r.rate * std::exp(kRateSpread * (2.0 * rng.uniform() - 1.0)));
    }
  }
  cm::solver::EnsembleOptions eopt;
  eopt.jacobi.max_iterations = kIterationBudget;

  // The documented bitwise reference: the same ensemble, point by point
  // through the single-RHS operator.
  const cm::solver::StencilOperator ref_anchor(net, initial);
  cm::solver::EnsembleOptions ropt = eopt;
  ropt.batched = false;
  const cm::solver::EnsembleResult ref = [&] {
    Recorder::Scope s(rec, "sweep.reference", "bench");
    return cm::solver::solve_ensemble(ref_anchor.table(), rates, ropt);
  }();
  for (const auto& pt : ref.points) {
    if (!pt.converged) out.fail("sweep: sequential reference did not converge");
  }

  std::vector<double> setup_s;
  std::vector<double> solve_s;
  std::vector<double> latency_ms;
  std::vector<double> unit_cache_s;
  cm::solver::EnsembleResult last;
  double parity_mismatches = 0;
  const double start = now_s();
  while (setup_s.empty() || now_s() - start < args.seconds) {
    Recorder::Scope answer_span(rec, "sweep.answer", "bench");
    const double t0 = now_s();
    const auto anchor = [&] {
      Recorder::Scope s(rec, "core.StencilTable", "core");
      return cm::solver::StencilOperator(net, initial);
    }();
    const double t1 = now_s();
    {
      Recorder::Scope s(rec, "solver.solve_ensemble", "solver");
      last = cm::solver::solve_ensemble(anchor.table(), rates, eopt);
    }
    const double t2 = now_s();
    setup_s.push_back(t1 - t0 + last.seconds_setup);
    solve_s.push_back(t2 - t1 - last.seconds_setup);
    latency_ms.push_back((t2 - t0) * 1e3);
    unit_cache_s.push_back(last.seconds_setup);

    int rescued = 0;
    parity_mismatches = 0;
    for (int k = 0; k < kPoints; ++k) {
      const auto& pt = last.points[static_cast<std::size_t>(k)];
      const auto& rp = ref.points[static_cast<std::size_t>(k)];
      ++out.attempted;
      rescued += pt.gmres_used ? 1 : 0;
      if (pt.p != rp.p) parity_mismatches += 1;
      if (!pt.converged) {
        out.fail("sweep: point " + std::to_string(k) +
                 " unconverged after Jacobi and GMRES");
      } else if (!(l1_distance(pt.p, rp.p) <= kCheckL1)) {
        out.fail("sweep: point " + std::to_string(k) + " L1 " +
                 std::to_string(l1_distance(pt.p, rp.p)) +
                 " from the sequential reference");
      }
    }
    std::printf("# answer %zu: setup %.3f s, solve %.3f s, %d/%d GMRES "
                "rescues, %.0f parity mismatches\n",
                setup_s.size() - 1, setup_s.back(), solve_s.back(), rescued,
                kPoints, parity_mismatches);
  }
  double busy = 0.0;
  for (const double l : latency_ms) busy += l / 1e3;
  record_answer_metrics(rec, setup_s, solve_s, latency_ms,
                        static_cast<double>(setup_s.size()) / busy,
                        peak_rss_mib());

  // Self-check: a reference point with mass moved between two states.
  std::vector<real_t> bad = ref.points.front().p;
  std::size_t a = 0;
  while (a + 1 < bad.size() && bad[a] == 0.0) ++a;
  bad[a] += 5 * kCheckL1;
  bad[a + 1] -= 5 * kCheckL1;
  out.selfcheck_ok = !(l1_distance(bad, ref.points.front().p) <= kCheckL1);

  if (!rec.tracing()) return;
  probe_network_layers(rec, net, initial, triad_gbps);
  {
    const cm::solver::StencilOperator anchor(net, initial);
    const cm::solver::EnsembleStructure structure(anchor.table());
    const cm::solver::BatchedStencilOperator op(structure, rates);
    const std::size_t n = static_cast<std::size_t>(op.nrows()) * kPoints;
    std::vector<real_t> x(n, 1.0 / static_cast<real_t>(op.nrows()));
    std::vector<real_t> y(n);
    op.multiply(x, y);
    std::vector<double> t;
    Recorder::Scope s(rec, "solver.BatchedStencilOperator::multiply", "solver");
    for (int i = 0; i < 30; ++i) {
      const double t0 = now_s();
      op.multiply(x, y);
      t.push_back(now_s() - t0);
    }
    const double sweep_s = median(t);
    const auto bytes = static_cast<double>(op.bytes_modeled());
    rec.layer("solver.batched_sweep_s", sweep_s);
    rec.layer("solver.batched_sweep_bytes", bytes);
    rec.layer("solver.batched_sweep_bw_frac",
              triad_gbps > 0 ? bytes / sweep_s / (triad_gbps * 1e9) : 0.0);
  }
  double iterations = 0;
  double by_jacobi = 0;
  double rescues = 0;
  for (const auto& pt : last.points) {
    iterations += static_cast<double>(pt.jacobi.iterations);
    by_jacobi += pt.jacobi.reason == cm::solver::StopReason::kConverged;
    rescues += pt.gmres_used;
  }
  rec.layer("solver.ensemble_unit_cache_s", median(unit_cache_s));
  rec.layer("solver.ensemble_iterations", iterations);
  rec.layer("solver.ensemble_jacobi_frac", by_jacobi / kPoints);
  rec.layer("solver.ensemble_gmres_rescues", rescues);
  rec.layer("solver.ensemble_parity_mismatches", parity_mismatches);
}

}  // namespace perfbench
