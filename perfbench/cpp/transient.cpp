// transient: fsp::solve_transient with the uniformization engine on phage
// lambda over a short time grid. The only workload that runs FSP growth
// rounds, absorbing assembly and the uniformization step y += c*(A*v).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "fsp/fsp.hpp"
#include "solver/krylov_expm.hpp"
#include "solver/operators.hpp"

namespace perfbench {

namespace cm = cmesolve;

namespace {

constexpr int kMonomerCap = 8;
constexpr int kDimerCap = 4;
constexpr double kRateSpread = 0.02;
constexpr double kTol = 1e-6;
constexpr double kHorizon = 2.0;
constexpr int kGridPoints = 4;
constexpr int kMinAnswers = 5;
constexpr int kSetupReps = 5;
/// Uniformization series budget per round; a round that exhausts it ends
/// the solve with truncated_early set, which counts as a failure.
constexpr std::uint64_t kTermBudget = 200'000;

/// Round-1 set-up of solve_transient, through the same public calls:
/// seed BFS, stencil cache, absorbing assembly, operator, initial vector.
double fsp_setup_seconds(const cm::core::ReactionNetwork& net,
                         const cm::core::State& initial,
                         const cm::fsp::TransientFspOptions& opt) {
  const double t0 = now_s();
  cm::core::DynamicStateSpace space(net, initial);
  space.grow_bfs(opt.seed_states);
  cm::core::ProjectedRateMatrix matrix(net);
  matrix.extend(space);
  const auto rs = matrix.assemble_absorbing(space);
  const cm::solver::CsrOperator op(rs.a);
  std::vector<real_t> p(static_cast<std::size_t>(space.size()), 0.0);
  p[static_cast<std::size_t>(space.find(initial))] = 1.0;
  const double t = now_s() - t0;
  if (op.nrows() != space.size()) std::abort();
  return t;
}

/// Final marginal against a Krylov propagation over the same member set.
bool answer_ok(const cm::core::ReactionNetwork& net,
               const cm::core::State& initial,
               const cm::fsp::TransientFspResult& r,
               const std::vector<real_t>& marginal, std::string& why) {
  if (r.truncated_early || !(r.error_bound <= kTol) || !r.converged) {
    why = "transient: truncated=" + std::to_string(r.truncated_early) +
          " bound=" + std::to_string(r.error_bound);
    return false;
  }
  cm::core::ProjectedRateMatrix matrix(net);
  matrix.extend(r.space);
  const auto rs = matrix.assemble_absorbing(r.space);
  const cm::solver::CsrOperator op(rs.a);
  std::vector<real_t> p(static_cast<std::size_t>(r.space.size()), 0.0);
  p[static_cast<std::size_t>(r.space.find(initial))] = 1.0;
  cm::solver::KrylovExpmOptions kopt;
  kopt.renormalize = false;
  kopt.tol = 1e-10;
  const auto kr = cm::solver::krylov_expm_solve(op, kHorizon, p, kopt);
  if (kr.truncated_early || kr.tol_not_met || marginal.size() != p.size()) {
    why = "transient: Krylov reference unavailable";
    return false;
  }
  const double l1 = l1_distance(p, marginal);
  if (!(l1 <= kTol)) {
    why = "transient: final marginal L1 " + std::to_string(l1) +
          " from the Krylov propagation";
    return false;
  }
  return true;
}

}  // namespace

void run_transient(const Args& args, Recorder& rec, Outcome& out,
                   double triad_gbps) {
  cm::core::models::PhageLambdaParams params;
  params.cap_ci = params.cap_cro = kMonomerCap;
  params.cap_ci2 = params.cap_cro2 = kDimerCap;
  const cm::core::ReactionNetwork net = jitter_rates(
      cm::core::models::phage_lambda(params), args.seed, kRateSpread);
  const cm::core::State initial = cm::core::models::phage_lambda_initial(params);

  std::vector<real_t> grid;
  for (int i = 1; i <= kGridPoints; ++i) {
    grid.push_back(kHorizon * i / kGridPoints);
  }
  cm::fsp::TransientFspOptions opt;
  opt.tol = kTol;
  opt.engine = cm::fsp::TransientEngine::kUniformization;
  opt.uniformization.max_terms = kTermBudget;

  std::vector<double> setup_s;
  std::vector<double> solve_s;
  // The first answer is kept for the checks; every repeat of the same input
  // must reproduce it bitwise (the determinism contract).
  std::unique_ptr<cm::fsp::TransientFspResult> first;
  std::size_t answers = 0;
  double rss_mib = 0.0;  // after the second answer; later ones repeat it
  const double start = now_s();
  while (answers < static_cast<std::size_t>(kMinAnswers) ||
         now_s() - start < args.seconds) {
    Recorder::Scope answer_span(rec, "transient.answer", "bench");
    {
      Recorder::Scope s(rec, "transient.setup", "bench");
      for (int i = 0; i < kSetupReps; ++i) {
        setup_s.push_back(fsp_setup_seconds(net, initial, opt));
      }
    }
    const double t0 = now_s();
    auto r = [&] {
      Recorder::Scope s(rec, "fsp.solve_transient", "fsp");
      return std::make_unique<cm::fsp::TransientFspResult>(
          cm::fsp::solve_transient(net, initial, grid, opt));
    }();
    solve_s.push_back(now_s() - t0);
    std::printf("# answer %zu: solve %.3f s, %zu rounds, %llu matvecs\n",
                answers, solve_s.back(), r->rounds.size(),
                static_cast<unsigned long long>(r->total_matvecs));
    ++out.attempted;
    if (answers++ == 0) {
      first = std::move(r);
    } else if (r->marginals != first->marginals ||
               r->total_matvecs != first->total_matvecs) {
      out.fail("transient: repeat solve differs bitwise from the first");
    }
    if (answers == 2) rss_mib = peak_rss_mib();
  }
  // The solve_transient call covers the whole answer, its set-up included.
  std::vector<double> latency_ms;
  double busy = 0.0;
  for (const double s : solve_s) {
    latency_ms.push_back(s * 1e3);
    busy += s;
  }
  record_answer_metrics(rec, setup_s, solve_s, latency_ms,
                        static_cast<double>(answers) / busy, rss_mib);

  const cm::fsp::TransientFspResult& r = *first;
  {
    Recorder::Scope s(rec, "transient.check", "bench");
    std::string why;
    if (r.marginals.empty() ||
        !answer_ok(net, initial, r, r.marginals.back(), why)) {
      out.fail(why.empty() ? "transient: no marginal" : why);
    }
    // Self-check: shifting 10*tol of mass between two states must be caught.
    if (!r.marginals.empty() && r.marginals.back().size() >= 2) {
      std::vector<real_t> bad = r.marginals.back();
      bad[0] += 5 * kTol;
      bad[1] -= 5 * kTol;
      out.selfcheck_ok = !answer_ok(net, initial, r, bad, why);
    }
  }

  if (!rec.tracing()) return;
  probe_network_layers(rec, net, initial, triad_gbps);
  rec.layer("solver.transient_matvecs", static_cast<double>(r.total_matvecs));
  rec.layer("fsp.rounds", static_cast<double>(r.rounds.size()));
  rec.layer("fsp.states", static_cast<double>(r.space.size()));
  cm::core::ProjectedRateMatrix matrix(net);
  matrix.extend(r.space);
  const auto rs = matrix.assemble_absorbing(r.space);
  const cm::solver::CsrOperator op(rs.a);
  std::vector<real_t> x(static_cast<std::size_t>(op.nrows()),
                        1.0 / static_cast<real_t>(op.nrows()));
  std::vector<real_t> y(x.size());
  op.multiply(x, y);
  std::vector<double> t;
  {
    Recorder::Scope s(rec, "solver.CsrOperator::multiply", "solver");
    for (int i = 0; i < 30; ++i) {
      const double t0 = now_s();
      op.multiply(x, y);
      t.push_back(now_s() - t0);
    }
  }
  const double matvec_s = median(t);
  rec.layer("solver.transient_matvec_s", matvec_s);
  // Rounds grow the member set, so each round's matvecs are charged at the
  // final set's matvec time scaled by the round's share of its rows.
  double matvec_time = 0.0;
  for (const auto& round : r.rounds) {
    matvec_time += static_cast<double>(round.matvecs) * matvec_s *
                   static_cast<double>(round.states) /
                   static_cast<double>(r.space.size());
  }
  rec.layer("fsp.overhead_share", 1.0 - matvec_time / median(solve_s));
}

}  // namespace perfbench
