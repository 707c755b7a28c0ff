// serve: a closed loop of client threads submitting wire bytes of seeded,
// jittered variants of serve::builtin_families in Zipf popularity order
// through Controller::submit, each client blocking on the returned future.
// Runs the wire parse, the priority queue, the exact and nearest-neighbour
// cache, and many small CSR solves with per-request enumeration and
// assembly.
//
// The traffic is the toggle-25 family. One cold phage-lambda-8 solve takes
// seconds, so a round's wall time would hinge on where in the trace its
// first request lands; that family is the "largest serve scenario" the
// traced run probes instead (CSR SpMV inside an InlineRegion, wire parse).
#include <algorithm>
#include <future>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "serve/controller.hpp"
#include "serve/workload.hpp"
#include "solver/jacobi.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "util/rng.hpp"
#include "verify/repro_io.hpp"

namespace perfbench {

namespace cm = cmesolve;

namespace {

constexpr std::size_t kVariants = 24;  // per builtin family
constexpr double kJitter = 0.15;
constexpr std::uint64_t kFamilySeed = 1;
constexpr double kZipf = 1.1;
constexpr int kClients = 2;
constexpr std::size_t kRequestsPerRound = 400;
constexpr int kMinRounds = 2;
constexpr int kSetupReps = 5;
/// Jacobi budget written into every request; a solve that stops on it is
/// a counted failure.
constexpr std::uint64_t kIterationBudget = 100'000;
/// Accepted L1 distance between a served vector and the direct solve. Both
/// stop at a normalized residual of 1e-9; on the bistable toggle switch two
/// such solutions were measured 1.4e-5 apart.
constexpr double kCheckL1 = 1e-4;

struct Request {
  std::size_t variant = 0;
  cm::serve::Priority pri = cm::serve::Priority::kNormal;
};

struct Sample {
  std::size_t variant = 0;
  double latency_ms = 0.0;
  double admit_us = 0.0;
  cm::serve::SolveResponse resp;
};

struct Variant {
  std::string bytes;
  cm::verify::Scenario scenario;
};

/// Per-request set-up of a cold solve, as a worker runs it: wire parse,
/// network, enumeration, CSR assembly and operator.
void cold_setup(const std::string& bytes) {
  const cm::verify::Scenario sc = cm::verify::parse_repro(bytes);
  const cm::core::ReactionNetwork net = cm::verify::build_network(sc);
  const cm::core::StateSpace space(net, sc.initial, sc.max_states);
  const cm::sparse::Csr a = cm::core::rate_matrix(space);
  const cm::solver::CsrOperator op(a);
  if (op.nrows() != space.size()) std::abort();
}

/// Direct solve of a scenario through the matrix-free stencil operator —
/// a path the serve workers never take — in the worker's state order.
std::vector<real_t> direct_solve(const cm::verify::Scenario& sc, bool& ok) {
  const cm::core::ReactionNetwork net = cm::verify::build_network(sc);
  const cm::core::StateSpace space(net, sc.initial, sc.max_states);
  const cm::solver::StencilOperator op(net, sc.initial);
  std::vector<real_t> p(static_cast<std::size_t>(space.size()),
                        1.0 / static_cast<real_t>(space.size()));
  std::vector<real_t> x(static_cast<std::size_t>(op.nrows()));
  op.scatter_from(space, p, x);
  cm::solver::JacobiOptions jopt;
  jopt.eps = sc.jacobi_eps;
  jopt.stagnation_eps = sc.jacobi_stagnation_eps;
  jopt.damping = sc.jacobi_damping;
  jopt.max_iterations = kIterationBudget;
  const auto r = cm::solver::jacobi_solve(op, op.inf_norm(), x, jopt);
  ok = r.reason == cm::solver::StopReason::kConverged;
  op.gather_to(space, x, p);
  return p;
}

}  // namespace

void run_serve(const Args& args, Recorder& rec, Outcome& out,
               double triad_gbps) {
  // The variant set is fixed; the run's seed drives which variants are
  // popular, the Zipf trace and the priority mix. Jittered toggle variants
  // differ widely in Jacobi iterations (the switch's mixing time is
  // exponential in its rates), so a seed-drawn variant set moved the whole
  // run's solve work by +-12% from seed to seed.
  const auto families =
      cm::serve::builtin_families(kVariants, kJitter, kFamilySeed);
  const cm::serve::SweepFamily& traffic = families.front();
  const cm::verify::Scenario& largest = families.back().variants.front();
  std::vector<Variant> pool;
  for (cm::verify::Scenario sc : traffic.variants) {
    sc.jacobi_max_iterations = kIterationBudget;
    pool.push_back({cm::verify::serialize_repro(sc), sc});
  }
  // Popularity: a seeded permutation of the pool, hottest first.
  std::vector<std::size_t> by_rank(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) by_rank[i] = i;
  cm::Xoshiro256 rng(args.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.bounded(i)]);
  }

  // Worker count comes from CMESOLVE_SERVE_WORKERS, which run.py fixes.
  const cm::serve::ServeOptions sopt = cm::serve::serve_options_from_env();
  std::printf("# serve: %d clients, %d workers, queue %zu, cache %zu\n",
              kClients, sopt.workers, sopt.queue_capacity,
              sopt.cache_capacity);

  std::vector<double> setup_s;
  std::vector<double> round_s;
  std::vector<Sample> samples;
  std::mutex samples_m;
  std::exception_ptr client_error;  // guarded by samples_m
  std::int64_t next_request = 0;

  // Checks, between rounds and outside every timed region: status and
  // convergence of every response, every solved vector against a direct
  // solve of its scenario, every cache hit bitwise against a solve of the
  // same key in the same round. Vectors are dropped once checked, so the
  // resident set does not grow with the number of rounds.
  std::map<std::size_t, std::vector<real_t>> reference;
  const auto check_round = [&](std::size_t begin) {
    Recorder::Scope s(rec, "serve.check", "bench");
    std::map<std::size_t, std::vector<const Sample*>> solved;
    for (std::size_t i = begin; i < samples.size(); ++i) {
      const auto& r = samples[i].resp;
      if (!r.cache_hit && r.status == cm::serve::Status::kOk) {
        solved[samples[i].variant].push_back(&samples[i]);
      }
    }
    for (std::size_t i = begin; i < samples.size(); ++i) {
      const Sample& smp = samples[i];
      const auto& r = smp.resp;
      ++out.attempted;
      if (r.status != cm::serve::Status::kOk) {
        out.fail("serve: status " +
                 std::string(cm::serve::to_string(r.status)) + ": " + r.error);
        continue;
      }
      if (r.reason != cm::solver::StopReason::kConverged) {
        out.fail("serve: solve stopped by " +
                 std::string(cm::solver::to_string(r.reason)));
        continue;
      }
      if (r.cache_hit) {
        bool same = false;
        for (const Sample* solve : solved[smp.variant]) {
          same = same || solve->resp.p == r.p;
        }
        if (!same) out.fail("serve: cache hit differs from every solve of its key");
        continue;
      }
      auto it = reference.find(smp.variant);
      if (it == reference.end()) {
        bool conv = false;
        it = reference
                 .emplace(smp.variant,
                          direct_solve(pool[smp.variant].scenario, conv))
                 .first;
        if (!conv) out.fail("serve: direct reference solve did not converge");
      }
      const double d = l1_distance(r.p, it->second);
      if (!(d <= kCheckL1)) {
        out.fail("serve: " + pool[smp.variant].scenario.name +
                 " L1 from direct solve " + std::to_string(d));
      }
    }
    if (begin == 0) {
      // Self-check: a served vector with mass moved between two states.
      for (const auto& [variant, solves] : solved) {
        std::vector<real_t> bad = solves.front()->resp.p;
        if (bad.size() < 2) continue;
        bad[0] += 5 * kCheckL1;
        bad[1] -= 5 * kCheckL1;
        out.selfcheck_ok = !(l1_distance(bad, reference[variant]) <= kCheckL1);
        break;
      }
    }
    for (std::size_t i = begin; i < samples.size(); ++i) {
      std::vector<real_t>().swap(samples[i].resp.p);
    }
  };

  // One trace per run, replayed by every round against a fresh controller:
  // rounds are replicates, and their median filters host noise. Zipf ranks
  // and the priority mix are both seeded.
  std::vector<Request> trace;
  {
    const auto ranks =
        cm::serve::zipf_trace(pool.size(), kZipf, kRequestsPerRound, args.seed);
    cm::Xoshiro256 prng(args.seed * 7919 + 1);
    for (const std::size_t r : ranks) {
      const double roll = prng.uniform();
      Request q;
      q.variant = by_rank[r];
      q.pri = roll < 0.1   ? cm::serve::Priority::kInteractive
              : roll < 0.2 ? cm::serve::Priority::kBatch
                           : cm::serve::Priority::kNormal;
      trace.push_back(q);
    }
  }

  std::vector<double> round_rps;
  double rss_mib = 0.0;    // after the second round; later ones repeat it
  double measured = 0.0;  // set-up plus round time, checks excluded
  for (int round = 0; round < kMinRounds || measured < args.seconds;
       ++round) {
    // Set-up: a controller up and one cold request's operator built. A few
    // millisecond-scale samples per round; the last controller serves it.
    std::unique_ptr<cm::serve::Controller> ctl;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      ctl.reset();  // the previous sample's shutdown is not set-up
      Recorder::Scope s(rec, "serve.setup", "bench");
      const double t_setup = now_s();
      {
        Recorder::Scope c(rec, "serve.Controller", "serve");
        ctl = std::make_unique<cm::serve::Controller>(sopt);
      }
      {
        Recorder::Scope c(rec, "serve.cold_setup", "bench");
        cold_setup(pool.front().bytes);
      }
      setup_s.push_back(now_s() - t_setup);
    }

    const std::int64_t first_id = next_request;
    next_request += static_cast<std::int64_t>(trace.size());
    const double t_round = now_s();
    {
      Recorder::Scope round_span(rec, "serve.round", "bench");
      const auto drive = [&](int cid) {
        for (std::size_t i = static_cast<std::size_t>(cid); i < trace.size();
             i += kClients) {
          const std::int64_t id = first_id + static_cast<std::int64_t>(i);
          const Variant& v = pool[trace[i].variant];
          const double t0 = now_s();
          std::future<cm::serve::SolveResponse> fut;
          {
            Recorder::Scope s(rec, "serve.submit", "serve", id);
            fut = ctl->submit(v.bytes, trace[i].pri);
          }
          const double t1 = now_s();
          Sample smp;
          {
            Recorder::Scope s(rec, "serve.wait", "serve", id);
            smp.resp = fut.get();
          }
          const double t2 = now_s();
          smp.variant = trace[i].variant;
          smp.latency_ms = (t2 - t0) * 1e3;
          smp.admit_us = (t1 - t0) * 1e6;
          std::lock_guard<std::mutex> lk(samples_m);
          samples.push_back(std::move(smp));
        }
      };
      const auto client = [&](int cid) {
        try {
          drive(cid);
        } catch (...) {
          // Forwarded to the caller after the join: an exception must not
          // escape a thread's entry function.
          std::lock_guard<std::mutex> lk(samples_m);
          if (!client_error) client_error = std::current_exception();
        }
      };
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
      for (std::thread& t : clients) t.join();
      if (client_error) std::rethrow_exception(client_error);
    }
    round_s.push_back(now_s() - t_round);
    measured += setup_s.back() + round_s.back();
    if (round == 1) rss_mib = peak_rss_mib();
    double round_ok = 0.0;
    for (std::size_t i = samples.size() - trace.size(); i < samples.size();
         ++i) {
      if (samples[i].resp.status == cm::serve::Status::kOk) round_ok += 1.0;
    }
    round_rps.push_back(round_ok / round_s.back());
    ctl->shutdown();
    const cm::serve::ServeStats st = ctl->stats();
    std::printf("# round %d: %.3f s, %llu hits, %llu warm (%llu it), %llu cold "
                "(%llu it)\n",
                round, round_s.back(),
                static_cast<unsigned long long>(st.cache_hits),
                static_cast<unsigned long long>(st.warm_starts),
                static_cast<unsigned long long>(st.warm_iterations),
                static_cast<unsigned long long>(st.cold_solves),
                static_cast<unsigned long long>(st.cold_iterations));
    check_round(samples.size() - trace.size());
  }

  std::vector<double> latency_ms;
  double ok = 0.0;
  for (const Sample& s : samples) {
    latency_ms.push_back(s.latency_ms);
    if (s.resp.status == cm::serve::Status::kOk) ok += 1.0;
  }
  // solve_s: controller ready -> last response of the round's trace;
  // throughput: kOk responses per second of a round; both medians of rounds.
  record_answer_metrics(rec, setup_s, round_s, latency_ms, median(round_rps),
                        rss_mib);

  if (!rec.tracing()) return;
  // Layer probes on the largest serve scenario (the phage-lambda family).
  probe_network_layers(rec, cm::verify::build_network(largest),
                       largest.initial, triad_gbps);

  std::vector<double> admit_us;
  std::vector<double> queue_ms;
  std::vector<double> hit_ms;
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  double hits = 0;
  double shed = 0;
  double failed = 0;
  double invalid = 0;
  double warm_iterations = 0;
  double cold_iterations = 0;
  for (const Sample& smp : samples) {
    const auto& r = smp.resp;
    admit_us.push_back(smp.admit_us);
    switch (r.status) {
      case cm::serve::Status::kShed: shed += 1; continue;
      case cm::serve::Status::kFailed: failed += 1; continue;
      case cm::serve::Status::kInvalid: invalid += 1; continue;
      case cm::serve::Status::kOk: break;
    }
    queue_ms.push_back(r.queue_seconds * 1e3);
    if (r.cache_hit) {
      hits += 1;
      hit_ms.push_back(r.solve_seconds * 1e3);
    } else if (r.warm_start_applied) {
      warm_ms.push_back(r.solve_seconds * 1e3);
      warm_iterations += static_cast<double>(r.iterations);
    } else {
      cold_ms.push_back(r.solve_seconds * 1e3);
      cold_iterations += static_cast<double>(r.iterations);
    }
  }
  rec.layer("serve.admit_us.p50", median(admit_us));
  rec.layer("serve.queue_ms.p95", quantile(queue_ms, 0.95));
  rec.layer("serve.solve_ms.hit.p50", median(hit_ms));
  rec.layer("serve.solve_ms.warm.p50", median(warm_ms));
  rec.layer("serve.solve_ms.cold.p50", median(cold_ms));
  rec.layer("serve.hit_frac", ok > 0 ? hits / ok : 0.0);
  const double solves = static_cast<double>(warm_ms.size() + cold_ms.size());
  rec.layer("serve.warm_frac",
            solves > 0 ? static_cast<double>(warm_ms.size()) / solves : 0.0);
  const auto warm_n = static_cast<double>(warm_ms.size());
  const auto cold_n = static_cast<double>(cold_ms.size());
  rec.layer("serve.warm_iter_ratio." + traffic.name,
            warm_n > 0 && cold_iterations > 0
                ? (warm_iterations / warm_n) / (cold_iterations / cold_n)
                : 0.0);
  rec.layer("serve.shed", shed);
  rec.layer("serve.failed", failed);
  rec.layer("serve.invalid", invalid);
}

}  // namespace perfbench
