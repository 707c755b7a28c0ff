#include "serve/workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "core/models.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "verify/repro_io.hpp"

namespace cmesolve::serve {

verify::Scenario scenario_from_network(std::string name,
                                       const core::ReactionNetwork& net,
                                       core::State initial,
                                       std::size_t max_states,
                                       real_t damping) {
  verify::Scenario sc;
  sc.name = std::move(name);
  sc.seed = 0;
  sc.archetype = "serve";
  for (int s = 0; s < net.num_species(); ++s) {
    sc.species.push_back({net.species_name(s), net.capacity(s)});
  }
  for (const core::Reaction& r : net.reactions()) {
    sc.reactions.push_back({r.name, r.rate, r.reactants, r.changes});
  }
  sc.initial = std::move(initial);
  sc.max_states = max_states;
  sc.jacobi_damping = damping;
  return sc;
}

SweepFamily make_sweep_family(const verify::Scenario& base,
                              std::size_t nvariants, real_t jitter,
                              std::uint64_t seed) {
  SweepFamily fam;
  fam.name = base.name;
  fam.variants.reserve(nvariants);
  Xoshiro256 rng(seed ^ 0xC3A5C85C97CB3127ULL);
  for (std::size_t v = 0; v < nvariants; ++v) {
    verify::Scenario sc = base;
    sc.name = base.name + "-v" + std::to_string(v);
    if (v > 0) {
      for (auto& r : sc.reactions) {
        r.rate *= std::exp(rng.uniform(-1.0, 1.0) * jitter);
      }
    }
    fam.variants.push_back(std::move(sc));
  }
  return fam;
}

std::vector<SweepFamily> builtin_families(std::size_t nvariants, real_t jitter,
                                          std::uint64_t seed) {
  std::vector<SweepFamily> fams;
  {
    // Reduced toggle switch: ~2.6k states, a few hundred Jacobi iterations.
    core::models::ToggleSwitchParams p;
    p.cap_a = 25;
    p.cap_b = 25;
    fams.push_back(make_sweep_family(
        scenario_from_network("toggle-25", core::models::toggle_switch(p),
                              core::models::toggle_switch_initial(p), 200'000),
        nvariants, jitter, seed * 2 + 1));
  }
  {
    // Phage lambda at the sweep-example size (~50k reachable states; the
    // stock caps overflow the 200k enumeration budget once the three
    // operator sites multiply in). The box carries an oscillatory Jacobi
    // mode, so heavier damping (matches examples/phage_lambda_sweep).
    core::models::PhageLambdaParams p;
    p.cap_ci = p.cap_cro = 8;
    p.cap_ci2 = p.cap_cro2 = 4;
    fams.push_back(make_sweep_family(
        scenario_from_network("phage-lambda-8", core::models::phage_lambda(p),
                              core::models::phage_lambda_initial(p), 200'000,
                              /*damping=*/0.95),
        nvariants, jitter, seed * 2 + 2));
  }
  return fams;
}

std::vector<std::size_t> zipf_trace(std::size_t n, real_t s, std::size_t count,
                                    std::uint64_t seed) {
  std::vector<std::size_t> trace;
  trace.reserve(count);
  if (n == 0) return trace;
  // Inverse-CDF sampling over the finite rank distribution.
  std::vector<real_t> cdf(n);
  real_t acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<real_t>(r + 1), -s);
    cdf[r] = acc;
  }
  Xoshiro256 rng(seed ^ 0x9E3779B97F4A7C15ULL);
  for (std::size_t i = 0; i < count; ++i) {
    const real_t u = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    trace.push_back(static_cast<std::size_t>(it - cdf.begin()));
  }
  return trace;
}

LoadReport run_closed_loop(Controller& ctl,
                           const std::vector<SweepFamily>& fams,
                           const LoadOptions& opt) {
  // Pool the variants; serialize once up front so every client submits the
  // same canonical bytes (and exercises the wire parse path).
  std::vector<std::string> wire;
  for (const SweepFamily& f : fams) {
    for (const verify::Scenario& sc : f.variants) {
      wire.push_back(verify::serialize_repro(sc));
    }
  }
  LoadReport rep;
  if (wire.empty() || opt.requests == 0) return rep;

  const std::vector<std::size_t> trace =
      zipf_trace(wire.size(), opt.zipf_s, opt.requests, opt.seed);
  // Hot-first rank->variant mapping shuffled deterministically, so rank 0
  // is not always variant 0 of family 0.
  std::vector<std::size_t> rank_to_variant(wire.size());
  for (std::size_t i = 0; i < wire.size(); ++i) rank_to_variant[i] = i;
  Xoshiro256 shuffle_rng(opt.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  for (std::size_t i = wire.size(); i > 1; --i) {
    std::swap(rank_to_variant[i - 1],
              rank_to_variant[shuffle_rng.bounded(i)]);
  }

  std::mutex rep_m;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(opt.requests);
  const auto t0 = std::chrono::steady_clock::now();

  const int nclients = std::max(opt.clients, 1);
  auto client = [&](int cid) {
    Xoshiro256 rng(opt.seed * 0x100000001B3ULL +
                   static_cast<std::uint64_t>(cid) + 1);
    // Requests are pre-partitioned round-robin so the total is exact.
    for (std::size_t i = static_cast<std::size_t>(cid); i < opt.requests;
         i += static_cast<std::size_t>(nclients)) {
      const std::size_t variant = rank_to_variant[trace[i]];
      const real_t roll = rng.uniform();
      Priority pri = Priority::kNormal;
      if (roll < opt.interactive_fraction) {
        pri = Priority::kInteractive;
      } else if (roll < opt.interactive_fraction + opt.batch_fraction) {
        pri = Priority::kBatch;
      }
      const auto sent = std::chrono::steady_clock::now();
      SolveResponse resp = ctl.submit(wire[variant], pri).get();
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - sent)
              .count();
      {
        std::lock_guard<std::mutex> lk(rep_m);
        ++rep.requests;
        latencies_ms.push_back(ms);
        switch (resp.status) {
          case Status::kOk:
            ++rep.ok;
            if (resp.cache_hit) {
              ++rep.cache_hits;
            } else {
              ++rep.cold_solves;
              rep.cold_iterations += resp.iterations;
            }
            break;
          case Status::kShed: ++rep.shed; break;
          case Status::kFailed: ++rep.failed; break;
          case Status::kInvalid: ++rep.invalid; break;
        }
      }
      if (opt.think_seconds > 0.0) {
        const double z = -opt.think_seconds * std::log(1.0 - rng.uniform());
        std::this_thread::sleep_for(std::chrono::duration<double>(z));
      }
    }
  };

  if (nclients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nclients));
    for (int c = 0; c < nclients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }

  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rep.throughput_rps =
      rep.wall_seconds > 0.0
          ? static_cast<double>(rep.requests) / rep.wall_seconds
          : 0.0;
  rep.hit_rate = rep.ok > 0
                     ? static_cast<double>(rep.cache_hits) /
                           static_cast<double>(rep.ok)
                     : 0.0;
  rep.cold_mean_iters =
      rep.cold_solves > 0 ? static_cast<double>(rep.cold_iterations) /
                                static_cast<double>(rep.cold_solves)
                          : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto pct = [&](double q) {
    if (latencies_ms.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  rep.p50_ms = pct(0.50);
  rep.p99_ms = pct(0.99);
  return rep;
}

void publish_load_report(const LoadReport& rep, bool deterministic) {
  // Count-shaped numbers: deterministic counters in the sequential bench
  // mode (the ledger compares them exactly), volatile gauges otherwise —
  // under concurrency the arrival interleaving decides hit/cold splits.
  const auto put = [&](const char* name, double v) {
    obs::gauge(name, v, /*is_volatile=*/!deterministic);
  };
  put("serve.load.requests", static_cast<double>(rep.requests));
  put("serve.load.ok", static_cast<double>(rep.ok));
  put("serve.load.shed", static_cast<double>(rep.shed));
  put("serve.load.failed", static_cast<double>(rep.failed));
  put("serve.load.invalid", static_cast<double>(rep.invalid));
  put("serve.load.cache_hits", static_cast<double>(rep.cache_hits));
  put("serve.load.cold_solves", static_cast<double>(rep.cold_solves));
  put("serve.load.cold_iterations", static_cast<double>(rep.cold_iterations));
  put("serve.load.hit_rate", rep.hit_rate);
  put("serve.load.cold_mean_iters", rep.cold_mean_iters);
  obs::gauge("serve.load.p50_ms", rep.p50_ms, /*is_volatile=*/true);
  obs::gauge("serve.load.p99_ms", rep.p99_ms, /*is_volatile=*/true);
  obs::gauge("serve.load.seconds", rep.wall_seconds, /*is_volatile=*/true);
  obs::gauge("serve.load.throughput_rps", rep.throughput_rps,
             /*is_volatile=*/true);
}

}  // namespace cmesolve::serve
