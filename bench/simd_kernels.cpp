// Explicit-SIMD kernel microbench: the hot kernel classes of the dispatch
// layer (batched lane sweep, fused Jacobi scale+swap, residual cmul_add,
// and the sweep-epilogue damped Jacobi update) timed per compiled ISA on
// real phage-lambda propensity data, with the bitwise-parity contract
// re-checked against the scalar table on every measured buffer. The
// epilogue updates are further checked against the unfused passes they
// replace: jacobi_update_damped against scale_swap's new iterate,
// jacobi_update_masked against the division on d == -1, y == +0 rows.
//
// The per-ISA throughputs are wall-clock and land in the volatile section
// of the bench ledger; the deterministic section carries only the
// machine-independent facts (workload shape, parity flags), so the
// checked-in baseline diffs cleanly on any host — including one whose CPU
// supports fewer ISAs than the recording machine.
//
// Gate: bitwise parity across every ISA the host can run. Throughput is
// advisory here — the enforced explicit-SIMD speedup gate lives in
// bench/ensemble_batch where it is measured through the full operator.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/models.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "solver/stencil_operator.hpp"
#include "util/aligned_vector.hpp"
#include "util/simd.hpp"
#include "util/simd_kernels.hpp"
#include "util/timer.hpp"

using namespace cmesolve;

namespace {

constexpr std::size_t kLanes = 8;
constexpr real_t kOmega = 0.95;  // the damping the landscape solve uses
constexpr std::int64_t kGrain = 512;  // matches the batched operator's chunk

core::models::PhageLambdaParams params_for(core::models::SuiteScale scale) {
  core::models::PhageLambdaParams p;
  switch (scale) {
    case core::models::SuiteScale::kTiny:
      p.cap_ci = p.cap_cro = 4;
      p.cap_ci2 = p.cap_cro2 = 2;
      break;
    case core::models::SuiteScale::kSmall:
      p.cap_ci = p.cap_cro = 6;
      p.cap_ci2 = p.cap_cro2 = 3;
      break;
    default:
      p.cap_ci = p.cap_cro = 8;
      p.cap_ci2 = p.cap_cro2 = 4;
      break;
  }
  return p;
}

real_t best_of(int reps, auto&& body) {
  real_t best = std::numeric_limits<real_t>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    body();
    best = std::min(best, t.seconds());
  }
  return best;
}

bool bitwise_equal(const real_t* a, const real_t* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(real_t)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = bench::scale_name(argc, argv);
  bench::report_context("simd_kernels", scale);

  // Real sweep data: the phage-lambda propensity cache, not a synthetic
  // fill — the unit table's zero runs (and therefore the zero-scan skip
  // rate) are part of what the sweep kernel is shaped around.
  const auto params = params_for(core::models::parse_scale(scale));
  const auto net = core::models::phage_lambda(params);
  const auto initial = core::models::phage_lambda_initial(params);
  const solver::StencilOperator compiled(net, initial);
  const solver::StencilOperator anchor(compiled.table(),
                                       solver::StencilMode::kPropensityCache);
  const auto n = static_cast<std::int64_t>(anchor.nrows());
  const auto& rx = anchor.table().reactions();
  const std::size_t nr = rx.size();
  const std::size_t nk = static_cast<std::size_t>(n) * kLanes;

  std::vector<std::int64_t> strides(nr);
  for (std::size_t r = 0; r < nr; ++r) strides[r] = rx[r].stride;
  util::aligned_vector<real_t> coef(nr * kLanes);
  for (std::size_t i = 0; i < coef.size(); ++i) {
    coef[i] = 0.5 + static_cast<real_t>(i % 7) * 0.25;
  }
  util::aligned_vector<real_t> x(nk), y(nk), y_ref(nk), d(nk), nx(nk),
      resid(nk), ref(nk), upd(nk);
  for (std::size_t i = 0; i < nk; ++i) {
    x[i] = 1.0 / static_cast<real_t>(3 + (i % 13));
    d[i] = -1.0 - static_cast<real_t>(i % 5) * 0.125;
  }
  const util::simdk::BatchedSweepArgs args{
      x.data(),        y.data(), anchor.propensity_cache().data(),
      coef.data(),     strides.data(),
      nr,              n,        kLanes};

  const auto run_sweep = [&](const util::simdk::KernelOps& ko) {
    for (std::int64_t c = 0; c < n; c += kGrain) {
      ko.batched_sweep(args, c, std::min<std::int64_t>(c + kGrain, n));
    }
  };

  const double sweep_mb =
      static_cast<double>(n) * sizeof(real_t) * (nr + 2.0 * kLanes) / 1e6;
  const double pass_mb = 3.0 * nk * sizeof(real_t) / 1e6;
  // jacobi_update_damped: y, x, d in, y out.
  const double update_mb = 4.0 * nk * sizeof(real_t) / 1e6;

  std::printf(
      "Explicit-SIMD kernel layer: box rows %lld, %zu reactions, K=%zu "
      "lanes (phage-lambda, scale=%s)\nactive dispatch: %s\n\n"
      "%-8s %5s  %12s %12s %12s %12s  %s\n",
      static_cast<long long>(n), nr, kLanes, scale.c_str(),
      util::simd::active_isa_name(), "isa", "width", "sweep", "scale_swap",
      "cmul_add", "update", "parity");

  // Scalar reference outputs, captured once.
  const util::simdk::KernelOps& sk =
      util::simdk::kernels_for(util::simd::Isa::kScalar);
  run_sweep(sk);
  y_ref.assign(y.begin(), y.end());
  // scale_swap consumes the sweep output through nx (v = -nx/d), so both
  // buffers are reset from (x, y_ref) before every timed call.
  ref.assign(x.begin(), x.end());
  nx.assign(y_ref.begin(), y_ref.end());
  sk.scale_swap(ref.data(), nx.data(), d.data(), nk);
  util::aligned_vector<real_t> ss_ref(ref);  // post-scale_swap x bits
  std::fill(resid.begin(), resid.end(), 0.25);
  sk.cmul_add(resid.data(), d.data(), x.data(), nk);
  util::aligned_vector<real_t> cm_ref(resid);
  // Epilogue updates. jacobi_update_damped on (x, y_ref) must give the
  // iterate scale_swap_damped writes into x; jacobi_update_masked on
  // d == -1, y == +0 rows the damped update's value there.
  upd.assign(y_ref.begin(), y_ref.end());
  sk.jacobi_update_damped(upd.data(), x.data(), d.data(), kOmega, nk);
  util::aligned_vector<real_t> upd_ref(upd);
  bool parity = true;
  {
    util::aligned_vector<real_t> sx(x), snx(y_ref);
    sk.scale_swap_damped(sx.data(), snx.data(), d.data(), kOmega, nk);
    const util::aligned_vector<real_t> minus_one(nk, -1.0);
    util::aligned_vector<real_t> divided(nk, 0.0), shortcut(nk, 0.0);
    sk.jacobi_update_damped(divided.data(), x.data(), minus_one.data(),
                            kOmega, nk);
    sk.jacobi_update_masked(shortcut.data(), x.data(), kOmega, nk);
    parity = bitwise_equal(upd_ref.data(), sx.data(), nk) &&
             bitwise_equal(divided.data(), shortcut.data(), nk);
  }
  const bool unfused_ok = parity;

  for (const util::simd::Isa isa : util::simd::compiled_isas()) {
    if (!util::simd::force_isa(isa)) continue;  // compiled in, CPU lacks it
    const util::simdk::KernelOps& ko = util::simdk::kernels_for(isa);

    const real_t t_sweep = best_of(5, [&] { run_sweep(ko); });
    const bool ok_sweep = bitwise_equal(y.data(), y_ref.data(), nk);

    util::aligned_vector<real_t> xw(x);
    const real_t t_ss = best_of(5, [&] {
      xw.assign(x.begin(), x.end());
      nx.assign(y_ref.begin(), y_ref.end());
      ko.scale_swap(xw.data(), nx.data(), d.data(), nk);
    });
    const bool ok_ss = bitwise_equal(xw.data(), ss_ref.data(), nk) &&
                       bitwise_equal(nx.data(), x.data(), nk);

    const real_t t_cm = best_of(5, [&] {
      std::fill(resid.begin(), resid.end(), 0.25);
      ko.cmul_add(resid.data(), d.data(), x.data(), nk);
    });
    const bool ok_cm = bitwise_equal(resid.data(), cm_ref.data(), nk);

    const real_t t_up = best_of(5, [&] {
      upd.assign(y_ref.begin(), y_ref.end());
      ko.jacobi_update_damped(upd.data(), x.data(), d.data(), kOmega, nk);
    });
    const bool ok_up = bitwise_equal(upd.data(), upd_ref.data(), nk);

    const bool ok = ok_sweep && ok_ss && ok_cm && ok_up;
    parity = parity && ok;
    std::printf(
        "%-8s %5d  %9.3f ms %9.1f GB/s %9.1f GB/s %9.1f GB/s  %s\n",
        ko.name, ko.width, t_sweep * 1e3, pass_mb / 1e3 / t_ss,
        pass_mb / 1e3 / t_cm, update_mb / 1e3 / t_up, ok ? "PASS" : "FAIL");
    const std::string prefix = std::string("simd_kernels.") + ko.name;
    obs::gauge(prefix + ".sweep_gbps", sweep_mb / 1e3 / t_sweep,
               /*is_volatile=*/true);
    obs::gauge(prefix + ".scale_swap_gbps", pass_mb / 1e3 / t_ss,
               /*is_volatile=*/true);
    obs::gauge(prefix + ".cmul_add_gbps", pass_mb / 1e3 / t_cm,
               /*is_volatile=*/true);
    obs::gauge(prefix + ".update_gbps", update_mb / 1e3 / t_up,
               /*is_volatile=*/true);
  }
  util::simd::reset_forced_isa();

  // Hardware-counter crosscheck: DRAM bytes actually moved by one sweep on
  // the auto-dispatched table, next to the effective-bytes model above.
  obs::PerfGroup perf_group;
  if (perf_group.available()) {
    constexpr int kPerfReps = 8;
    const util::simdk::KernelOps& ko = util::simdk::kernels();
    run_sweep(ko);  // warm
    perf_group.start();
    for (int rep = 0; rep < kPerfReps; ++rep) run_sweep(ko);
    const auto s = perf_group.stop();
    if (s.available) {
      const auto bytes = s.dram_bytes() / kPerfReps;
      std::printf(
          "\nmeasured DRAM/sweep (LLC misses x 64): %.2f MB of %.2f MB "
          "effective (ipc %.2f over %d sweeps)\n",
          static_cast<double>(bytes) / 1e6, sweep_mb, s.ipc(), kPerfReps);
      obs::gauge("simd_kernels.measured_sweep_dram_bytes",
                 static_cast<double>(bytes), /*is_volatile=*/true);
    }
  } else {
    std::printf("\nmeasured DRAM/sweep: hardware counters unavailable\n");
  }

  // Machine-independent facts only: any host must reproduce these exactly,
  // whatever subset of the compiled ISAs its CPU can actually run.
  obs::gauge("simd_kernels.rows", static_cast<real_t>(n));
  obs::gauge("simd_kernels.reactions", static_cast<real_t>(nr));
  obs::gauge("simd_kernels.lanes", static_cast<real_t>(kLanes));
  obs::gauge("simd_kernels.parity", parity ? 1.0 : 0.0);

  std::printf("\ngates:\n  epilogue updates == unfused passes      %s\n"
              "  bitwise parity vs scalar, all ISAs      %s\n"
              "simd_kernels: %s\n",
              unfused_ok ? "PASS" : "FAIL", parity ? "PASS" : "FAIL",
              parity ? "PASS" : "FAIL");
  obs::flush_outputs();
  return parity ? 0 : 1;
}
