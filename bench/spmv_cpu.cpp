// google-benchmark microbenchmarks of the host SpMV kernels across formats
// (the CPU reference implementations backing the solver numerics). These are
// real wall-clock measurements on this machine, complementing the
// simulated-GPU tables. Results are mirrored into the obs registry as
// VOLATILE gauges (per-iteration seconds per benchmark) so a
// CMESOLVE_BENCH run yields a cmesolve.bench/1 ledger cme_bench_diff can
// band-compare against a same-machine baseline.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "solver/jacobi.hpp"
#include "solver/operators.hpp"
#include "sparse/csr.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hybrid.hpp"
#include "sparse/sliced_ell.hpp"
#include "util/parallel.hpp"

using namespace cmesolve;

namespace {

const sparse::Csr& toggle_matrix() {
  static const sparse::Csr a = [] {
    core::models::ToggleSwitchParams p;
    p.cap_a = p.cap_b = 70;
    const auto net = core::models::toggle_switch(p);
    const core::StateSpace space(net, core::models::toggle_switch_initial(p),
                                 1'000'000);
    return core::rate_matrix(space);
  }();
  return a;
}

template <class Format>
void run_spmv(benchmark::State& state, const Format& fmt, index_t nrows,
              index_t ncols, std::size_t nnz) {
  std::vector<real_t> x(static_cast<std::size_t>(ncols),
                        1.0 / static_cast<real_t>(ncols));
  std::vector<real_t> y(static_cast<std::size_t>(nrows));
  for (auto _ : state) {
    sparse::spmv(fmt, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(nnz) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_SpmvCsr(benchmark::State& state) {
  const auto& a = toggle_matrix();
  run_spmv(state, a, a.nrows, a.ncols, a.nnz());
}
BENCHMARK(BM_SpmvCsr);

void BM_SpmvEll(benchmark::State& state) {
  const auto& a = toggle_matrix();
  const auto ell = sparse::ell_from_csr(a);
  run_spmv(state, ell, a.nrows, a.ncols, a.nnz());
}
BENCHMARK(BM_SpmvEll);

void BM_SpmvEllDia(benchmark::State& state) {
  const auto& a = toggle_matrix();
  const auto h = sparse::ell_dia_from_csr(a, {-1, 0, 1});
  run_spmv(state, h, a.nrows, a.ncols, a.nnz());
}
BENCHMARK(BM_SpmvEllDia);

void BM_SpmvSlicedEll(benchmark::State& state) {
  const auto& a = toggle_matrix();
  const auto s = sparse::sliced_ell_from_csr(a, 256);
  run_spmv(state, s, a.nrows, a.ncols, a.nnz());
}
BENCHMARK(BM_SpmvSlicedEll);

void BM_SpmvWarpedEll(benchmark::State& state) {
  const auto& a = toggle_matrix();
  const auto w = sparse::warped_ell_from_csr(a);
  run_spmv(state, w, a.nrows, a.ncols, a.nnz());
}
BENCHMARK(BM_SpmvWarpedEll);

// --- thread-scaling sweeps ---------------------------------------------------
//
// Arg(0) is the thread budget of the std::thread pool, which runs every
// parallel loop, so one binary sweeps the full parallel stack. Arguments
// above hardware_concurrency oversubscribe on purpose (the numbers stay
// honest; the speedup just saturates). set_max_threads(0) restores
// auto-detection.

void thread_args(benchmark::internal::Benchmark* b) {
  const int hw = util::hardware_threads();
  for (int t = 1; t <= hw; t *= 2) b->Arg(t);
  if ((hw & (hw - 1)) != 0) b->Arg(hw);
}

void BM_SpmvCsrThreads(benchmark::State& state) {
  const auto& a = toggle_matrix();
  util::set_max_threads(static_cast<int>(state.range(0)));
  run_spmv(state, a, a.nrows, a.ncols, a.nnz());
  util::set_max_threads(0);
}
BENCHMARK(BM_SpmvCsrThreads)->Apply(thread_args)->UseRealTime();

void BM_SpmvWarpedEllThreads(benchmark::State& state) {
  const auto& a = toggle_matrix();
  const auto w = sparse::warped_ell_from_csr(a);
  util::set_max_threads(static_cast<int>(state.range(0)));
  run_spmv(state, w, a.nrows, a.ncols, a.nnz());
  util::set_max_threads(0);
}
BENCHMARK(BM_SpmvWarpedEllThreads)->Apply(thread_args)->UseRealTime();

// End-to-end solver iterations: SpMV + diagonal scale + fixed-chunk
// reductions, i.e. everything a Jacobi step touches.
void BM_JacobiIterationsThreads(benchmark::State& state) {
  const auto& a = toggle_matrix();
  const solver::CsrDiaOperator op(a);
  const real_t an = a.inf_norm();
  solver::JacobiOptions opt;
  opt.max_iterations = 20;
  opt.check_every = 20;
  util::set_max_threads(static_cast<int>(state.range(0)));
  std::vector<real_t> x(static_cast<std::size_t>(a.nrows));
  for (auto _ : state) {
    solver::fill_uniform(x);
    const auto res = solver::jacobi_solve(op, an, x, opt);
    benchmark::DoNotOptimize(res.residual);
  }
  state.counters["iters"] = static_cast<double>(opt.max_iterations);
  util::set_max_threads(0);
}
BENCHMARK(BM_JacobiIterationsThreads)->Apply(thread_args)->UseRealTime();

/// Console reporter that also mirrors each run into the obs registry:
/// `spmv_cpu.<benchmark>.seconds` (real time per iteration), volatile —
/// wall clock never enters the deterministic ledger section.
class LedgerReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string key = "spmv_cpu." + run.benchmark_name();
      for (auto& ch : key) {
        if (ch == '/') ch = '.';  // thread-sweep args: BM_x/4 -> BM_x.4
      }
      obs::gauge(key + ".seconds", run.GetAdjustedRealTime() * 1e-9,
                 /*is_volatile=*/true);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::report_context("spmv_cpu", "toggle70");
  // Deterministic anchor for the ledger: the workload's structure.
  const auto& a = toggle_matrix();
  obs::gauge("spmv_cpu.matrix_rows", static_cast<double>(a.nrows));
  obs::gauge("spmv_cpu.matrix_nnz", static_cast<double>(a.nnz()));

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  LedgerReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Measured DRAM attribution for the CSR sweep: a hardware-counted window
  // (LLC misses x 64-byte lines) next to google-benchmark's wall-clock
  // numbers, the same crosscheck the other benches print. Counter values
  // vary run to run, so the gauge is volatile.
  obs::PerfGroup perf_group;
  if (perf_group.available()) {
    std::vector<real_t> x(static_cast<std::size_t>(a.ncols),
                          1.0 / static_cast<real_t>(a.ncols));
    std::vector<real_t> y(static_cast<std::size_t>(a.nrows));
    constexpr int kReps = 16;
    perf_group.start();
    for (int i = 0; i < kReps; ++i) sparse::spmv(a, x, y);
    const obs::PerfSample s = perf_group.stop();
    if (s.available) {
      const auto bytes = s.dram_bytes() / kReps;
      std::printf(
          "measured DRAM/sweep (LLC misses x 64): csr %.2f MB "
          "(ipc %.2f over %d sweeps)\n",
          static_cast<double>(bytes) / 1e6, s.ipc(), kReps);
      obs::gauge("spmv_cpu.measured_csr_dram_bytes",
                 static_cast<double>(bytes), /*is_volatile=*/true);
    }
  } else {
    std::printf("measured DRAM/sweep: hardware counters unavailable\n");
  }

  obs::flush_outputs();
  return 0;
}
