// Bit-identity contract of the parallel execution engines.
//
// Every parallel path in the library — the sharded GPU simulation behind
// for_each_warp, the host SpMV loops, the fixed-chunk solver reductions, the
// parallel rate-matrix assembly and the partition-parallel multi-GPU sweep —
// promises the SAME NUMBERS as the serial engine, for any host thread count.
// This suite pins that promise: each scenario runs at 1 thread (the original
// serial engine), then at 2 and 8 threads (the pool engines, oversubscribed
// on small hosts), and every counter, modeled time and solution entry must
// compare EXACTLY (EXPECT_EQ, no tolerances).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "gpusim/kernels.hpp"
#include "gpusim/multi_gpu.hpp"
#include "solver/jacobi.hpp"
#include "solver/operators.hpp"
#include "solver/vector_ops.hpp"
#include "sparse/bcsr.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hybrid.hpp"
#include "sparse/sliced_ell.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cmesolve {
namespace {

using gpusim::DeviceSpec;
using gpusim::KernelStats;
using gpusim::SimOptions;
using sparse::Coo;
using sparse::Csr;
using sparse::csr_from_coo;

/// RAII thread-budget override; restores auto-detection on scope exit.
class ThreadBudget {
 public:
  explicit ThreadBudget(int n) { util::set_max_threads(n); }
  ~ThreadBudget() { util::set_max_threads(0); }
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;
};

/// The thread counts every scenario is pinned at. 1 selects the original
/// serial engine; 2 and 8 exercise the pool (8 oversubscribes a small host,
/// which must not change any number either).
const int kThreadCounts[] = {1, 2, 8};

Csr cme_like_matrix(index_t n, index_t extra, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo c;
  c.nrows = c.ncols = n;
  for (index_t r = 0; r < n; ++r) {
    c.add(r, r, rng.uniform(-6, -3));
    if (r > 0) c.add(r, r - 1, rng.uniform(0.5, 1.5));
    if (r < n - 1) c.add(r, r + 1, rng.uniform(0.5, 1.5));
    const auto len = rng.bounded(static_cast<std::uint64_t>(extra) + 1);
    for (std::uint64_t j = 0; j < len; ++j) {
      c.add(r, static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(n))),
            rng.uniform(0.1, 0.9));
    }
  }
  return csr_from_coo(std::move(c));
}

std::vector<real_t> probe_vector(index_t n) {
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[i] = 1.0 + 0.001 * static_cast<real_t>(i % 997);
  }
  return x;
}

/// Everything one simulated kernel produces.
struct KernelRun {
  KernelStats stats;
  std::vector<real_t> y;
};

void expect_identical(const KernelRun& base, const KernelRun& run,
                      const std::string& label) {
  const auto& a = base.stats.traffic;
  const auto& b = run.stats.traffic;
  EXPECT_EQ(a.dram_bytes, b.dram_bytes) << label;
  EXPECT_EQ(a.l2_bytes, b.l2_bytes) << label;
  EXPECT_EQ(a.l1_bytes, b.l1_bytes) << label;
  EXPECT_EQ(a.transactions, b.transactions) << label;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << label;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << label;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << label;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << label;
  EXPECT_EQ(a.flops, b.flops) << label;
  // Modeled time derives from the counters, so it must match bitwise too.
  EXPECT_EQ(base.stats.seconds, run.stats.seconds) << label;
  EXPECT_EQ(base.stats.gflops, run.stats.gflops) << label;
  EXPECT_EQ(base.stats.occupancy, run.stats.occupancy) << label;
  ASSERT_EQ(base.y.size(), run.y.size()) << label;
  for (std::size_t i = 0; i < base.y.size(); ++i) {
    ASSERT_EQ(base.y[i], run.y[i]) << label << " y[" << i << "]";
  }
}

/// Run `kernel` at every pinned thread count and require bit-identity with
/// the 1-thread (serial-engine) run.
void check_kernel(const std::function<KernelRun()>& kernel,
                  const std::string& label) {
  KernelRun base;
  {
    ThreadBudget serial(1);
    base = kernel();
  }
  for (int t : kThreadCounts) {
    if (t == 1) continue;
    ThreadBudget threads(t);
    expect_identical(base, kernel(), label + " @" + std::to_string(t));
  }
}

// n large enough for several scheduling waves (a GTX 580 wave at block 256
// covers ~100 blocks), so the wave-major L2 replay is genuinely exercised.
constexpr index_t kRows = 30'000;

TEST(ParallelDeterminism, EllKernel) {
  const Csr m = cme_like_matrix(kRows, 4, 11);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  const auto ell = sparse::ell_from_csr(m);
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv(dev, ell, x, r.y);
        return r;
      },
      "ell");
}

TEST(ParallelDeterminism, SlicedEllKernel) {
  const Csr m = cme_like_matrix(kRows, 4, 12);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  const auto se = sparse::warped_ell_from_csr(m);
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv(dev, se, x, r.y);
        return r;
      },
      "sliced-ell");
}

TEST(ParallelDeterminism, EllDiaKernel) {
  const Csr m = cme_like_matrix(kRows, 4, 13);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  const auto hy = sparse::ell_dia_from_csr(m, {-1, 0, 1});
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv(dev, hy, x, r.y);
        return r;
      },
      "ell+dia");
}

TEST(ParallelDeterminism, SlicedEllDiaKernel) {
  const Csr m = cme_like_matrix(kRows, 4, 14);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  const auto hy = sparse::sliced_ell_dia_from_csr(m, {-1, 0, 1});
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv(dev, hy, x, r.y);
        return r;
      },
      "sliced-ell+dia");
}

TEST(ParallelDeterminism, CsrScalarAndVectorKernels) {
  const Csr m = cme_like_matrix(kRows, 4, 15);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv(dev, m, x, r.y);
        return r;
      },
      "csr-scalar");
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv_csr_vector(dev, m, x, r.y);
        return r;
      },
      "csr-vector");
}

TEST(ParallelDeterminism, BcsrKernel) {
  const Csr m = cme_like_matrix(kRows, 4, 16);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  const auto b = sparse::bcsr_from_csr(m, 2, 2);
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv(dev, b, x, r.y);
        return r;
      },
      "bcsr");
}

TEST(ParallelDeterminism, DiaKernel) {
  // Tridiagonal (extra = 0) so {-1, 0, +1} covers the matrix exactly.
  const Csr m = cme_like_matrix(kRows, 0, 17);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  const auto d = sparse::dia_from_csr(m, {-1, 0, 1});
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_spmv(dev, d, x, r.y);
        return r;
      },
      "dia");
}

TEST(ParallelDeterminism, HostSpmvKernels) {
  // The host SpMV loops of every assembled format run on the util pool with
  // one owner per output row (slice, block row) and a fixed summation order
  // per row, so y carries the 1-thread bits at any budget. The hybrids are
  // built from these loops; spmv_add accumulates onto a nonzero y.
  const Csr m = cme_like_matrix(kRows, 4, 25);
  const auto x = probe_vector(kRows);
  const std::vector<index_t> band = {-1, 0, 1};
  const auto ell = sparse::ell_from_csr(m);
  const auto warped = sparse::warped_ell_from_csr(m);
  const auto bcsr = sparse::bcsr_from_csr(m);
  const auto dia = sparse::dia_from_csr(m, band);
  const auto csr_dia = sparse::csr_dia_from_csr(m, band);
  const auto ell_dia = sparse::ell_dia_from_csr(m, band);
  const auto warped_dia = sparse::sliced_ell_dia_from_csr(m, band);
  using Kernel = std::function<void(std::span<real_t>)>;
  const std::vector<std::pair<std::string, Kernel>> kernels = {
      {"csr", [&](std::span<real_t> y) { sparse::spmv(m, x, y); }},
      {"ell", [&](std::span<real_t> y) { sparse::spmv(ell, x, y); }},
      {"warped-ell", [&](std::span<real_t> y) { sparse::spmv(warped, x, y); }},
      {"bcsr", [&](std::span<real_t> y) { sparse::spmv(bcsr, x, y); }},
      {"dia", [&](std::span<real_t> y) { sparse::spmv(dia, x, y); }},
      {"dia-add", [&](std::span<real_t> y) { sparse::spmv_add(dia, x, y); }},
      {"csr+dia", [&](std::span<real_t> y) { sparse::spmv(csr_dia, x, y); }},
      {"ell+dia", [&](std::span<real_t> y) { sparse::spmv(ell_dia, x, y); }},
      {"warped-ell+dia",
       [&](std::span<real_t> y) { sparse::spmv(warped_dia, x, y); }},
  };
  for (const auto& [label, spmv] : kernels) {
    std::vector<real_t> base;
    for (int t : kThreadCounts) {
      ThreadBudget threads(t);
      std::vector<real_t> y = probe_vector(kRows);
      spmv(y);
      if (t == 1) {
        base = std::move(y);
        continue;
      }
      EXPECT_EQ(std::memcmp(y.data(), base.data(), y.size() * sizeof(real_t)),
                0)
          << label << " @" << t;
    }
  }
}

TEST(ParallelDeterminism, JacobiSweepKernel) {
  const Csr m = cme_like_matrix(kRows, 4, 18);
  const auto x = probe_vector(kRows);
  const auto dev = DeviceSpec::gtx580();
  const auto hy = sparse::sliced_ell_dia_from_csr(m, {-1, 0, 1});
  check_kernel(
      [&] {
        KernelRun r;
        r.y.assign(static_cast<std::size_t>(kRows), 0.0);
        r.stats = gpusim::simulate_jacobi_sweep(dev, hy, x, r.y);
        return r;
      },
      "jacobi-sweep");
}

TEST(ParallelDeterminism, MultiGpuSweep) {
  const Csr m = cme_like_matrix(8192, 4, 19);
  const auto x = probe_vector(8192);
  const auto dev = DeviceSpec::gtx580();
  gpusim::MultiGpuOptions opt;
  opt.num_gpus = 4;

  gpusim::MultiGpuReport base;
  std::vector<real_t> base_out(8192, 0.0);
  {
    ThreadBudget serial(1);
    base = gpusim::simulate_multi_gpu_jacobi_sweep(dev, m, x, base_out, opt);
  }
  for (int t : kThreadCounts) {
    if (t == 1) continue;
    ThreadBudget threads(t);
    std::vector<real_t> out(8192, 0.0);
    const auto rep = gpusim::simulate_multi_gpu_jacobi_sweep(dev, m, x, out, opt);
    const std::string label = "multi-gpu @" + std::to_string(t);
    EXPECT_EQ(base.compute_seconds, rep.compute_seconds) << label;
    EXPECT_EQ(base.comm_seconds, rep.comm_seconds) << label;
    EXPECT_EQ(base.seconds_per_iteration, rep.seconds_per_iteration) << label;
    EXPECT_EQ(base.single_gpu_seconds, rep.single_gpu_seconds) << label;
    ASSERT_EQ(base.partitions.size(), rep.partitions.size()) << label;
    for (std::size_t p = 0; p < base.partitions.size(); ++p) {
      EXPECT_EQ(base.partitions[p].halo_in, rep.partitions[p].halo_in) << label;
      EXPECT_EQ(base.partitions[p].sweep.seconds, rep.partitions[p].sweep.seconds)
          << label;
      EXPECT_EQ(base.partitions[p].sweep.traffic.dram_bytes,
                rep.partitions[p].sweep.traffic.dram_bytes)
          << label;
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(base_out[i], out[i]) << label << " x_out[" << i << "]";
    }
  }
}

TEST(ParallelDeterminism, VectorReductions) {
  // Vector long enough for many reduction chunks, with values whose sum
  // genuinely depends on the association order in the last bits.
  Xoshiro256 rng(99);
  std::vector<real_t> v(100'003);
  std::vector<real_t> w(100'003);
  for (auto& e : v) e = rng.uniform(-1.0, 1.0);
  for (auto& e : w) e = rng.uniform(-1.0, 1.0);

  real_t l1 = 0.0, li = 0.0, l2 = 0.0, dp = 0.0;
  {
    ThreadBudget serial(1);
    l1 = solver::norm_l1(v);
    li = solver::norm_inf(v);
    l2 = solver::norm_l2(v);
    dp = solver::dot(v, w);
  }
  for (int t : kThreadCounts) {
    if (t == 1) continue;
    ThreadBudget threads(t);
    EXPECT_EQ(l1, solver::norm_l1(v)) << t;
    EXPECT_EQ(li, solver::norm_inf(v)) << t;
    EXPECT_EQ(l2, solver::norm_l2(v)) << t;
    EXPECT_EQ(dp, solver::dot(v, w)) << t;
  }
}

TEST(ParallelDeterminism, RateMatrixAssembly) {
  core::models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = 40;
  const auto net = core::models::toggle_switch(p);
  const core::StateSpace space(net, core::models::toggle_switch_initial(p),
                               1'000'000);

  Csr base;
  {
    ThreadBudget serial(1);
    base = core::rate_matrix(space);
  }
  for (int t : kThreadCounts) {
    if (t == 1) continue;
    ThreadBudget threads(t);
    const Csr m = core::rate_matrix(space);
    const std::string label = "rate-matrix @" + std::to_string(t);
    ASSERT_EQ(base.row_ptr, m.row_ptr) << label;
    ASSERT_EQ(base.col_idx, m.col_idx) << label;
    ASSERT_EQ(base.val, m.val) << label;
  }
}

/// Jacobi convergence histories must be reproducible run-to-run at any
/// thread count: iterations, every residual sample, flops and stop reason.
template <class Op>
void check_jacobi(const Csr& a, const std::string& label) {
  const Op op(a);
  const real_t an = a.inf_norm();
  solver::JacobiOptions opt;
  opt.max_iterations = 400;
  opt.check_every = 50;

  struct Run {
    solver::JacobiResult res;
    std::vector<real_t> history;
    std::vector<real_t> x;
  };
  const auto solve = [&] {
    Run r;
    opt.on_residual = [&r](std::uint64_t, real_t resid) {
      r.history.push_back(resid);
    };
    r.x.assign(static_cast<std::size_t>(a.nrows), 0.0);
    solver::fill_uniform(r.x);
    r.res = solver::jacobi_solve(op, an, std::span<real_t>(r.x), opt);
    return r;
  };

  Run base;
  {
    ThreadBudget serial(1);
    base = solve();
  }
  for (int t : kThreadCounts) {
    if (t == 1) continue;
    ThreadBudget threads(t);
    const Run run = solve();
    const std::string at = label + " @" + std::to_string(t);
    EXPECT_EQ(base.res.iterations, run.res.iterations) << at;
    EXPECT_EQ(base.res.residual, run.res.residual) << at;
    EXPECT_EQ(base.res.flops, run.res.flops) << at;
    EXPECT_EQ(static_cast<int>(base.res.reason), static_cast<int>(run.res.reason))
        << at;
    ASSERT_EQ(base.history.size(), run.history.size()) << at;
    for (std::size_t i = 0; i < base.history.size(); ++i) {
      EXPECT_EQ(base.history[i], run.history[i]) << at << " check " << i;
    }
    ASSERT_EQ(base.x.size(), run.x.size()) << at;
    for (std::size_t i = 0; i < base.x.size(); ++i) {
      ASSERT_EQ(base.x[i], run.x[i]) << at << " x[" << i << "]";
    }
  }
}

TEST(ParallelDeterminism, JacobiCsrOperator) {
  check_jacobi<solver::CsrOperator>(cme_like_matrix(20'000, 3, 21), "csr");
}

TEST(ParallelDeterminism, JacobiCsrDiaOperator) {
  check_jacobi<solver::CsrDiaOperator>(cme_like_matrix(20'000, 3, 22),
                                       "csr+dia");
}

TEST(ParallelDeterminism, JacobiEllDiaOperator) {
  check_jacobi<solver::EllDiaOperator>(cme_like_matrix(20'000, 3, 23),
                                       "ell+dia");
}

TEST(ParallelDeterminism, JacobiWarpedEllDiaOperator) {
  check_jacobi<solver::WarpedEllDiaOperator>(cme_like_matrix(20'000, 3, 24),
                                             "warped-ell+dia");
}

}  // namespace
}  // namespace cmesolve
