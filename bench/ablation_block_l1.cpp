// Regenerates the Sec. VII-C tuning experiments:
//   (a) CUDA block-size sweep — the paper finds b=256 optimal (occupancy vs
//       block turnover), with slice=block=32 catastrophically underutilized;
//   (b) L1 split 16 KB vs 48 KB — the paper reports ~6% average gain.
#include <iostream>

#include "bench_common.hpp"
#include "gpusim/kernels.hpp"
#include "gpusim/occupancy.hpp"
#include "sparse/ell.hpp"
#include "util/table.hpp"

using namespace cmesolve;

int main(int argc, char** argv) {
  const auto scale = bench::scale_name(argc, argv);
  const auto suite = bench::suite_matrices(scale);

  std::cout << "Sec. VII-C ablations (simulated GTX580, scale=" << scale
            << ")\n\n(a) Block-size sweep, ELL SpMV average GFLOPS\n\n";
  {
    TextTable table({"block", "occupancy", "avg GFLOPS"});
    const auto dev = gpusim::DeviceSpec::gtx580();
    for (int b : {32, 64, 128, 256, 512, 1024}) {
      gpusim::SimOptions opt;
      opt.block_size = b;
      real_t sum = 0;
      for (const auto& m : suite) {
        const auto x = bench::uniform_vector(m.a.ncols);
        std::vector<real_t> y(static_cast<std::size_t>(m.a.nrows));
        sum += gpusim::simulate_spmv(dev, sparse::ell_from_csr(m.a), x, y, opt)
                   .gflops;
      }
      table.add_row({std::to_string(b),
                     TextTable::num(gpusim::occupancy(dev, b).fraction, 2),
                     TextTable::num(sum / static_cast<real_t>(suite.size()))});
    }
    std::cout << table.render();
    std::cout << "\nPaper: b=256 best (full occupancy + best turnover); "
                 "b=32 leaves 5/6 of the SM idle.\n";
  }

  std::cout << "\n(b) L1 configuration, ELL SpMV average GFLOPS\n\n";
  {
    struct Config {
      const char* name;
      std::size_t l1;
      bool enabled;
    };
    const Config configs[] = {{"disabled (L2 only)", 48 * 1024, false},
                              {"16 KB", 16 * 1024, true},
                              {"48 KB", 48 * 1024, true}};
    TextTable table({"L1 config", "avg GFLOPS"});
    for (const auto& cfg : configs) {
      const auto dev = gpusim::DeviceSpec::gtx580(cfg.l1);
      gpusim::SimOptions opt;
      opt.l1_enabled = cfg.enabled;
      real_t sum = 0;
      for (const auto& m : suite) {
        const auto x = bench::uniform_vector(m.a.ncols);
        std::vector<real_t> y(static_cast<std::size_t>(m.a.nrows));
        sum += gpusim::simulate_spmv(dev, sparse::ell_from_csr(m.a), x, y, opt)
                   .gflops;
      }
      table.add_row(
          {cfg.name, TextTable::num(sum / static_cast<real_t>(suite.size()))});
    }
    std::cout << table.render();
    std::cout
        << "\nPaper: 15.132 GFLOPS with 16 KB vs 16.032 with 48 KB (+6%).\n"
           "The transaction-level model reproduces the first-order value of "
           "the L1 (vs routing\ngathers to L2), but the 16-vs-48 KB margin is "
           "a capacity effect that only appears at\nthe paper's full matrix "
           "sizes (working set between the two capacities); at container\n"
           "scale the banded CME gathers fit either split. See EXPERIMENTS.md.\n";
  }
  obs::flush_outputs();
  return 0;
}
