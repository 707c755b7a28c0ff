#include "core/rate_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace cmesolve::core {

namespace {

/// States per assembly chunk. Fixed (thread-count independent) so every
/// chunked pass writes the same values at any thread count.
constexpr index_t kAssemblyChunk = 2048;

/// Number of kAssemblyChunk chunks covering [0, n).
int chunks_of(index_t n) {
  return static_cast<int>(n > 0 ? (n + kAssemblyChunk - 1) / kAssemblyChunk
                                : 0);
}

/// The one CSR builder of every CME generator. `column(j, add)` calls
/// add(i, v) for each entry of column j — source state j's successors, in
/// stencil order, then its diagonal. A counting pass sizes each row, then a
/// fill pass walks the sources in ascending order, so every row's columns
/// land sorted with no index sort. A repeated (i, j) — two reactions with
/// the same net change — can only come from one column, so it is merged
/// into the entry it follows: duplicates sum in stencil order.
template <class Column>
sparse::Csr csr_from_columns(index_t n, const Column& column) {
  sparse::Csr m;
  m.nrows = n;
  m.ncols = n;
  m.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  // Pass 1: distinct entries per row; last[i] is the last column that
  // touched row i.
  std::vector<index_t> last(static_cast<std::size_t>(n), index_t{-1});
  for (index_t j = 0; j < n; ++j) {
    column(j, [&](index_t i, real_t) {
      if (last[static_cast<std::size_t>(i)] == j) return;
      last[static_cast<std::size_t>(i)] = j;
      ++m.row_ptr[static_cast<std::size_t>(i) + 1];
    });
  }
  for (index_t r = 0; r < n; ++r) {
    m.row_ptr[static_cast<std::size_t>(r) + 1] +=
        m.row_ptr[static_cast<std::size_t>(r)];
  }
  const auto nnz = static_cast<std::size_t>(m.row_ptr.back());
  m.col_idx.resize(nnz);
  m.val.resize(nnz);
  // Pass 2: `last` becomes each row's fill cursor.
  std::copy(m.row_ptr.begin(), m.row_ptr.end() - 1, last.begin());
  for (index_t j = 0; j < n; ++j) {
    column(j, [&](index_t i, real_t v) {
      index_t& c = last[static_cast<std::size_t>(i)];
      const bool repeat = c > m.row_ptr[static_cast<std::size_t>(i)] &&
                          m.col_idx[static_cast<std::size_t>(c - 1)] == j;
      if (repeat) {
        m.val[static_cast<std::size_t>(c - 1)] += v;
      } else {
        m.col_idx[static_cast<std::size_t>(c)] = j;
        m.val[static_cast<std::size_t>(c)] = v;
        ++c;
      }
    });
  }
  return m;
}

void check_in_sync(const ProjectedRateMatrix& matrix,
                   const DynamicStateSpace& space, const char* caller) {
  if (matrix.cached_states() != space.size()) {
    throw std::logic_error(
        std::string("ProjectedRateMatrix::") + caller +
        ": stencil cache out of sync; call extend()/compact() after every "
        "space mutation");
  }
}

void record_projected(const sparse::Csr& a) {
  obs::count("core.projected.assemblies");
  obs::gauge("core.projected.last.rows", static_cast<real_t>(a.nrows));
  obs::gauge("core.projected.last.nnz", static_cast<real_t>(a.nnz()));
}

}  // namespace

sparse::Csr rate_matrix(const StateSpace& space) {
  CMESOLVE_TRACE_SPAN("core.rate_matrix");
  if (space.truncated()) {
    throw std::runtime_error(
        "rate_matrix: state space truncated; raise max_states");
  }
  const ReactionNetwork& net = space.network();
  const index_t n = space.size();
  const int nr = net.num_reactions();

  // Propensity evaluation and successor lookup dominate assembly time and
  // are independent per source state, so they run in fixed chunks, each
  // appending its states' successors (row index and rate, in reaction
  // order) to private lists. A chunk reserves its worst case, one entry per
  // reaction, and touches only the entries it writes. State j's diagonal is
  // the negated sum of its rates in the same order.
  // (StateSpace::find is a const hash lookup, safe for concurrent reads.)
  struct Chunk {
    std::vector<std::size_t> end;  ///< per state: one past its last entry
    std::vector<index_t> target;
    std::vector<real_t> rate;
  };
  std::vector<Chunk> chunks(static_cast<std::size_t>(chunks_of(n)));
  util::parallel_tasks(chunks_of(n), [&](int c) {
    const index_t j0 = static_cast<index_t>(c) * kAssemblyChunk;
    const index_t j1 = std::min<index_t>(j0 + kAssemblyChunk, n);
    Chunk& chunk = chunks[static_cast<std::size_t>(c)];
    const auto states = static_cast<std::size_t>(j1 - j0);
    chunk.end.reserve(states);
    chunk.target.reserve(states * static_cast<std::size_t>(nr));
    chunk.rate.reserve(states * static_cast<std::size_t>(nr));
    for (index_t j = j0; j < j1; ++j) {
      const State x = space.state(j);
      for (int k = 0; k < nr; ++k) {
        if (!net.within_capacity(k, x)) continue;
        const real_t a = net.propensity(k, x);
        if (a <= 0.0) continue;
        const index_t i = space.find(net.apply(k, x));
        if (i < 0) {
          throw std::logic_error("rate_matrix: successor not enumerated");
        }
        if (i == j) continue;  // null transition (no net state change)
        chunk.target.push_back(i);
        chunk.rate.push_back(a);
      }
      chunk.end.push_back(chunk.target.size());
    }
  });

  sparse::Csr csr = csr_from_columns(n, [&](index_t j, auto&& add) {
    const Chunk& chunk = chunks[static_cast<std::size_t>(j / kAssemblyChunk)];
    const auto local = static_cast<std::size_t>(j % kAssemblyChunk);
    real_t out_rate = 0.0;
    for (std::size_t s = local > 0 ? chunk.end[local - 1] : 0;
         s < chunk.end[local]; ++s) {
      add(chunk.target[s], chunk.rate[s]);
      out_rate += chunk.rate[s];
    }
    add(j, -out_rate);
  });
  obs::count("core.rate_matrix.assemblies");
  obs::observe("core.rate_matrix.nnz", static_cast<real_t>(csr.nnz()));
  obs::gauge("core.rate_matrix.last.rows", static_cast<real_t>(csr.nrows));
  obs::gauge("core.rate_matrix.last.nnz", static_cast<real_t>(csr.nnz()));
  return csr;
}

// ---------------------------------------------------------------------------
// ProjectedRateMatrix
// ---------------------------------------------------------------------------
ProjectedRateMatrix::ProjectedRateMatrix(const ReactionNetwork& network)
    : network_(&network), num_species_(network.num_species()) {
  stencil_ptr_.push_back(0);
}

void ProjectedRateMatrix::extend(const DynamicStateSpace& space) {
  CMESOLVE_TRACE_SPAN("core.projected.extend");
  const index_t old_n = cached_states();
  const index_t n = space.size();
  if (n < old_n) {
    throw std::logic_error(
        "ProjectedRateMatrix::extend: space shrank without compact()");
  }
  if (n == old_n) return;
  const int nr = network_->num_reactions();

  // Per-state stencils are independent, so new states are carved into fixed
  // chunks whose private buffers are concatenated in chunk order — the same
  // stencil stream a serial loop would emit at any thread count.
  struct Chunk {
    std::vector<std::size_t> len;
    std::vector<std::int32_t> succ_state;
    std::vector<real_t> succ_rate;
    std::vector<real_t> total_rate;
  };
  const index_t added = n - old_n;
  std::vector<Chunk> chunks(static_cast<std::size_t>(chunks_of(added)));

  util::parallel_tasks(chunks_of(added), [&](int c) {
    const index_t j0 = old_n + static_cast<index_t>(c) * kAssemblyChunk;
    const index_t j1 = std::min<index_t>(j0 + kAssemblyChunk, n);
    Chunk& chunk = chunks[static_cast<std::size_t>(c)];
    for (index_t j = j0; j < j1; ++j) {
      const State x = space.state(j);
      std::size_t len = 0;
      real_t total = 0.0;
      for (int k = 0; k < nr; ++k) {
        if (!network_->within_capacity(k, x)) continue;
        const real_t a = network_->propensity(k, x);
        if (a <= 0.0) continue;
        const State next = network_->apply(k, x);
        if (next == x) continue;  // null transition cancels in the generator
        chunk.succ_state.insert(chunk.succ_state.end(), next.begin(),
                                next.end());
        chunk.succ_rate.push_back(a);
        total += a;
        ++len;
      }
      chunk.len.push_back(len);
      chunk.total_rate.push_back(total);
    }
  });

  for (Chunk& chunk : chunks) {
    for (std::size_t i = 0; i < chunk.len.size(); ++i) {
      stencil_ptr_.push_back(stencil_ptr_.back() + chunk.len[i]);
      total_rate_.push_back(chunk.total_rate[i]);
    }
    succ_state_.insert(succ_state_.end(), chunk.succ_state.begin(),
                       chunk.succ_state.end());
    succ_rate_.insert(succ_rate_.end(), chunk.succ_rate.begin(),
                      chunk.succ_rate.end());
    chunk = Chunk{};
  }
  succ_index_.resize(succ_rate_.size(), index_t{-1});

  // Resolve every slot still outside the set: all of the new states' slots,
  // and the old states' slots that pointed past the old boundary (the states
  // just added may be their successors). Slots are independent, so the
  // chunks write disjoint entries.
  const auto ns = static_cast<std::size_t>(num_species_);
  util::parallel_tasks(chunks_of(n), [&](int c) {
    const index_t j0 = static_cast<index_t>(c) * kAssemblyChunk;
    const index_t j1 = std::min<index_t>(j0 + kAssemblyChunk, n);
    State next(ns);
    for (std::size_t s = stencil_ptr_[static_cast<std::size_t>(j0)];
         s < stencil_ptr_[static_cast<std::size_t>(j1)]; ++s) {
      if (succ_index_[s] >= 0) continue;
      std::copy_n(succ_state_.data() + s * ns, ns, next.data());
      succ_index_[s] = space.find(next);
    }
  });
  obs::count("core.projected.extends");
  obs::count("core.projected.states_cached",
             static_cast<std::uint64_t>(added));
}

void ProjectedRateMatrix::compact(const std::vector<index_t>& remap) {
  CMESOLVE_TRACE_SPAN("core.projected.compact");
  const auto old_n = static_cast<std::size_t>(cached_states());
  if (remap.size() != old_n) {
    throw std::invalid_argument("ProjectedRateMatrix::compact: remap size");
  }
  const auto ns = static_cast<std::size_t>(num_species_);
  std::vector<std::size_t> new_ptr{0};
  std::vector<std::int32_t> new_succ;
  std::vector<real_t> new_rate;
  std::vector<index_t> new_index;
  std::vector<real_t> new_total;
  for (std::size_t j = 0; j < old_n; ++j) {
    if (remap[j] < 0) continue;
    // compact() preserves relative order, so appending in old-index order
    // lands each survivor at its new index.
    const std::size_t b = stencil_ptr_[j];
    const std::size_t e = stencil_ptr_[j + 1];
    new_succ.insert(new_succ.end(), succ_state_.begin() + static_cast<std::ptrdiff_t>(b * ns),
                    succ_state_.begin() + static_cast<std::ptrdiff_t>(e * ns));
    new_rate.insert(new_rate.end(), succ_rate_.begin() + static_cast<std::ptrdiff_t>(b),
                    succ_rate_.begin() + static_cast<std::ptrdiff_t>(e));
    // A successor that was pruned is outside the set again.
    for (std::size_t s = b; s < e; ++s) {
      const index_t i = succ_index_[s];
      new_index.push_back(i < 0 ? i : remap[static_cast<std::size_t>(i)]);
    }
    new_ptr.push_back(new_ptr.back() + (e - b));
    new_total.push_back(total_rate_[j]);
  }
  stencil_ptr_ = std::move(new_ptr);
  succ_state_ = std::move(new_succ);
  succ_rate_ = std::move(new_rate);
  succ_index_ = std::move(new_index);
  total_rate_ = std::move(new_total);
}

std::vector<real_t> ProjectedRateMatrix::leaked_rates() const {
  const auto n = static_cast<std::size_t>(cached_states());
  std::vector<real_t> leaked(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t s = stencil_ptr_[j]; s < stencil_ptr_[j + 1]; ++s) {
      if (succ_index_[s] < 0) leaked[j] += succ_rate_[s];
    }
  }
  return leaked;
}

ProjectedRateMatrix::Assembly ProjectedRateMatrix::assemble(
    const DynamicStateSpace& space, index_t return_state) const {
  CMESOLVE_TRACE_SPAN("core.projected.assemble");
  check_in_sync(*this, space, "assemble");
  const index_t n = space.size();
  if (return_state < 0 || return_state >= n) {
    throw std::invalid_argument(
        "ProjectedRateMatrix::assemble: return_state not a member");
  }
  Assembly out;
  out.outflow = leaked_rates();
  out.a = csr_from_columns(n, [&](index_t j, auto&& add) {
    const auto ju = static_cast<std::size_t>(j);
    for (std::size_t s = stencil_ptr_[ju]; s < stencil_ptr_[ju + 1]; ++s) {
      if (succ_index_[s] >= 0) add(succ_index_[s], succ_rate_[s]);
    }
    // Redirect the leaked flux to the return state (a j->j redirect is a
    // self-loop, which cancels against the diagonal).
    const real_t leaked = out.outflow[ju];
    if (leaked > 0.0 && return_state != j) add(return_state, leaked);
    add(j, -(total_rate_[ju] - (return_state == j ? leaked : 0.0)));
  });
  record_projected(out.a);
  return out;
}

ProjectedRateMatrix::Assembly ProjectedRateMatrix::assemble_absorbing(
    const DynamicStateSpace& space) const {
  CMESOLVE_TRACE_SPAN("core.projected.assemble_absorbing");
  check_in_sync(*this, space, "assemble_absorbing");
  Assembly out;
  out.outflow = leaked_rates();
  // The leak stays in the diagonal (column sums to -leaked): dropped flux is
  // absorbed by the implicit sink state, never redirected.
  out.a = csr_from_columns(space.size(), [&](index_t j, auto&& add) {
    const auto ju = static_cast<std::size_t>(j);
    for (std::size_t s = stencil_ptr_[ju]; s < stencil_ptr_[ju + 1]; ++s) {
      if (succ_index_[s] >= 0) add(succ_index_[s], succ_rate_[s]);
    }
    add(j, -total_rate_[ju]);
  });
  record_projected(out.a);
  return out;
}

void ProjectedRateMatrix::out_of_set_successors(const DynamicStateSpace& space,
                                                index_t j,
                                                std::vector<State>& out) const {
  check_in_sync(*this, space, "out_of_set_successors");
  const auto ns = static_cast<std::size_t>(num_species_);
  const auto ju = static_cast<std::size_t>(j);
  for (std::size_t s = stencil_ptr_[ju]; s < stencil_ptr_[ju + 1]; ++s) {
    if (succ_index_[s] >= 0) continue;
    const std::int32_t* first = succ_state_.data() + s * ns;
    out.emplace_back(first, first + ns);
  }
}

real_t max_column_sum(const sparse::Csr& a) {
  std::vector<real_t> colsum(static_cast<std::size_t>(a.ncols), 0.0);
  for (index_t r = 0; r < a.nrows; ++r) {
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      colsum[static_cast<std::size_t>(a.col_idx[p])] += a.val[p];
    }
  }
  real_t worst = 0.0;
  for (real_t s : colsum) worst = std::max(worst, std::abs(s));
  return worst;
}

}  // namespace cmesolve::core
