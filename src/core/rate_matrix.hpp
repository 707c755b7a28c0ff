#pragma once
//
// Reaction-rate matrix assembly (Sec. II).
//
// A(i, j) for i != j is the total propensity of reactions taking microstate
// j to microstate i; A(j, j) = -sum_{i != j} A(i, j), so every column sums
// to zero and dP/dt = A P conserves probability. The steady state solves
// A P = 0.
//
#include "core/state_space.hpp"
#include "sparse/csr.hpp"

namespace cmesolve::core {

/// Assemble A in CSR (row-major) from an enumerated state space. The DFS
/// enumeration order is preserved, exposing the {-1, 0, +1} band. Two
/// reactions with the same net change add their rates into one entry, in
/// reaction order.
/// Throws when the space was truncated mid-enumeration (the matrix would
/// leak probability at the artificial boundary).
[[nodiscard]] sparse::Csr rate_matrix(const StateSpace& space);

/// Diagnostics for tests: max |column sum| of A (should be ~0).
[[nodiscard]] real_t max_column_sum(const sparse::Csr& a);

/// Incremental assembler for the finite-state-projection generator over a
/// DynamicStateSpace (src/fsp/).
///
/// The transition stencil of state j — its applicable reactions' successor
/// keys and propensities — depends only on j and the network, never on
/// which other states are members. Stencils are therefore computed once
/// when a state enters the set (extend()) and reused by every subsequent
/// assemble(), and each cached successor is resolved to its member index
/// once: extend() looks up only the slots still outside the set, and
/// compact() renumbers the resolved ones in step with the space. A round's
/// assembly is then a counting pass plus a fill pass over the resolved
/// indices — no hash lookup, no propensity re-evaluation, no sort.
///
/// assemble() redirects flux into non-member states back to a designated
/// return state (Gupta, Mikelson & Khammash's stationary FSP), keeping
/// every column zero-sum so the projected generator is a proper CTMC the
/// existing Jacobi/GMRES solvers handle unchanged. The redirected flux per
/// source state is reported in `outflow`; its stationary expectation is the
/// truncation error indicator of the FSP loop.
///
/// assemble*(), out_of_set_successors() throw std::logic_error when the
/// cache is out of sync with `space` (a mutation not followed by
/// extend()/compact()).
class ProjectedRateMatrix {
 public:
  explicit ProjectedRateMatrix(const ReactionNetwork& network);

  /// Compute and cache stencils for states [cached_states(), space.size()),
  /// and resolve every cached successor still outside the set. Call after
  /// the space grew; no-op when nothing was added.
  void extend(const DynamicStateSpace& space);

  /// Number of states whose stencils are cached (== space.size() after
  /// extend()/compact() have tracked every mutation).
  [[nodiscard]] index_t cached_states() const noexcept {
    return static_cast<index_t>(stencil_ptr_.size()) - 1;
  }

  /// Follow a DynamicStateSpace::compact renumbering: drop stencils of
  /// removed states, renumber the rest in order, and mark successors that
  /// were removed as outside the set.
  void compact(const std::vector<index_t>& remap);

  struct Assembly {
    sparse::Csr a;                ///< projected generator, columns sum to 0
    std::vector<real_t> outflow;  ///< per-state propensity leaving the set
  };
  /// Assemble the projected generator over the current members, redirecting
  /// out-of-set flux to column `return_state`.
  [[nodiscard]] Assembly assemble(const DynamicStateSpace& space,
                                  index_t return_state) const;

  /// Assemble the TRANSIENT projection (Munsky & Khammash's original FSP):
  /// flux into non-member states is dropped instead of redirected, so
  /// column j sums to -outflow[j] and the generator is sub-stochastic. The
  /// mass a transient propagation loses, 1 - ||P(t)||_1, is then exactly
  /// the accumulated sink mass, which the FSP transient theorem turns into
  /// a uniform-in-time error bound.
  [[nodiscard]] Assembly assemble_absorbing(
      const DynamicStateSpace& space) const;

  /// Keys of member j's successors that are NOT members (boundary-expansion
  /// candidates, for DynamicStateSpace::add), in stencil order. Appends to
  /// `out`.
  void out_of_set_successors(const DynamicStateSpace& space, index_t j,
                             std::vector<StateKey>& out) const;

  /// Total propensity leaving state j (Σ_k A_k(x_j), capacity-box
  /// truncated) — the λ_j of the embedded-jump-chain error bound.
  [[nodiscard]] real_t total_rate(index_t j) const noexcept {
    return total_rate_[static_cast<std::size_t>(j)];
  }

 private:
  /// Per-state rate into non-members, summed in stencil order.
  [[nodiscard]] std::vector<real_t> leaked_rates() const;

  const ReactionNetwork* network_;
  /// Stencil storage, flattened: successor s of state j has packed key
  /// succ_key_[stencil_ptr_[j]+s] and propensity succ_rate_[stencil_ptr_[j]+s].
  /// Self-transitions are dropped at build time (no net state change
  /// cancels in the generator).
  std::vector<std::size_t> stencil_ptr_;  ///< size cached_states()+1
  std::vector<StateKey> succ_key_;
  std::vector<real_t> succ_rate_;
  /// Member index of each cached successor; -1 while it is outside the set.
  std::vector<index_t> succ_index_;
  std::vector<real_t> total_rate_;  ///< per-state Σ propensities
};

}  // namespace cmesolve::core
