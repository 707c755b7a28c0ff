#pragma once
//
// DFS state-space enumeration (Cao & Liang [17], Sec. II-B and Sec. V).
//
// Starting from an initial microstate, a depth-first visit over the
// reaction graph enumerates the reachable finite-buffer subspace. The
// enumeration order matters: DFS chains reversible reactions into runs of
// adjacent indices, which is exactly what populates the {-1, 0, +1} band
// the ELL+DIA format exploits. Reaction 0 is explored first, so placing a
// reversible synthesis/degradation pair first in the network maximizes the
// band density.
//
// Every state-space walk works on packed keys: StatePacker packs a
// microstate into a 128-bit StateKey and compiles each reaction into a
// KeyStep, so a successor's key is the member's key plus the packed net
// change, and StateIndex maps keys to member indices. Two containers share
// that machinery:
//  * StateSpace — one-shot enumeration of the full reachable box (the
//    paper's fixed-buffer pipeline).
//  * DynamicStateSpace — growable/prunable member set for the adaptive
//    finite-state-projection pipeline (src/fsp/), which sizes the space
//    round by round instead of enumerating the box up front.
//
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/reaction_network.hpp"
#include "util/types.hpp"

namespace cmesolve::core {

/// Microstate packed into 128 bits, species 0 in the lowest bits (up to 8
/// species with capacities below 65536, or more species with smaller
/// capacities).
using StateKey = std::array<std::uint64_t, 2>;

/// One reaction compiled against the packed key layout. For an in-box state
/// x whose counts pass within_capacity(), the successor x + delta_k stays in
/// the box, so its key is key(x) + delta: every field moves by its species'
/// net change and no field borrows from or carries into its neighbour.
struct KeyStep {
  /// x[species] must lie in [lo, hi].
  struct Window {
    int species = 0;
    std::int32_t lo = 0;
    std::int32_t hi = 0;
  };
  /// Every change entry alone and each species' summed change stay in
  /// [0, capacity] (ReactionNetwork::within_capacity).
  std::vector<Window> capacity;
  /// Every reactant species holds at least its copy number, so each
  /// binomial factor of the propensity is positive.
  std::vector<Window> reactants;
  /// Packed net change, modulo 2^128 (negative changes borrow across the
  /// word boundary).
  StateKey delta{0, 0};
  bool positive_rate = false;  ///< rate > 0 (NaN rates are rejected)

  /// ReactionNetwork::within_capacity on the counts x[0..num_species).
  [[nodiscard]] bool within_capacity(const std::int32_t* x) const noexcept {
    return inside(capacity, x);
  }

  /// ReactionNetwork::applicable: within capacity and propensity > 0.
  [[nodiscard]] bool applicable(const std::int32_t* x) const noexcept {
    return positive_rate && inside(reactants, x) && inside(capacity, x);
  }

  /// Key of the successor of the state packed in `key` (two-word add with
  /// carry). Meaningful only when the state passes within_capacity(); a
  /// null transition returns `key` itself.
  [[nodiscard]] StateKey successor(const StateKey& key) const noexcept {
    const std::uint64_t lo = key[0] + delta[0];
    const std::uint64_t carry = lo < key[0] ? 1 : 0;
    return {lo, key[1] + delta[1] + carry};
  }

 private:
  static bool inside(const std::vector<Window>& windows,
                     const std::int32_t* x) noexcept {
    for (const Window& w : windows) {
      if (x[w.species] < w.lo || x[w.species] > w.hi) return false;
    }
    return true;
  }
};

/// Packs microstates into 128-bit keys and compiles every reaction of the
/// network into a KeyStep. Bit widths derive from the network's per-species
/// capacities; construction throws when the packed representation exceeds
/// 128 bits.
class StatePacker {
 public:
  StatePacker() = default;
  explicit StatePacker(const ReactionNetwork& network);

  [[nodiscard]] int num_species() const noexcept {
    return static_cast<int>(offset_.size());
  }
  /// Key of an in-box state.
  [[nodiscard]] StateKey pack(const State& x) const;
  /// Counts of the state packed in `key`, written to x[0..num_species).
  void unpack(const StateKey& key, std::int32_t* x) const noexcept;
  /// The key step of reaction k.
  [[nodiscard]] const KeyStep& step(int k) const noexcept {
    return steps_[static_cast<std::size_t>(k)];
  }

 private:
  std::vector<int> offset_;  ///< first bit of each species' field
  std::vector<int> width_;   ///< bits per species in the packed key
  std::vector<KeyStep> steps_;
};

/// Member index over packed keys: the keys in member order in one dense
/// array, plus a power-of-two table of index_t slots probed linearly at a
/// load of at most 1/2 (-1 marks an empty slot). A probe compares keys
/// through the dense array, so the table costs 4 bytes per slot and stays
/// cache-resident for spaces of a few hundred thousand states.
class StateIndex {
 public:
  StateIndex();

  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(keys_.size());
  }
  /// Key of member i.
  [[nodiscard]] const StateKey& key(index_t i) const noexcept {
    return keys_[static_cast<std::size_t>(i)];
  }
  /// Member index of `key`, or -1. Safe for concurrent readers.
  [[nodiscard]] index_t find(const StateKey& key) const noexcept;
  /// Append `key` as member size() unless present. Returns its index and
  /// whether it was inserted.
  std::pair<index_t, bool> insert(const StateKey& key);
  /// Renumber member i as perm[i] (perm permutes [0, size())).
  void permute(const std::vector<index_t>& perm);
  /// Keep the members with keep[i] != 0, renumbered in order.
  void compact(const std::vector<char>& keep);

  /// Slots in the table (a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Slot where the probe for `key` starts.
  [[nodiscard]] std::size_t home(const StateKey& key) const noexcept;

 private:
  /// The slot holding `key`, or the empty slot that ends its probe.
  [[nodiscard]] std::size_t probe(const StateKey& key) const noexcept;
  void rehash(std::size_t capacity);

  std::vector<StateKey> keys_;
  std::vector<index_t> slots_;
  int shift_ = 0;  ///< 64 - log2(capacity): home() keeps the top bits
};

/// Visit order of the enumeration. DFS is the paper's (and the default:
/// it chains reversible reactions into the {-1,0,+1} band); BFS and the
/// randomized order exist for the ordering ablation benchmark.
enum class VisitOrder { kDfs, kBfs, kRandom };

class StateSpace {
 public:
  StateSpace(const ReactionNetwork& network, State initial,
             std::size_t max_states, VisitOrder order = VisitOrder::kDfs,
             std::uint64_t seed = 42);

  [[nodiscard]] index_t size() const noexcept { return index_.size(); }
  [[nodiscard]] const ReactionNetwork& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] int num_species() const noexcept {
    return network_->num_species();
  }

  /// Copy number of species s in microstate i.
  [[nodiscard]] std::int32_t count(index_t i, int s) const noexcept {
    return states_[static_cast<std::size_t>(i) *
                       static_cast<std::size_t>(num_species_) +
                   static_cast<std::size_t>(s)];
  }

  /// Full microstate i as a State vector.
  [[nodiscard]] State state(index_t i) const;

  /// Index of a microstate, or -1 when not part of the reachable space.
  [[nodiscard]] index_t find(const State& x) const;

  /// True when enumeration stopped at max_states before closure.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  /// Pack a state into the 128-bit key (throws when capacities do not fit
  /// 128 bits).
  [[nodiscard]] StateKey pack(const State& x) const { return packer_.pack(x); }

  /// Packed keys and key steps of this space's network.
  [[nodiscard]] const StatePacker& packer() const noexcept { return packer_; }
  /// Key -> member index; index().key(i) is microstate i's key.
  [[nodiscard]] const StateIndex& index() const noexcept { return index_; }

 private:
  void enumerate(const State& initial, std::size_t max_states,
                 VisitOrder order, std::uint64_t seed);

  const ReactionNetwork* network_;
  int num_species_;
  StatePacker packer_;
  std::vector<std::int32_t> states_;  ///< flattened, size * num_species
  StateIndex index_;
  bool truncated_ = false;
};

/// Growable, prunable microstate set for the adaptive FSP pipeline.
///
/// Unlike StateSpace — which enumerates the whole reachable finite-buffer
/// box once and is then immutable — this set starts from one seed state and
/// is extended (boundary expansion) and compacted (quantile pruning) round
/// by round. Indices are dense and insertion-ordered; compact() renumbers
/// survivors while preserving relative order, returning the old->new map so
/// warm-start vectors and cached matrix stencils can follow the renumbering.
class DynamicStateSpace {
 public:
  DynamicStateSpace(const ReactionNetwork& network, const State& initial);

  [[nodiscard]] index_t size() const noexcept { return index_.size(); }
  [[nodiscard]] const ReactionNetwork& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] int num_species() const noexcept { return num_species_; }

  /// Copy number of species s in member i.
  [[nodiscard]] std::int32_t count(index_t i, int s) const noexcept {
    return states_[static_cast<std::size_t>(i) *
                       static_cast<std::size_t>(num_species_) +
                   static_cast<std::size_t>(s)];
  }

  /// Full microstate i as a State vector.
  [[nodiscard]] State state(index_t i) const;

  /// Index of a microstate, or -1 when not a member.
  [[nodiscard]] index_t find(const State& x) const;

  /// Insert x (must lie inside the capacity box; throws otherwise).
  /// Returns its index — the existing one when x is already a member.
  index_t add(const State& x);

  /// Insert the state packed in `key`, which must be a member's key or a
  /// key-step successor of one that passed its capacity test. Returns its
  /// index — the existing one when the state is already a member.
  index_t add(const StateKey& key);

  /// Breadth-first walk over the member list from member `from` (in index
  /// order, each member's applicable reactions in reaction order), adding
  /// successors until `target` members exist or the walk runs out of
  /// members. Deterministic: the visit order depends only on the member
  /// list and the reaction order.
  void grow_bfs(std::size_t target, index_t from = 0);

  /// Drop every member i with keep[i] == 0, renumbering survivors in
  /// insertion order. Returns the old->new index map (-1 = dropped).
  std::vector<index_t> compact(const std::vector<char>& keep);

  /// True when member i has at least one applicable reaction whose
  /// successor is NOT a member — i.e. i sits on the projection boundary.
  [[nodiscard]] bool is_boundary(index_t i) const;

  /// All boundary members, ascending. O(size * reactions); intended for
  /// per-round diagnostics, not inner loops (the FSP driver tracks boundary
  /// flux through its cached stencils instead).
  [[nodiscard]] std::vector<index_t> boundary_states() const;

  /// Packed keys and key steps of this space's network.
  [[nodiscard]] const StatePacker& packer() const noexcept { return packer_; }
  /// Key -> member index; index().key(i) is member i's key.
  [[nodiscard]] const StateIndex& index() const noexcept { return index_; }

 private:
  const ReactionNetwork* network_;
  int num_species_;
  StatePacker packer_;
  std::vector<std::int32_t> states_;  ///< flattened, size * num_species
  StateIndex index_;
};

}  // namespace cmesolve::core
