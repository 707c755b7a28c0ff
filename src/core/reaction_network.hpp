#pragma once
//
// Biochemical reaction network model (Sec. II-A).
//
// A network is a set of species with finite buffer capacities plus a set of
// mass-action reactions. The propensity of reaction k in microstate x is
//     A_k(x) = r_k * prod_i C(x_i, c_i)
// where c_i is the reactant copy number of species i. A reaction is
// applicable when its propensity is positive AND the successor state stays
// inside the capacity box (finite-buffer truncation of Cao & Liang [17]).
//
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace cmesolve::core {

/// Species copy-number vector. Kept as plain int32 counts.
using State = std::vector<std::int32_t>;

struct Reactant {
  int species = 0;
  std::int32_t copies = 1;  ///< c_i in the propensity binomial
};

struct SpeciesChange {
  int species = 0;
  std::int32_t delta = 0;  ///< net stoichiometric change
};

struct Reaction {
  std::string name;
  real_t rate = 0.0;  ///< intrinsic rate r_k
  std::vector<Reactant> reactants;
  std::vector<SpeciesChange> changes;
};

class ReactionNetwork {
 public:
  /// Register a species with an inclusive copy-number capacity.
  /// @return species id used by reactions.
  int add_species(std::string name, std::int32_t capacity);

  /// Register a reaction. Species ids must exist and the rate must be
  /// non-negative and not NaN (+inf is allowed); throws otherwise.
  void add_reaction(Reaction r);

  /// Convenience: build a reaction from (species id, count) pairs.
  void add_reaction(std::string name, real_t rate,
                    std::vector<Reactant> reactants,
                    std::vector<SpeciesChange> changes);

  [[nodiscard]] int num_species() const noexcept {
    return static_cast<int>(capacity_.size());
  }
  [[nodiscard]] int num_reactions() const noexcept {
    return static_cast<int>(reactions_.size());
  }
  [[nodiscard]] const std::string& species_name(int s) const {
    return species_names_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::int32_t capacity(int s) const {
    return capacity_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const Reaction& reaction(int k) const {
    return reactions_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const std::vector<Reaction>& reactions() const noexcept {
    return reactions_;
  }

  /// Species id by name; -1 when absent.
  [[nodiscard]] int find_species(std::string_view name) const noexcept;

  /// A_k(x): zero when reactants are missing. Does NOT check capacity.
  [[nodiscard]] real_t propensity(int k, const State& x) const;

  /// True when x + delta_k stays inside [0, capacity] for every species,
  /// both for each change entry alone and for a species' summed change.
  [[nodiscard]] bool within_capacity(int k, const State& x) const;

  /// Applicable = propensity > 0 and within capacity.
  [[nodiscard]] bool applicable(int k, const State& x) const {
    return within_capacity(k, x) && propensity(k, x) > 0.0;
  }

  /// Successor state x + delta_k (no checks; pair with applicable()).
  [[nodiscard]] State apply(int k, const State& x) const;

  /// True when every species count is inside [0, capacity].
  [[nodiscard]] bool valid_state(const State& x) const;

 private:
  std::vector<std::string> species_names_;
  std::vector<std::int32_t> capacity_;
  std::vector<Reaction> reactions_;
};

}  // namespace cmesolve::core
