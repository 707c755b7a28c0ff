#include "core/reaction_network.hpp"

#include <cmath>
#include <stdexcept>

#include "util/binomial.hpp"

namespace cmesolve::core {

int ReactionNetwork::add_species(std::string name, std::int32_t capacity) {
  if (capacity < 0) {
    throw std::invalid_argument("species capacity must be non-negative");
  }
  species_names_.push_back(std::move(name));
  capacity_.push_back(capacity);
  return static_cast<int>(capacity_.size()) - 1;
}

void ReactionNetwork::add_reaction(Reaction r) {
  const auto check = [this](int s) {
    if (s < 0 || s >= num_species()) {
      throw std::out_of_range("reaction references unknown species");
    }
  };
  for (const auto& re : r.reactants) {
    check(re.species);
    if (re.copies <= 0) {
      throw std::invalid_argument("reactant copy number must be positive");
    }
  }
  for (const auto& ch : r.changes) check(ch.species);
  if (std::isnan(r.rate)) {
    throw std::invalid_argument("reaction rate must not be NaN");
  }
  if (r.rate < 0.0) {
    throw std::invalid_argument("reaction rate must be non-negative");
  }
  reactions_.push_back(std::move(r));
}

void ReactionNetwork::add_reaction(std::string name, real_t rate,
                                   std::vector<Reactant> reactants,
                                   std::vector<SpeciesChange> changes) {
  add_reaction(Reaction{std::move(name), rate, std::move(reactants),
                        std::move(changes)});
}

int ReactionNetwork::find_species(std::string_view name) const noexcept {
  for (std::size_t s = 0; s < species_names_.size(); ++s) {
    if (species_names_[s] == name) return static_cast<int>(s);
  }
  return -1;
}

real_t ReactionNetwork::propensity(int k, const State& x) const {
  const Reaction& r = reactions_[static_cast<std::size_t>(k)];
  // Rate-last association: the propensity is rate * (unit combinatorial
  // product). Keeping the rate as the final multiply makes every
  // propensity exactly linear in the rate constant at the bit level,
  // which the batched ensemble operator relies on to share one unit
  // propensity table across parameter points (1.0 * u == u exactly).
  real_t a = 1.0;
  for (const auto& re : r.reactants) {
    a *= binomial(x[static_cast<std::size_t>(re.species)], re.copies);
    if (a == 0.0) return 0.0;
  }
  return r.rate * a;
}

bool ReactionNetwork::within_capacity(int k, const State& x) const {
  const Reaction& r = reactions_[static_cast<std::size_t>(k)];
  for (const auto& ch : r.changes) {
    const auto s = static_cast<std::size_t>(ch.species);
    // Each entry alone, and the change summed over every entry naming the
    // species (the successor apply() builds).
    std::int32_t summed = x[s];
    for (const auto& other : r.changes) {
      if (other.species == ch.species) summed += other.delta;
    }
    const std::int32_t next = x[s] + ch.delta;
    if (next < 0 || next > capacity_[s] || summed < 0 ||
        summed > capacity_[s]) {
      return false;
    }
  }
  return true;
}

State ReactionNetwork::apply(int k, const State& x) const {
  State next = x;
  const Reaction& r = reactions_[static_cast<std::size_t>(k)];
  for (const auto& ch : r.changes) {
    next[static_cast<std::size_t>(ch.species)] += ch.delta;
  }
  return next;
}

bool ReactionNetwork::valid_state(const State& x) const {
  if (x.size() != capacity_.size()) return false;
  for (std::size_t s = 0; s < x.size(); ++s) {
    if (x[s] < 0 || x[s] > capacity_[s]) return false;
  }
  return true;
}

}  // namespace cmesolve::core
