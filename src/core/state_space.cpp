#include "core/state_space.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace cmesolve::core {

namespace {

/// v << bit as a 128-bit key, modulo 2^128 (bit below 128).
StateKey shifted(std::uint64_t v, int bit) {
  if (bit >= 64) return {0, v << (bit - 64)};
  return {v << bit, bit == 0 ? 0 : v >> (64 - bit)};
}

/// a + b and a - b modulo 2^128.
StateKey add_keys(const StateKey& a, const StateKey& b) {
  const std::uint64_t lo = a[0] + b[0];
  return {lo, a[1] + b[1] + (lo < a[0] ? 1 : 0)};
}
StateKey sub_keys(const StateKey& a, const StateKey& b) {
  return {a[0] - b[0], a[1] - b[1] - (a[0] < b[0] ? 1 : 0)};
}

/// x in [lo, hi] intersected with the box [0, cap], as an int32 window
/// ({1, 0} when empty).
KeyStep::Window box_window(int species, std::int64_t lo, std::int64_t hi,
                           std::int64_t cap) {
  lo = std::max<std::int64_t>(lo, 0);
  hi = std::min(hi, cap);
  if (lo > hi) return {species, 1, 0};
  return {species, static_cast<std::int32_t>(lo),
          static_cast<std::int32_t>(hi)};
}

}  // namespace

// ---------------------------------------------------------------------------
// StatePacker
// ---------------------------------------------------------------------------
StatePacker::StatePacker(const ReactionNetwork& network) {
  const auto ns = static_cast<std::size_t>(network.num_species());
  offset_.resize(ns);
  width_.resize(ns);
  int total_bits = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    const auto cap =
        static_cast<std::uint32_t>(network.capacity(static_cast<int>(s)));
    offset_[s] = total_bits;
    width_[s] = std::max(1, static_cast<int>(std::bit_width(cap)));
    total_bits += width_[s];
  }
  if (total_bits > 128) {
    throw std::invalid_argument(
        "state space key exceeds 128 bits; reduce species or capacities");
  }

  for (const Reaction& r : network.reactions()) {
    KeyStep step;
    step.positive_rate = r.rate > 0.0;
    std::vector<std::int64_t> net(ns, 0);
    std::vector<std::int64_t> lo(ns, std::numeric_limits<std::int64_t>::min());
    std::vector<std::int64_t> hi(ns, std::numeric_limits<std::int64_t>::max());
    std::vector<char> touched(ns, 0);
    for (const auto& ch : r.changes) {
      const auto s = static_cast<std::size_t>(ch.species);
      const std::int64_t cap = network.capacity(ch.species);
      net[s] += ch.delta;
      lo[s] = std::max<std::int64_t>(lo[s], -ch.delta);
      hi[s] = std::min<std::int64_t>(hi[s], cap - ch.delta);
      touched[s] = 1;
    }
    for (std::size_t s = 0; s < ns; ++s) {
      if (!touched[s]) continue;
      const std::int64_t cap = network.capacity(static_cast<int>(s));
      step.capacity.push_back(box_window(static_cast<int>(s),
                                         std::max(lo[s], -net[s]),
                                         std::min(hi[s], cap - net[s]), cap));
      const StateKey field =
          shifted(static_cast<std::uint64_t>(std::abs(net[s])), offset_[s]);
      step.delta = net[s] >= 0 ? add_keys(step.delta, field)
                               : sub_keys(step.delta, field);
    }
    for (const auto& re : r.reactants) {
      const auto it = std::find_if(
          step.reactants.begin(), step.reactants.end(),
          [&](const KeyStep::Window& w) { return w.species == re.species; });
      if (it == step.reactants.end()) {
        step.reactants.push_back(
            {re.species, re.copies, network.capacity(re.species)});
      } else {
        it->lo = std::max(it->lo, re.copies);
      }
    }
    steps_.push_back(std::move(step));
  }
}

StateKey StatePacker::pack(const State& x) const {
  StateKey key{0, 0};
  for (std::size_t s = 0; s < offset_.size(); ++s) {
    const StateKey field =
        shifted(static_cast<std::uint64_t>(x[s]), offset_[s]);
    key[0] |= field[0];
    key[1] |= field[1];
  }
  return key;
}

void StatePacker::unpack(const StateKey& key, std::int32_t* x) const noexcept {
  for (std::size_t s = 0; s < offset_.size(); ++s) {
    const int bit = offset_[s];
    const int w = width_[s];
    std::uint64_t v;
    if (bit >= 64) {
      v = key[1] >> (bit - 64);
    } else {
      v = key[0] >> bit;
      if (bit + w > 64) v |= key[1] << (64 - bit);  // straddles the words
    }
    x[s] = static_cast<std::int32_t>(v & ((std::uint64_t{1} << w) - 1));
  }
}

// ---------------------------------------------------------------------------
// StateIndex
// ---------------------------------------------------------------------------
StateIndex::StateIndex() { rehash(16); }

std::size_t StateIndex::home(const StateKey& key) const noexcept {
  // Fibonacci hashing: the top bits of the product depend on every key bit.
  const std::uint64_t h =
      (key[0] ^ (key[1] * 0xC2B2AE3D27D4EB4FULL)) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h >> shift_);
}

std::size_t StateIndex::probe(const StateKey& key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = home(key);
  while (slots_[s] >= 0 && keys_[static_cast<std::size_t>(slots_[s])] != key) {
    s = (s + 1) & mask;
  }
  return s;
}

index_t StateIndex::find(const StateKey& key) const noexcept {
  return slots_[probe(key)];
}

std::pair<index_t, bool> StateIndex::insert(const StateKey& key) {
  std::size_t s = probe(key);
  if (slots_[s] >= 0) return {slots_[s], false};
  if (2 * (keys_.size() + 1) > slots_.size()) {
    rehash(2 * slots_.size());
    s = probe(key);
  }
  const index_t i = size();
  slots_[s] = i;
  keys_.push_back(key);
  return {i, true};
}

void StateIndex::rehash(std::size_t capacity) {
  slots_.assign(capacity, index_t{-1});
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    std::size_t s = home(keys_[i]);
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = static_cast<index_t>(i);
  }
}

void StateIndex::permute(const std::vector<index_t>& perm) {
  std::vector<StateKey> keys(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    keys[static_cast<std::size_t>(perm[i])] = keys_[i];
  }
  keys_ = std::move(keys);
  for (index_t& slot : slots_) {
    if (slot >= 0) slot = perm[static_cast<std::size_t>(slot)];
  }
}

void StateIndex::compact(const std::vector<char>& keep) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keep[i]) keys_[kept++] = keys_[i];
  }
  keys_.resize(kept);
  rehash(slots_.size());
}

// ---------------------------------------------------------------------------
// StateSpace
// ---------------------------------------------------------------------------
StateSpace::StateSpace(const ReactionNetwork& network, State initial,
                       std::size_t max_states, VisitOrder order,
                       std::uint64_t seed)
    : network_(&network),
      num_species_(network.num_species()),
      packer_(network) {
  if (!network.valid_state(initial)) {
    throw std::invalid_argument("initial state outside capacity box");
  }
  enumerate(initial, max_states, order, seed);
}

State StateSpace::state(index_t i) const {
  const auto ns = static_cast<std::size_t>(num_species_);
  const auto first = states_.begin() + static_cast<std::ptrdiff_t>(
                                           static_cast<std::size_t>(i) * ns);
  return State(first, first + static_cast<std::ptrdiff_t>(ns));
}

index_t StateSpace::find(const State& x) const {
  if (!network_->valid_state(x)) return -1;
  return index_.find(pack(x));
}

void StateSpace::enumerate(const State& initial, std::size_t max_states,
                           VisitOrder order, std::uint64_t seed) {
  CMESOLVE_TRACE_SPAN("core.enumerate");
  const int nr = network_->num_reactions();
  const auto ns = static_cast<std::size_t>(num_species_);

  // The frontier doubles as stack (DFS: pop back) and queue (BFS: pop
  // front via a moving head index).
  std::vector<StateKey> frontier{packer_.pack(initial)};
  std::size_t head = 0;

  while (head < frontier.size()) {
    StateKey key;
    if (order == VisitOrder::kBfs) {
      key = frontier[head++];
    } else {
      key = frontier.back();
      frontier.pop_back();
    }
    if (!index_.insert(key).second) continue;  // already visited

    states_.resize(states_.size() + ns);
    std::int32_t* x = states_.data() + states_.size() - ns;
    packer_.unpack(key, x);
    if (static_cast<std::size_t>(index_.size()) >= max_states) {
      truncated_ = true;
      break;
    }

    const auto visit = [&](int k) {
      const KeyStep& step = packer_.step(k);
      if (!step.applicable(x)) return;
      const StateKey next = step.successor(key);
      if (index_.find(next) < 0) frontier.push_back(next);
    };
    // DFS pushes successors in reverse reaction order: reaction 0's
    // successor lands on top of the stack, so the visit walks it next and
    // reversible pairs occupy adjacent indices (the diagonal band of
    // Sec. V). BFS enqueues in forward order.
    if (order == VisitOrder::kBfs) {
      for (int k = 0; k < nr; ++k) visit(k);
    } else {
      for (int k = nr - 1; k >= 0; --k) visit(k);
    }
  }

  const auto n = static_cast<std::size_t>(index_.size());
  if (order == VisitOrder::kRandom && !truncated_) {
    // Re-shuffle the assigned indices: worst-case ordering baseline.
    Xoshiro256 rng(seed);
    std::vector<index_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) {
      perm[i] = static_cast<index_t>(i);
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.bounded(i)]);
    }
    std::vector<std::int32_t> shuffled(states_.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(states_.data() + i * ns, ns,
                  shuffled.data() + static_cast<std::size_t>(perm[i]) * ns);
    }
    states_ = std::move(shuffled);
    index_.permute(perm);
  }

  obs::count("core.enumerations");
  obs::observe("core.state_space.states", static_cast<real_t>(n));
  obs::gauge("core.state_space.last.states", static_cast<real_t>(n));
  obs::gauge("core.state_space.last.truncated", truncated_ ? 1.0 : 0.0);
}

// ---------------------------------------------------------------------------
// DynamicStateSpace
// ---------------------------------------------------------------------------
DynamicStateSpace::DynamicStateSpace(const ReactionNetwork& network,
                                     const State& initial)
    : network_(&network),
      num_species_(network.num_species()),
      packer_(network) {
  if (!network.valid_state(initial)) {
    throw std::invalid_argument("initial state outside capacity box");
  }
  add(initial);
}

State DynamicStateSpace::state(index_t i) const {
  const auto ns = static_cast<std::size_t>(num_species_);
  const auto first = states_.begin() + static_cast<std::ptrdiff_t>(
                                           static_cast<std::size_t>(i) * ns);
  return State(first, first + static_cast<std::ptrdiff_t>(ns));
}

index_t DynamicStateSpace::find(const State& x) const {
  if (!network_->valid_state(x)) return -1;
  return index_.find(packer_.pack(x));
}

index_t DynamicStateSpace::add(const State& x) {
  if (!network_->valid_state(x)) {
    throw std::invalid_argument(
        "DynamicStateSpace::add: state outside capacity box");
  }
  return add(packer_.pack(x));
}

index_t DynamicStateSpace::add(const StateKey& key) {
  const auto [i, inserted] = index_.insert(key);
  if (inserted) {
    const auto ns = static_cast<std::size_t>(num_species_);
    states_.resize(states_.size() + ns);
    packer_.unpack(key, states_.data() + states_.size() - ns);
  }
  return i;
}

void DynamicStateSpace::grow_bfs(std::size_t target, index_t from) {
  const int nr = network_->num_reactions();
  const auto ns = static_cast<std::size_t>(num_species_);
  // The member list itself is the queue: every successor we add is appended
  // behind `head`. add() may reallocate the member arrays, so the head's
  // key and counts are copied out first.
  State x(ns);
  for (index_t head = from;
       head < size() && static_cast<std::size_t>(size()) < target; ++head) {
    const StateKey key = index_.key(head);
    std::copy_n(states_.data() + static_cast<std::size_t>(head) * ns, ns,
                x.data());
    for (int k = 0; k < nr && static_cast<std::size_t>(size()) < target;
         ++k) {
      const KeyStep& step = packer_.step(k);
      if (step.applicable(x.data())) add(step.successor(key));
    }
  }
}

std::vector<index_t> DynamicStateSpace::compact(const std::vector<char>& keep) {
  const auto n = static_cast<std::size_t>(size());
  if (keep.size() != n) {
    throw std::invalid_argument("DynamicStateSpace::compact: mask size");
  }
  std::vector<index_t> remap(n, index_t{-1});
  const auto ns = static_cast<std::size_t>(num_species_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    remap[i] = static_cast<index_t>(kept);
    if (kept != i) {
      std::copy_n(states_.data() + i * ns, ns, states_.data() + kept * ns);
    }
    ++kept;
  }
  states_.resize(kept * ns);
  index_.compact(keep);
  return remap;
}

bool DynamicStateSpace::is_boundary(index_t i) const {
  const int nr = network_->num_reactions();
  const StateKey& key = index_.key(i);
  const std::int32_t* x =
      states_.data() +
      static_cast<std::size_t>(i) * static_cast<std::size_t>(num_species_);
  for (int k = 0; k < nr; ++k) {
    const KeyStep& step = packer_.step(k);
    if (!step.applicable(x)) continue;
    const StateKey next = step.successor(key);
    if (next != key && index_.find(next) < 0) return true;
  }
  return false;
}

std::vector<index_t> DynamicStateSpace::boundary_states() const {
  std::vector<index_t> out;
  for (index_t i = 0; i < size(); ++i) {
    if (is_boundary(i)) out.push_back(i);
  }
  return out;
}

}  // namespace cmesolve::core
