// Tests for DFS state-space enumeration and rate-matrix assembly, and the
// parity of every packed-key walk (StateSpace, DynamicStateSpace, KeyStep,
// StateIndex) with the State-vector walks they replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "sparse/dia.hpp"
#include "sparse/format_stats.hpp"
#include "util/rng.hpp"
#include "verify/scenario.hpp"

namespace cmesolve::core {
namespace {

/// Birth-death network: 0 -> X (rate birth), X -> 0 (rate death * x).
ReactionNetwork birth_death(std::int32_t cap, real_t birth, real_t death) {
  ReactionNetwork net;
  const int x = net.add_species("X", cap);
  net.add_reaction("birth", birth, {}, {{x, +1}});
  net.add_reaction("death", death, {{x, 1}}, {{x, -1}});
  return net;
}

TEST(StateSpace, BirthDeathEnumeratesWholeChain) {
  const auto net = birth_death(25, 3.0, 1.0);
  const StateSpace space(net, State{0}, 1000);
  EXPECT_EQ(space.size(), 26);
  EXPECT_FALSE(space.truncated());
}

TEST(StateSpace, DfsOrderIsTheChainOrder) {
  const auto net = birth_death(10, 1.0, 1.0);
  const StateSpace space(net, State{0}, 1000);
  for (index_t i = 0; i <= 10; ++i) {
    EXPECT_EQ(space.count(i, 0), i) << "DFS must walk the chain in order";
  }
}

TEST(StateSpace, FindLocatesEveryState) {
  const auto net = birth_death(15, 1.0, 1.0);
  const StateSpace space(net, State{0}, 1000);
  for (index_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.find(space.state(i)), i);
  }
  EXPECT_EQ(space.find(State{16}), -1);
  EXPECT_EQ(space.find(State{-1}), -1);
}

TEST(StateSpace, TruncationFlag) {
  const auto net = birth_death(1000, 1.0, 1.0);
  const StateSpace space(net, State{0}, 10);
  EXPECT_TRUE(space.truncated());
  EXPECT_EQ(space.size(), 10);
}

TEST(StateSpace, InvalidInitialThrows) {
  const auto net = birth_death(5, 1.0, 1.0);
  EXPECT_THROW(StateSpace(net, State{7}, 100), std::invalid_argument);
}

TEST(StateSpace, BrusselatorCoversTheBox) {
  models::BrusselatorParams p;
  p.cap_x = 12;
  p.cap_y = 7;
  const auto net = models::brusselator(p);
  const StateSpace space(net, models::brusselator_initial(p), 100000);
  EXPECT_EQ(space.size(), 13 * 8);  // feed/convert reach every (x, y)
}

TEST(StateSpace, ToggleSwitchReachesAllGeneCombinations) {
  models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = 8;
  const auto net = models::toggle_switch(p);
  const StateSpace space(net, models::toggle_switch_initial(p), 100000);
  std::set<std::pair<int, int>> gene_states;
  const int ga = net.find_species("geneA_free");
  const int gb = net.find_species("geneB_free");
  for (index_t i = 0; i < space.size(); ++i) {
    gene_states.insert({space.count(i, ga), space.count(i, gb)});
  }
  EXPECT_EQ(gene_states.size(), 4u);
  // Operator occupancy conservation: free + bound = 1 in every state.
  const int gab = net.find_species("geneA_bound");
  for (index_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.count(i, ga) + space.count(i, gab), 1);
  }
}

TEST(StateSpace, DfsChainsReversiblePairsAdjacently) {
  // The fraction of consecutive index pairs connected by one reaction step
  // must be high — this is what fills the {-1,0,+1} band (Sec. V).
  models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = 20;
  const auto net = models::toggle_switch(p);
  const StateSpace space(net, models::toggle_switch_initial(p), 100000);

  index_t adjacent = 0;
  for (index_t i = 0; i + 1 < space.size(); ++i) {
    const State a = space.state(i);
    bool connected = false;
    for (int k = 0; k < net.num_reactions() && !connected; ++k) {
      if (net.applicable(k, a) && space.find(net.apply(k, a)) == i + 1) {
        connected = true;
      }
    }
    adjacent += connected;
  }
  EXPECT_GT(static_cast<real_t>(adjacent) / static_cast<real_t>(space.size()),
            0.8);
}

// --- rate matrix ----------------------------------------------------------------

TEST(RateMatrix, BirthDeathEntries) {
  const auto net = birth_death(4, 3.0, 2.0);
  const StateSpace space(net, State{0}, 100);
  const auto a = rate_matrix(space);
  ASSERT_EQ(a.nrows, 5);
  // Column j: birth 3.0 to j+1, death 2*j to j-1, diagonal balances.
  EXPECT_DOUBLE_EQ(a.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), -3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -5.0);
  // Top state: birth blocked by the buffer.
  EXPECT_DOUBLE_EQ(a.at(4, 4), -8.0);
}

TEST(RateMatrix, ColumnsSumToZero) {
  for (auto& model : models::paper_suite(models::SuiteScale::kTiny)) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto a = rate_matrix(space);
    EXPECT_LT(max_column_sum(a), 1e-9) << model.name;
  }
}

TEST(RateMatrix, SignPattern) {
  models::SchnakenbergParams p;
  p.cap_x = 20;
  p.cap_y = 10;
  const auto net = models::schnakenberg(p);
  const StateSpace space(net, models::schnakenberg_initial(p), 100000);
  const auto a = rate_matrix(space);
  for (index_t r = 0; r < a.nrows; ++r) {
    for (index_t pp = a.row_ptr[r]; pp < a.row_ptr[r + 1]; ++pp) {
      if (a.col_idx[pp] == r) {
        EXPECT_LT(a.val[pp], 0.0);
      } else {
        EXPECT_GT(a.val[pp], 0.0);
      }
    }
  }
}

TEST(RateMatrix, DiagonalFullyDense) {
  for (auto& model : models::paper_suite(models::SuiteScale::kTiny)) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto f = sparse::fingerprint(rate_matrix(space));
    EXPECT_DOUBLE_EQ(f.d0, 1.0) << model.name;
  }
}

TEST(RateMatrix, BandDensityAboveDiaThreshold) {
  // Sec. V: the {-1,0,+1} band of DFS-ordered CME matrices clears the 0.66
  // DIA profitability threshold — for every benchmark network.
  for (auto& model : models::paper_suite(models::SuiteScale::kTiny)) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto f = sparse::fingerprint(rate_matrix(space));
    EXPECT_GT(f.dband, 0.66) << model.name;
  }
}

TEST(RateMatrix, TruncatedSpaceRejected) {
  const auto net = birth_death(1000, 1.0, 1.0);
  const StateSpace space(net, State{0}, 10);
  EXPECT_THROW((void)rate_matrix(space), std::runtime_error);
}

TEST(RateMatrix, FingerprintsMatchPaperTableI) {
  // Structural fingerprints are scale-free network properties; check the
  // tiny tier against the qualitative Table I pattern.
  const auto suite = models::paper_suite(models::SuiteScale::kTiny);
  for (auto& model : suite) {
    const StateSpace space(model.network, model.initial, 1'000'000);
    const auto f = sparse::fingerprint(rate_matrix(space));
    if (model.name == "brusselator") {
      EXPECT_EQ(f.row_max, 5);
      EXPECT_LT(f.variability, 0.15);
    } else if (model.name == "schnakenberg") {
      EXPECT_EQ(f.row_max, 7);
      EXPECT_LT(f.variability, 0.15);
    } else if (model.name.starts_with("toggle")) {
      EXPECT_EQ(f.row_max, 7);
    } else {  // phage-lambda-*
      EXPECT_EQ(f.row_max, 15);
      EXPECT_GT(f.variability, 0.15);
      EXPECT_GT(f.skew, 0.4);
    }
  }
}

// --- parity with the State-vector enumeration ---------------------------------

struct StateHash {
  std::size_t operator()(const State& x) const noexcept {
    std::size_t h = 0;
    for (const std::int32_t v : x) {
      h = h * 1000003u + static_cast<std::uint32_t>(v);
    }
    return h;
  }
};

/// The enumeration before packed keys: a frontier of States, successors
/// from ReactionNetwork::apply, and a node-based map.
struct ReferenceSpace {
  std::vector<State> states;
  std::unordered_map<State, index_t, StateHash> index;
  bool truncated = false;

  [[nodiscard]] index_t find(const State& x) const {
    const auto it = index.find(x);
    return it == index.end() ? index_t{-1} : it->second;
  }
};

ReferenceSpace reference_enumerate(const ReactionNetwork& net,
                                   const State& initial,
                                   std::size_t max_states, VisitOrder order,
                                   std::uint64_t seed = 42) {
  ReferenceSpace ref;
  std::vector<State> frontier{initial};
  std::size_t head = 0;
  while (head < frontier.size()) {
    State x;
    if (order == VisitOrder::kBfs) {
      x = std::move(frontier[head++]);
    } else {
      x = std::move(frontier.back());
      frontier.pop_back();
    }
    const auto id = static_cast<index_t>(ref.states.size());
    if (!ref.index.try_emplace(x, id).second) continue;
    ref.states.push_back(x);
    if (ref.states.size() >= max_states) {
      ref.truncated = true;
      break;
    }
    const auto visit = [&](int k) {
      if (!net.applicable(k, x)) return;
      State next = net.apply(k, x);
      if (ref.find(next) < 0) frontier.push_back(std::move(next));
    };
    if (order == VisitOrder::kBfs) {
      for (int k = 0; k < net.num_reactions(); ++k) visit(k);
    } else {
      for (int k = net.num_reactions() - 1; k >= 0; --k) visit(k);
    }
  }
  if (order == VisitOrder::kRandom && !ref.truncated) {
    const std::size_t n = ref.states.size();
    Xoshiro256 rng(seed);
    std::vector<index_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<index_t>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.bounded(i)]);
    }
    std::vector<State> shuffled(n);
    for (std::size_t i = 0; i < n; ++i) {
      shuffled[static_cast<std::size_t>(perm[i])] = ref.states[i];
    }
    ref.states = std::move(shuffled);
    for (auto& [x, i] : ref.index) i = perm[static_cast<std::size_t>(i)];
  }
  return ref;
}

/// Member by member: the same states in the same order, the same truncation
/// point, and the same find() answer for every member and every in-box
/// successor of one. Each key step agrees with the State-vector tests and
/// successor.
template <class Space, class Reference>
void expect_same_members(const Space& space, const Reference& ref,
                         const std::string& what) {
  const ReactionNetwork& net = space.network();
  ASSERT_EQ(space.size(), static_cast<index_t>(ref.states.size())) << what;
  const StatePacker& packer = space.packer();
  for (index_t i = 0; i < space.size(); ++i) {
    const State x = space.state(i);
    ASSERT_EQ(x, ref.states[static_cast<std::size_t>(i)])
        << what << " member " << i;
    ASSERT_EQ(space.find(x), i) << what;
    ASSERT_EQ(space.index().key(i), packer.pack(x)) << what;
    for (int k = 0; k < net.num_reactions(); ++k) {
      const KeyStep& step = packer.step(k);
      ASSERT_EQ(step.within_capacity(x.data()), net.within_capacity(k, x))
          << what << " member " << i << " reaction " << k;
      ASSERT_EQ(step.applicable(x.data()), net.applicable(k, x))
          << what << " member " << i << " reaction " << k;
      if (!net.within_capacity(k, x)) continue;
      const State next = net.apply(k, x);
      ASSERT_EQ(step.successor(packer.pack(x)), packer.pack(next))
          << what << " member " << i << " reaction " << k;
      ASSERT_EQ(space.find(next), ref.find(next))
          << what << " member " << i << " reaction " << k;
    }
  }
}

void expect_enumeration_parity(const ReactionNetwork& net,
                               const State& initial, std::size_t max_states,
                               const std::string& name) {
  for (const VisitOrder order :
       {VisitOrder::kDfs, VisitOrder::kBfs, VisitOrder::kRandom}) {
    const std::string what =
        name + (order == VisitOrder::kDfs   ? " dfs"
                : order == VisitOrder::kBfs ? " bfs"
                                            : " random");
    const StateSpace space(net, initial, max_states, order, 7);
    const ReferenceSpace ref =
        reference_enumerate(net, initial, max_states, order, 7);
    EXPECT_EQ(space.truncated(), ref.truncated) << what;
    expect_same_members(space, ref, what);
  }
}

struct Family {
  std::string name;
  ReactionNetwork net;
  State initial;
};

std::vector<Family> model_families() {
  using namespace models;
  std::vector<Family> out;
  ToggleSwitchParams toggle;
  toggle.cap_a = toggle.cap_b = 12;
  out.push_back({"toggle_switch", toggle_switch(toggle),
                 toggle_switch_initial(toggle)});
  BrusselatorParams bruss;
  bruss.cap_x = 20;
  bruss.cap_y = 10;
  out.push_back({"brusselator", brusselator(bruss), brusselator_initial(bruss)});
  SchnakenbergParams schnak;
  schnak.cap_x = 20;
  schnak.cap_y = 10;
  out.push_back(
      {"schnakenberg", schnakenberg(schnak), schnakenberg_initial(schnak)});
  PhageLambdaParams phage;
  phage.cap_ci = phage.cap_cro = 4;
  phage.cap_ci2 = phage.cap_cro2 = 2;
  out.push_back({"phage_lambda", phage_lambda(phage), phage_lambda_initial(phage)});
  EnzymeKineticsParams enzyme;
  enzyme.cap_s = enzyme.cap_p = 15;
  out.push_back({"enzyme_kinetics", enzyme_kinetics(enzyme),
                 enzyme_kinetics_initial(enzyme)});
  FutileCycleParams futile;
  futile.substrate_total = 10;
  futile.enzyme1_total = futile.enzyme2_total = 1;
  out.push_back(
      {"futile_cycle", futile_cycle(futile), futile_cycle_initial(futile)});
  SirParams sir_params;
  sir_params.cap_s = sir_params.cap_i = sir_params.cap_r = 10;
  out.push_back({"sir", sir(sir_params), sir_initial(sir_params)});
  return out;
}

TEST(StateSpaceParity, EveryModelFamilyMatchesTheStateVectorWalk) {
  for (const Family& f : model_families()) {
    expect_enumeration_parity(f.net, f.initial, 1'000'000, f.name);
  }
}

TEST(StateSpaceParity, TruncatedPhageLambdaMatchesTheStateVectorWalk) {
  // Default phage-lambda capacities: the cap trips mid-walk, at the same
  // member in every visit order.
  const auto net = models::phage_lambda();
  const auto initial = models::phage_lambda_initial();
  expect_enumeration_parity(net, initial, 3000, "phage_lambda truncated");
  const StateSpace space(net, initial, 3000);
  EXPECT_TRUE(space.truncated());
}

TEST(StateSpaceParity, FuzzScenariosMatchTheStateVectorWalk) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const verify::Scenario sc = verify::random_scenario(seed);
    const ReactionNetwork net = verify::build_network(sc);
    expect_enumeration_parity(net, sc.initial, sc.max_states, sc.name);
  }
}

/// DynamicStateSpace before packed keys: members in a vector of States, a
/// node-based map, and ReactionNetwork::apply successors.
struct ReferenceDynamic {
  const ReactionNetwork* net;
  std::vector<State> states;
  std::unordered_map<State, index_t, StateHash> index;

  [[nodiscard]] index_t find(const State& x) const {
    const auto it = index.find(x);
    return it == index.end() ? index_t{-1} : it->second;
  }
  index_t add(const State& x) {
    const auto [it, inserted] =
        index.try_emplace(x, static_cast<index_t>(states.size()));
    if (inserted) states.push_back(x);
    return it->second;
  }
  void grow_bfs(std::size_t target, index_t from) {
    for (auto head = static_cast<std::size_t>(from);
         head < states.size() && states.size() < target; ++head) {
      const State x = states[head];
      for (int k = 0; k < net->num_reactions() && states.size() < target;
           ++k) {
        if (net->applicable(k, x)) add(net->apply(k, x));
      }
    }
  }
  std::vector<index_t> compact(const std::vector<char>& keep) {
    std::vector<index_t> remap(states.size(), index_t{-1});
    std::vector<State> kept;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (!keep[i]) continue;
      remap[i] = static_cast<index_t>(kept.size());
      kept.push_back(states[i]);
    }
    states = std::move(kept);
    index.clear();
    for (std::size_t i = 0; i < states.size(); ++i) {
      index.emplace(states[i], static_cast<index_t>(i));
    }
    return remap;
  }
  [[nodiscard]] bool is_boundary(index_t i) const {
    const State& x = states[static_cast<std::size_t>(i)];
    for (int k = 0; k < net->num_reactions(); ++k) {
      if (!net->applicable(k, x)) continue;
      const State next = net->apply(k, x);
      if (next == x) continue;
      if (find(next) < 0) return true;
    }
    return false;
  }
};

void expect_dynamic_parity(const DynamicStateSpace& space,
                           const ReferenceDynamic& ref,
                           const std::string& what) {
  expect_same_members(space, ref, what);
  for (index_t i = 0; i < space.size(); ++i) {
    ASSERT_EQ(space.is_boundary(i), ref.is_boundary(i))
        << what << " member " << i;
  }
}

void check_dynamic_family(const ReactionNetwork& net, const State& initial,
                          const std::string& name) {
  DynamicStateSpace space(net, initial);
  ReferenceDynamic ref{&net, {}, {}};
  ref.add(initial);
  space.grow_bfs(120);
  ref.grow_bfs(120, 0);
  expect_dynamic_parity(space, ref, name + " grown");

  // Drop every third member but the first; the survivors keep their order.
  std::vector<char> keep(static_cast<std::size_t>(space.size()), 1);
  for (std::size_t i = 1; i < keep.size(); i += 3) keep[i] = 0;
  EXPECT_EQ(space.compact(keep), ref.compact(keep)) << name;
  expect_dynamic_parity(space, ref, name + " compacted");

  // Regrow from the second half of the members only, then from the start.
  const index_t from = space.size() / 2;
  const auto target = static_cast<std::size_t>(space.size()) + 60;
  space.grow_bfs(target, from);
  ref.grow_bfs(target, from);
  expect_dynamic_parity(space, ref, name + " regrown from the middle");
  space.grow_bfs(target + 60);
  ref.grow_bfs(target + 60, 0);
  expect_dynamic_parity(space, ref, name + " regrown");
}

TEST(DynamicStateSpaceParity, GrowCompactRegrowMatchesTheStateVectorWalk) {
  for (const Family& f : model_families()) {
    check_dynamic_family(f.net, f.initial, f.name);
  }
  for (std::uint64_t seed = 1; seed <= 40; seed += 3) {
    const verify::Scenario sc = verify::random_scenario(seed);
    check_dynamic_family(verify::build_network(sc), sc.initial, sc.name);
  }
}

TEST(DynamicStateSpace, AddKeepsItsContract) {
  const auto net = birth_death(5, 1.0, 1.0);
  DynamicStateSpace space(net, State{2});
  EXPECT_EQ(space.add(State{2}), 0);
  EXPECT_EQ(space.add(State{5}), 1);
  EXPECT_EQ(space.add(space.index().key(1)), 1);
  EXPECT_THROW(space.add(State{6}), std::invalid_argument);
  EXPECT_THROW(space.add(State{-1}), std::invalid_argument);
  EXPECT_EQ(space.find(State{6}), -1);
  EXPECT_EQ(space.find(State{-1}), -1);
  EXPECT_EQ(space.find(State{3}), -1);
  EXPECT_EQ(space.size(), 2);
}

// --- a species named twice in one reaction ----------------------------------

/// A (capacity 3) is raised by two change entries of +1 in one reaction; B
/// (capacity 1) toggles. From A = 2 each entry alone stays in the box but
/// their sum does not, and A = 4 would pack onto the key of (0, 1).
ReactionNetwork repeated_species_network() {
  ReactionNetwork net;
  const int a = net.add_species("A", 3);
  const int b = net.add_species("B", 1);
  net.add_reaction("up2", 2.0, {}, {{a, +1}, {a, +1}});
  net.add_reaction("down", 1.0, {{a, 1}}, {{a, -1}});
  net.add_reaction("flip", 3.0, {}, {{b, +1}});
  net.add_reaction("flop", 1.0, {{b, 1}}, {{b, -1}});
  return net;
}

TEST(StateSpace, RepeatedSpeciesStaysInTheBox) {
  const auto net = repeated_species_network();
  EXPECT_FALSE(net.within_capacity(0, State{2, 0}));
  EXPECT_TRUE(net.within_capacity(0, State{1, 1}));
  for (const VisitOrder order :
       {VisitOrder::kDfs, VisitOrder::kBfs, VisitOrder::kRandom}) {
    const StateSpace space(net, State{0, 0}, 1000, order);
    ASSERT_EQ(space.size(), 8);
    std::set<State> members;
    for (index_t i = 0; i < space.size(); ++i) {
      const State x = space.state(i);
      EXPECT_TRUE(net.valid_state(x));
      members.insert(x);
    }
    EXPECT_EQ(members.size(), 8u);
    const auto a = rate_matrix(space);
    EXPECT_EQ(max_column_sum(a), 0.0);
  }
  expect_enumeration_parity(net, State{0, 0}, 1000, "repeated species");
}

// --- keys that straddle the word boundary --------------------------------------

/// Four 13-bit fields fill bits 0..51, so "mid" occupies bits 52..64 and
/// straddles the two key words; "high" sits in bits 65..71 of the second.
ReactionNetwork straddle_network() {
  ReactionNetwork net;
  for (int s = 0; s < 4; ++s) {
    net.add_species("low" + std::to_string(s), 8000);
  }
  const int mid = net.add_species("mid", 8191);
  const int high = net.add_species("high", 100);
  net.add_reaction("mid_up", 1.0, {}, {{mid, +3}});
  net.add_reaction("mid_down", 1.0, {{mid, 5}}, {{mid, -5}});
  net.add_reaction("cross", 2.0, {{3, 1}}, {{3, -1}, {mid, +1}, {high, +2}});
  net.add_reaction("cross_back", 0.5, {{mid, 1}, {high, 1}},
                   {{mid, -1}, {3, +1}, {high, -1}});
  net.add_reaction("low_down_high_up", 0.25, {{0, 7}}, {{0, -7}, {high, +1}});
  net.add_reaction("high_down_low_up", 0.75, {{high, 2}},
                   {{high, -2}, {0, +4000}});
  // Names mid and high twice: each entry and each summed change is bounded.
  net.add_reaction("churn", 1.5, {{high, 1}},
                   {{mid, +2}, {high, -1}, {mid, -1}, {high, +1}});
  return net;
}

TEST(KeyStep, StraddlingFieldMatchesPackOfApply) {
  const auto net = straddle_network();
  const StatePacker packer(net);
  std::vector<State> states;
  // Carries into and borrows out of the second word at mid = 4095/4096
  // (bits 52..63 all set, or only bit 64), and the box edges.
  for (const std::int32_t mid : {0, 1, 4, 4093, 4094, 4095, 4096, 4097, 4099,
                                 8186, 8188, 8190, 8191}) {
    for (const std::int32_t high : {0, 1, 2, 98, 99, 100}) {
      states.push_back({7, 0, 0, 1, mid, high});
      states.push_back({8000, 8000, 8000, 8000, mid, high});
      states.push_back({3999, 17, 4096, 0, mid, high});
    }
  }
  Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    State x(6);
    for (int s = 0; s < 6; ++s) {
      x[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(
          rng.bounded(static_cast<std::uint64_t>(net.capacity(s)) + 1));
    }
    states.push_back(std::move(x));
  }
  std::size_t crossed = 0;
  for (const State& x : states) {
    const StateKey key = packer.pack(x);
    State back(6);
    packer.unpack(key, back.data());
    ASSERT_EQ(back, x);
    for (int k = 0; k < net.num_reactions(); ++k) {
      const KeyStep& step = packer.step(k);
      ASSERT_EQ(step.within_capacity(x.data()), net.within_capacity(k, x));
      ASSERT_EQ(step.applicable(x.data()), net.applicable(k, x));
      if (!net.within_capacity(k, x)) continue;
      const StateKey next = step.successor(key);
      ASSERT_EQ(next, packer.pack(net.apply(k, x)))
          << "reaction " << k << " mid " << x[4];
      crossed += next[1] != key[1] ? 1 : 0;
    }
  }
  EXPECT_GT(crossed, 0u);  // some steps moved the second word

  // A walk over straddling keys enumerates what the State walk does.
  const State initial{7, 0, 0, 1, 4094, 0};
  expect_enumeration_parity(net, initial, 4000, "straddle");
  DynamicStateSpace space(net, initial);
  ReferenceDynamic ref{&net, {}, {}};
  ref.add(initial);
  space.grow_bfs(500);
  ref.grow_bfs(500, 0);
  expect_dynamic_parity(space, ref, "straddle dynamic");
}

// --- StateIndex -----------------------------------------------------------------

/// `count` keys whose probe starts in `slot`.
std::vector<StateKey> keys_homed_at(const StateIndex& index, std::size_t slot,
                                    std::size_t count) {
  std::vector<StateKey> out;
  for (std::uint64_t v = 1; out.size() < count; ++v) {
    const StateKey key{v * 0x10001ULL, v >> 2};
    if (index.home(key) == slot) out.push_back(key);
  }
  return out;
}

TEST(StateIndex, CollidingHomeSlotsProbeLinearly) {
  for (const bool wrap : {false, true}) {
    StateIndex index;
    const std::size_t capacity = index.capacity();
    // The last slot makes the run wrap around to slot 0.
    const auto keys = keys_homed_at(index, wrap ? capacity - 1 : 3, 5);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto [id, inserted] = index.insert(keys[i]);
      EXPECT_TRUE(inserted);
      EXPECT_EQ(id, static_cast<index_t>(i));
    }
    EXPECT_EQ(index.capacity(), capacity);  // load 4/16: no rehash yet
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(index.find(keys[i]), static_cast<index_t>(i));
      EXPECT_EQ(index.insert(keys[i]),
                std::make_pair(static_cast<index_t>(i), false));
    }
    EXPECT_EQ(index.find(keys[4]), -1);  // probes past the run

    // Growth past load 1/2 rehashes; every member keeps its index.
    Xoshiro256 rng(wrap ? 5 : 6);
    std::vector<StateKey> all(keys.begin(), keys.begin() + 4);
    while (all.size() < 5000) {
      // Bit 40 of the second word keeps these apart from the homed keys.
      const StateKey key{rng() & 0xFFFFFULL, (rng() & 3) | (1ULL << 40)};
      if (index.insert(key).second) all.push_back(key);
    }
    EXPECT_EQ(index.size(), 5000);
    EXPECT_LE(2 * static_cast<std::size_t>(index.size()), index.capacity());
    EXPECT_EQ(index.capacity() & (index.capacity() - 1), 0u);
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(index.find(all[i]), static_cast<index_t>(i));
      ASSERT_EQ(index.key(static_cast<index_t>(i)), all[i]);
    }
    EXPECT_EQ(index.find(keys[4]), -1);

    // Drop the even members; the odd ones are renumbered in order.
    std::vector<char> keep(all.size(), 0);
    for (std::size_t i = 1; i < keep.size(); i += 2) keep[i] = 1;
    index.compact(keep);
    ASSERT_EQ(index.size(), 2500);
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(index.find(all[i]),
                i % 2 == 1 ? static_cast<index_t>(i / 2) : index_t{-1});
    }

    // Reverse the numbering.
    std::vector<index_t> perm(2500);
    for (std::size_t i = 0; i < perm.size(); ++i) {
      perm[i] = static_cast<index_t>(perm.size() - 1 - i);
    }
    index.permute(perm);
    for (std::size_t i = 1; i < all.size(); i += 2) {
      ASSERT_EQ(index.find(all[i]), static_cast<index_t>(2499 - i / 2));
      ASSERT_EQ(index.key(static_cast<index_t>(2499 - i / 2)), all[i]);
    }
  }
}

}  // namespace
}  // namespace cmesolve::core
