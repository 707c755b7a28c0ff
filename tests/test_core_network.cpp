// Tests for the reaction-network model and propensity evaluation.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/reaction_network.hpp"

namespace cmesolve::core {
namespace {

ReactionNetwork dimerization_network() {
  ReactionNetwork net;
  const int m = net.add_species("M", 100);
  const int d = net.add_species("D", 50);
  net.add_reaction("synth", 5.0, {}, {{m, +1}});
  net.add_reaction("deg", 1.0, {{m, 1}}, {{m, -1}});
  net.add_reaction("dim", 0.1, {{m, 2}}, {{m, -2}, {d, +1}});
  net.add_reaction("dis", 2.0, {{d, 1}}, {{d, -1}, {m, +2}});
  return net;
}

TEST(ReactionNetwork, SpeciesRegistration) {
  const auto net = dimerization_network();
  EXPECT_EQ(net.num_species(), 2);
  EXPECT_EQ(net.species_name(0), "M");
  EXPECT_EQ(net.capacity(1), 50);
  EXPECT_EQ(net.find_species("D"), 1);
  EXPECT_EQ(net.find_species("missing"), -1);
}

TEST(ReactionNetwork, PropensityMassAction) {
  const auto net = dimerization_network();
  const State x{10, 3};
  // synth: constant rate (empty reactant list).
  EXPECT_DOUBLE_EQ(net.propensity(0, x), 5.0);
  // deg: 1.0 * C(10,1) = 10.
  EXPECT_DOUBLE_EQ(net.propensity(1, x), 10.0);
  // dim: 0.1 * C(10,2) = 4.5.
  EXPECT_DOUBLE_EQ(net.propensity(2, x), 4.5);
  // dis: 2.0 * C(3,1) = 6.
  EXPECT_DOUBLE_EQ(net.propensity(3, x), 6.0);
}

TEST(ReactionNetwork, PropensityZeroWithoutReactants) {
  const auto net = dimerization_network();
  EXPECT_DOUBLE_EQ(net.propensity(2, State{1, 0}), 0.0);  // needs 2 monomers
  EXPECT_DOUBLE_EQ(net.propensity(3, State{0, 0}), 0.0);  // no dimer
}

TEST(ReactionNetwork, CapacityBlocksReaction) {
  const auto net = dimerization_network();
  EXPECT_FALSE(net.within_capacity(0, State{100, 0}));  // M at cap
  EXPECT_TRUE(net.within_capacity(0, State{99, 0}));
  EXPECT_FALSE(net.within_capacity(3, State{99, 1}));  // dis would push M to 101
  EXPECT_FALSE(net.within_capacity(2, State{2, 50}));  // D at cap
}

TEST(ReactionNetwork, ApplicableCombinesBothChecks) {
  const auto net = dimerization_network();
  EXPECT_TRUE(net.applicable(2, State{2, 0}));
  EXPECT_FALSE(net.applicable(2, State{1, 0}));   // propensity zero
  EXPECT_FALSE(net.applicable(2, State{2, 50}));  // capacity
}

TEST(ReactionNetwork, ApplyProducesSuccessor) {
  const auto net = dimerization_network();
  EXPECT_EQ(net.apply(2, State{10, 3}), (State{8, 4}));
  EXPECT_EQ(net.apply(3, State{8, 4}), (State{10, 3}));
}

TEST(ReactionNetwork, ValidState) {
  const auto net = dimerization_network();
  EXPECT_TRUE(net.valid_state(State{0, 0}));
  EXPECT_TRUE(net.valid_state(State{100, 50}));
  EXPECT_FALSE(net.valid_state(State{101, 0}));
  EXPECT_FALSE(net.valid_state(State{-1, 0}));
  EXPECT_FALSE(net.valid_state(State{0}));  // wrong arity
}

TEST(ReactionNetwork, InvalidDefinitionsThrow) {
  ReactionNetwork net;
  const int s = net.add_species("S", 10);
  EXPECT_THROW(net.add_reaction("bad", 1.0, {{s + 7, 1}}, {}),
               std::out_of_range);
  EXPECT_THROW(net.add_reaction("bad", 1.0, {{s, 0}}, {}),
               std::invalid_argument);
  EXPECT_THROW(net.add_reaction("bad", -1.0, {{s, 1}}, {{s, -1}}),
               std::invalid_argument);
  EXPECT_THROW((void)net.add_species("neg", -1), std::invalid_argument);
}

TEST(ReactionNetwork, NanRateRejectedInfinityAllowed) {
  // A NaN rate would make the reaction never applicable (NaN > 0 is false)
  // while the assembled generator kept NaN propensities.
  ReactionNetwork net;
  const int a = net.add_species("A", 4);
  net.add_reaction("birth", 1.0, {}, {{a, +1}});
  net.add_reaction("death", 1.0, {{a, 1}}, {{a, -1}});
  EXPECT_THROW(net.add_reaction("nan", std::numeric_limits<real_t>::quiet_NaN(),
                                {}, {{a, +2}}),
               std::invalid_argument);
  EXPECT_EQ(net.num_reactions(), 2);
  net.add_reaction("fast", std::numeric_limits<real_t>::infinity(), {},
                   {{a, +2}});
  EXPECT_TRUE(net.applicable(2, State{0}));
  EXPECT_FALSE(net.applicable(2, State{3}));
}

TEST(ReactionNetwork, RepeatedSpeciesBoundsTheSummedChange) {
  // Two +1 entries for A: each alone fits from A = 2, their sum does not.
  ReactionNetwork net;
  const int a = net.add_species("A", 3);
  net.add_reaction("up2", 1.0, {}, {{a, +1}, {a, +1}});
  net.add_reaction("swap", 1.0, {}, {{a, +1}, {a, -1}});
  EXPECT_TRUE(net.within_capacity(0, State{1}));
  EXPECT_FALSE(net.within_capacity(0, State{2}));
  EXPECT_EQ(net.apply(0, State{1}), State{3});
  // A zero summed change still checks each entry alone.
  EXPECT_FALSE(net.within_capacity(1, State{0}));
  EXPECT_TRUE(net.within_capacity(1, State{2}));
  EXPECT_FALSE(net.within_capacity(1, State{3}));
}

}  // namespace
}  // namespace cmesolve::core
