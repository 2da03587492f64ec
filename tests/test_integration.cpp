// End-to-end integration over the in-process network: server + real
// clients under churn, for every strategy, with the paper's security goals
// checked directly:
//   - convergence: after every operation all members hold the current
//     group key;
//   - forward secrecy: a departed member's complete old keyset decrypts
//     nothing from any later rekey message;
//   - backward secrecy: a joiner cannot read rekey messages captured
//     before it joined.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace keygraphs {
namespace {

using rekey::StrategyKind;

struct IntegrationParam {
  StrategyKind strategy;
  int degree;
  bool sign;
};

class Integration : public ::testing::TestWithParam<IntegrationParam> {
 protected:
  void SetUp() override {
    const IntegrationParam param = GetParam();
    server::ServerConfig config;
    config.tree_degree = param.degree;
    config.strategy = param.strategy;
    config.rng_seed = 21;
    if (param.sign) {
      config.suite = crypto::CryptoSuite::paper_signed();
      config.signing = rekey::SigningMode::kBatch;
    }
    server_ = std::make_unique<server::ShardedGroupKeyServer>(
        server::ShardedServerConfig{config}, network_);
    sim::SimulatorConfig sim_config;
    sim_config.clients_verify = param.sign;
    simulator_ = std::make_unique<sim::ClientSimulator>(*server_, network_,
                                                        sim_config);
  }

  void expect_convergence() {
    const SymmetricKey group = server_->group_key();
    for (UserId user : server_->tree().users()) {
      const auto held = simulator_->client(user).group_key();
      ASSERT_TRUE(held.has_value()) << "user " << user << " has no group key";
      EXPECT_EQ(held->secret, group.secret) << "user " << user;
      EXPECT_EQ(held->version, group.version);
    }
  }

  transport::InProcNetwork network_;
  std::unique_ptr<server::ShardedGroupKeyServer> server_;
  std::unique_ptr<sim::ClientSimulator> simulator_;
};

TEST_P(Integration, ConvergenceUnderChurn) {
  sim::WorkloadGenerator workload(3);
  simulator_->apply_all(workload.initial_joins(20));
  expect_convergence();
  simulator_->apply_all(workload.churn(60));
  expect_convergence();
  server_->tree().shard(0).check_invariants();
}

TEST_P(Integration, EveryMemberCanTalkToEveryOther) {
  sim::WorkloadGenerator workload(4);
  simulator_->apply_all(workload.initial_joins(9));
  simulator_->apply_all(workload.churn(20));
  const std::vector<UserId> members = server_->tree().users();
  ASSERT_GE(members.size(), 2u);
  client::GroupClient& sender = simulator_->client(members.front());
  const Bytes sealed = sender.seal_application(bytes_of("team update"));
  for (UserId user : members) {
    EXPECT_EQ(simulator_->client(user).open_application(sealed),
              bytes_of("team update"))
        << "user " << user;
  }
}

TEST_P(Integration, ForwardSecrecy) {
  sim::WorkloadGenerator workload(5);
  simulator_->apply_all(workload.initial_joins(16));

  // The attacker: member 7 snapshots its full keyset, then leaves.
  const UserId attacker = 7;
  client::ClientConfig eve_config;
  eve_config.user = attacker;
  eve_config.suite = server_->config().base.suite;
  eve_config.root = server_->root_id();
  eve_config.verify = false;
  client::GroupClient eve(eve_config, server_->public_key());
  eve.admit_snapshot(server_->keyset(attacker), server_->epoch());
  ASSERT_TRUE(eve.group_key().has_value());

  std::vector<Bytes> captured;
  simulator_->apply(sim::Request{sim::RequestKind::kLeave, attacker});

  // Tap: a network eavesdropper sees every multicast, so subscribe a
  // sniffer to every current k-node and replay its captures into Eve.
  std::vector<KeyId> all_nodes;
  for (UserId user : server_->tree().users()) {
    for (const SymmetricKey& key : server_->keyset(user)) {
      all_nodes.push_back(key.id);
    }
  }
  network_.attach_client(888888, [&captured](BytesView data) {
    captured.emplace_back(data.begin(), data.end());
  });
  network_.resubscribe(888888, all_nodes);

  sim::WorkloadGenerator churn(6);
  churn.initial_joins(16);  // align the generator's member tracking
  simulator_->apply_all(churn.churn(30));

  // Eve processes every captured message with her stale keyset: she must
  // learn nothing (every wrap uses keys she does not hold, because her
  // leave rekeyed her entire path).
  std::size_t learned = 0;
  for (const Bytes& datagram : captured) {
    learned += eve.handle_datagram(datagram).keys_changed;
  }
  EXPECT_EQ(learned, 0u);
  EXPECT_NE(eve.group_key()->secret,
            server_->group_key().secret);
}

TEST_P(Integration, BackwardSecrecy) {
  sim::WorkloadGenerator workload(8);
  simulator_->apply_all(workload.initial_joins(12));

  // Capture all multicast traffic for a while before the new user joins.
  std::vector<Bytes> pre_join_traffic;
  std::vector<KeyId> all_nodes;
  for (UserId user : server_->tree().users()) {
    for (const SymmetricKey& key : server_->keyset(user)) {
      all_nodes.push_back(key.id);
    }
  }
  network_.attach_client(888888, [&pre_join_traffic](BytesView data) {
    pre_join_traffic.emplace_back(data.begin(), data.end());
  });
  network_.resubscribe(888888, all_nodes);
  simulator_->apply_all(workload.churn(20));
  network_.detach_client(888888);

  // Also capture an application payload under the pre-join group key.
  const std::vector<UserId> members = server_->tree().users();
  const Bytes old_secret_message =
      simulator_->client(members.front()).seal_application(
          bytes_of("history"));

  // A brand-new member joins and replays the captured history.
  const UserId newcomer = 5000;
  simulator_->apply(sim::Request{sim::RequestKind::kJoin, newcomer});
  client::GroupClient& joiner = simulator_->client(newcomer);

  // The joiner's keyset must not decrypt any captured rekey message...
  // (replaying old epochs is stale by design, so test with a fresh client
  // holding the same keys but no epoch state).
  client::ClientConfig probe_config;
  probe_config.user = newcomer;
  probe_config.suite = server_->config().base.suite;
  probe_config.root = server_->root_id();
  probe_config.verify = false;
  client::GroupClient probe(probe_config, nullptr);
  probe.admit_snapshot(server_->keyset(newcomer), 0);
  std::size_t learned = 0;
  for (const Bytes& datagram : pre_join_traffic) {
    learned += probe.handle_datagram(datagram).keys_changed;
  }
  EXPECT_EQ(learned, 0u);

  // ...and must not read the old application payload.
  EXPECT_THROW(joiner.open_application(old_secret_message), Error);
}

TEST_P(Integration, ClientKeysetsMirrorTreePaths) {
  // Strong synchronization invariant: after any churn, each member's
  // client holds exactly the k-node ids on its tree path (obsolete-id
  // pruning must leave no stale entries, and no path key may be missing).
  sim::WorkloadGenerator workload(12);
  simulator_->apply_all(workload.initial_joins(15));
  simulator_->apply_all(workload.churn(40));
  for (UserId user : server_->tree().users()) {
    std::vector<KeyId> expected;
    for (const SymmetricKey& key : server_->keyset(user)) {
      expected.push_back(key.id);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(simulator_->client(user).key_ids(), expected)
        << "user " << user;
  }
}

TEST_P(Integration, GroupShrinksToOneAndRegrows) {
  sim::WorkloadGenerator workload(9);
  simulator_->apply_all(workload.initial_joins(5));
  const std::vector<UserId> members = server_->tree().users();
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    simulator_->apply(sim::Request{sim::RequestKind::kLeave, members[i]});
    expect_convergence();
  }
  EXPECT_EQ(server_->member_count(), 1u);
  simulator_->apply(sim::Request{sim::RequestKind::kJoin, 700});
  simulator_->apply(sim::Request{sim::RequestKind::kJoin, 701});
  expect_convergence();
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndDegrees, Integration,
    ::testing::Values(
        IntegrationParam{StrategyKind::kUserOriented, 4, false},
        IntegrationParam{StrategyKind::kKeyOriented, 4, false},
        IntegrationParam{StrategyKind::kGroupOriented, 4, false},
        IntegrationParam{StrategyKind::kHybrid, 4, false},
        IntegrationParam{StrategyKind::kUserOriented, 2, false},
        IntegrationParam{StrategyKind::kKeyOriented, 3, false},
        IntegrationParam{StrategyKind::kGroupOriented, 8, false},
        IntegrationParam{StrategyKind::kHybrid, 3, false},
        IntegrationParam{StrategyKind::kGroupOriented, 4, true},
        IntegrationParam{StrategyKind::kKeyOriented, 4, true}));

}  // namespace
}  // namespace keygraphs
