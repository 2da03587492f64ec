// The traced run's per-layer probe for the keygraph, rekey and merkle
// modules: it replays a workload's request sequence on a standalone
// "shadow" KeyTree of the same size, driving the public KeyTree,
// make_strategy, RekeyPlanner, RekeyExecutor and RekeySealer APIs the way
// the server does, and times each call from outside.
#pragma once

#include <vector>

#include "crypto/suite.h"
#include "harness.h"
#include "rekey/codec.h"
#include "rekey/message.h"

namespace keybench {

struct ShadowConfig {
  std::uint64_t seed = 1;
  keygraphs::crypto::CryptoSuite suite;
  keygraphs::rekey::StrategyKind strategy =
      keygraphs::rekey::StrategyKind::kGroupOriented;
  keygraphs::rekey::SigningMode signing = keygraphs::rekey::SigningMode::kNone;
  /// Longest prefix of the request sequence replayed.
  std::size_t max_ops = 200;
};

/// Replays the join/leave ops of `ops` (resyncs skipped, at most
/// config.max_ops of them) on a tree built from `initial`, plus a generated
/// churn of the same length on a tree of initial.size() / 16 for the shape
/// ratio. Fills keygraph.{join_us,leave_us,shape_ratio,build_s},
/// rekey.{plan_us,seal_us,wraps_per_op,messages_per_op}, merkle.sign_us
/// and crypto.signatures_per_op.
void report_shadow(Report& report, const ShadowConfig& config,
                   const std::vector<UserId>& initial,
                   const std::vector<Op>& ops);

}  // namespace keybench
