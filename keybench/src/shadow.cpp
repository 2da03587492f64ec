#include "shadow.h"

#include <memory>

#include "crypto/random.h"
#include "crypto/rsa.h"
#include "keygraph/key_tree.h"
#include "rekey/executor.h"
#include "rekey/plan.h"
#include "rekey/strategy.h"

namespace keybench {
namespace {

namespace kg = keygraphs;

struct ShadowRun {
  double build_s = 0.0;
  Samples join_us;
  Samples leave_us;
  Samples plan_us;
  Samples seal_us;
  Samples sign_us;
  Samples wraps;
  Samples messages;
  Samples signatures;
};

ShadowRun replay(const ShadowConfig& config,
                 const std::vector<UserId>& initial,
                 const std::vector<Op>& ops) {
  ShadowRun run;
  const std::size_t key_size = config.suite.key_size();
  const kg::crypto::CipherAlgorithm cipher = config.suite.cipher;
  kg::crypto::SecureRandom rng(config.seed * 2 + 1);
  kg::KeyTree tree(4, key_size, rng);

  // The same chunked batch_update build the server's preload() runs.
  constexpr std::size_t kChunk = 8192;
  const std::int64_t build_start = now_ns();
  std::vector<std::pair<UserId, kg::Bytes>> joins;
  for (const UserId user : initial) {
    joins.emplace_back(user, rng.bytes(key_size));
    if (joins.size() == kChunk) {
      (void)tree.batch_update(joins, {});
      joins.clear();
    }
  }
  if (!joins.empty()) (void)tree.batch_update(joins, {});
  run.build_s = static_cast<double>(now_ns() - build_start) / 1e9;

  const std::unique_ptr<kg::rekey::RekeyStrategy> strategy =
      kg::rekey::make_strategy(config.strategy);
  kg::rekey::RekeyExecutor executor(cipher, 1);
  std::unique_ptr<kg::crypto::RsaPrivateKey> signer;
  if (config.signing == kg::rekey::SigningMode::kPerMessage ||
      config.signing == kg::rekey::SigningMode::kBatch) {
    signer = std::make_unique<kg::crypto::RsaPrivateKey>(
        kg::crypto::RsaPrivateKey::generate(
            rng, kg::crypto::signature_modulus_bits(config.suite.signature)));
  }
  const kg::rekey::RekeySealer sealer(
      config.signing, config.suite.signing_digest(), signer.get());
  kg::rekey::RekeyEncryptor encryptor(cipher, rng);

  std::size_t replayed = 0;
  for (const Op& op : ops) {
    if (replayed == config.max_ops) break;
    if (op.kind == OpKind::kResync) continue;
    ++replayed;
    // Tree mutation (view publish included), then planning on the
    // published view, then sealing: the server's three plan-phase steps.
    const std::int64_t start = now_ns();
    kg::rekey::RekeyPlan plan;
    std::int64_t mutated = 0;
    if (op.kind == OpKind::kJoin) {
      const kg::JoinRecord record = tree.join(op.user, rng.bytes(key_size));
      const kg::TreeViewPtr view = tree.view();
      mutated = now_ns();
      kg::rekey::RekeyPlanner planner(cipher, rng, view);
      plan = planner.take(strategy->plan_join(record, planner));
      run.join_us.add(us_between(start, mutated));
    } else {
      const kg::LeaveRecord record = tree.leave(op.user);
      const kg::TreeViewPtr view = tree.view();
      mutated = now_ns();
      kg::rekey::RekeyPlanner planner(cipher, rng, view);
      plan = planner.take(strategy->plan_leave(record, planner));
      run.leave_us.add(us_between(start, mutated));
    }
    const std::int64_t planned = now_ns();
    run.plan_us.add(us_between(mutated, planned));
    const std::vector<kg::rekey::SealedRekey> sealed =
        executor.seal(plan, sealer);
    run.seal_us.add(us_between(planned, now_ns()));
    run.wraps.add(static_cast<double>(plan.key_encryptions));
    run.messages.add(static_cast<double>(plan.messages.size()));
    run.signatures.add(
        static_cast<double>(sealer.signatures_for(sealed.size())));
    if (signer != nullptr) {
      // The sign step alone: the sealer over the plan's materialized
      // message bodies (digest tree plus the RSA root signature in batch
      // mode).
      std::vector<kg::rekey::RekeyMessage> bodies;
      for (kg::rekey::OutboundRekey& outbound :
           kg::rekey::materialize(plan, encryptor)) {
        bodies.push_back(std::move(outbound.message));
      }
      const std::int64_t sign_start = now_ns();
      (void)sealer.seal(bodies);
      run.sign_us.add(us_between(sign_start, now_ns()));
    }
  }
  return run;
}

}  // namespace

void report_shadow(Report& report, const ShadowConfig& config,
                   const std::vector<UserId>& initial,
                   const std::vector<Op>& ops) {
  const ShadowRun full = replay(config, initial, ops);

  // The shape probe: the same churn shape on a tree 16x smaller. O(log n)
  // per-op cost gives a join-time ratio near log(n)/log(n/16).
  const std::size_t small_n = std::max<std::size_t>(initial.size() / 16, 16);
  ChurnGenerator generator(config.seed, initial_members(small_n),
                           UserId{1} << 40, 1, 0);
  std::vector<Op> small_ops;
  for (std::size_t i = 0; i < config.max_ops; ++i) {
    small_ops.push_back(generator.next());
  }
  const ShadowRun small = replay(config, initial_members(small_n), small_ops);

  report.metric("keygraph.join_us", full.join_us.median());
  report.metric("keygraph.leave_us", full.leave_us.median());
  const double small_join = small.join_us.median();
  report.metric("keygraph.shape_ratio",
                small_join > 0.0 ? full.join_us.median() / small_join : 0.0);
  report.metric("keygraph.build_s", full.build_s);
  report.metric("rekey.plan_us", full.plan_us.median());
  report.metric("rekey.seal_us", full.seal_us.median());
  report.metric("rekey.wraps_per_op", full.wraps.mean());
  report.metric("rekey.messages_per_op", full.messages.mean());
  report.metric("merkle.sign_us", full.sign_us.median());
  report.metric("crypto.signatures_per_op", full.signatures.mean());
  report.note("shadow_ops", std::to_string(full.plan_us.size()));
  report.note("shadow_members", std::to_string(initial.size()));
}

}  // namespace keybench
