// Ablation — hardware-speed sealing and kernel-efficient fan-out.
//
// Two questions, answered with the production pipeline at large n:
//   1. Sealing: how many rekey operations per second can the executor
//      seal on each AES kernel {table, aesni}? The executor seals wrap ops
//      in batches of 8, the AES-NI kernel's interleave width, so on the
//      hardware kernel independent CBC streams overlap their AESENC
//      latency. A SHA-256 digest over every sealed wire byte is compared
//      across the kernels — the sweep is also a byte-identity proof.
//   2. Fan-out: how many datagrams per second does one rekey broadcast
//      reach n registered UDP peers at, sendto-per-datagram vs gathered
//      sendmmsg, and how many syscalls did each need? The sendmmsg bound
//      is ceil(n / UdpSocket::kSendBatch) calls.
//
// Knobs: KG_HW_N group size (default 2^20), KG_HW_OPS pre-planned leave
// operations (default 64), KG_HW_MS per-config seal window in ms (default
// 500), KG_HW_RECEIVERS loopback receiver sockets the peers map onto
// round-robin (default 4). Emits one JSON line per result to
// $KG_BENCH_JSON; the header line carries the CPUID probe.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "crypto/cpu_features.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "keygraph/key_tree.h"
#include "rekey/codec.h"
#include "rekey/executor.h"
#include "rekey/message.h"
#include "rekey/plan.h"
#include "rekey/strategy.h"
#include "transport/udp.h"

namespace keygraphs {
namespace {

struct SealConfig {
  const char* kernel;  // "table" | "aesni"
  bool aesni;
};

/// Digest over every wire byte of every sealed message, in order: equal
/// digests mean byte-identical output.
Bytes wires_digest(rekey::RekeyExecutor& executor,
                   const std::vector<rekey::RekeyPlan>& plans,
                   const rekey::RekeySealer& sealer) {
  crypto::Sha256 digest;
  for (const rekey::RekeyPlan& plan : plans) {
    for (const rekey::SealedRekey& sealed : executor.seal(plan, sealer)) {
      digest.update(sealed.wire);
    }
  }
  return digest.finish();
}

void seal_section(KeyTree& tree, crypto::SecureRandom& rng,
                  std::vector<rekey::RekeyPlan>& plans_out) {
  const std::size_t ops = bench::env_size("KG_HW_OPS", 64);
  const double window_ms =
      static_cast<double>(bench::env_size("KG_HW_MS", 500));

  // Pre-plan `ops` group-oriented leaves once (planning consumes the RNG
  // stream; sealing is deterministic, so the same plan re-seals to the
  // same bytes and can be measured in a loop).
  const auto strategy = rekey::make_strategy(rekey::StrategyKind::kGroupOriented);
  const std::vector<UserId> members = tree.users();
  std::vector<rekey::RekeyPlan> plans;
  plans.reserve(ops);
  for (std::size_t i = 0; i < ops && i < members.size(); ++i) {
    const LeaveRecord record = tree.leave(members[i]);
    rekey::RekeyPlanner planner(crypto::CipherAlgorithm::kAes128, rng);
    std::vector<rekey::PlannedRekey> messages =
        strategy->plan_leave(record, planner);
    plans.push_back(planner.take(std::move(messages)));
  }

  const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                  crypto::DigestAlgorithm::kNone, nullptr);
  std::vector<SealConfig> configs = {{"table", false}};
  if (crypto::cpu_features().aesni_usable()) {
    configs.push_back({"aesni", true});
  } else {
    std::printf("(AES-NI unusable on this host: hardware rows skipped)\n");
  }

  std::printf("Sealing: group-oriented leave at n=%zu, AES-128, "
              "1 seal thread, %zu pre-planned ops\n\n",
              tree.user_count() + plans.size(), plans.size());
  sim::TablePrinter table({{"kernel", 7},
                           {"rekeys/s", 10},
                           {"wraps/s", 10},
                           {"identical", 10}});
  table.header();

  Bytes reference_digest;
  for (const SealConfig& config : configs) {
    crypto::override_aesni_dispatch(config.aesni);
    rekey::RekeyExecutor executor(crypto::CipherAlgorithm::kAes128, 1);
    // Identity pass, which also warms the caches and the allocator.
    const Bytes digest = wires_digest(executor, plans, sealer);
    if (reference_digest.empty()) reference_digest = digest;
    const bool identical = digest == reference_digest;

    std::size_t wraps_per_pass = 0;
    for (const rekey::RekeyPlan& plan : plans) {
      wraps_per_pass += plan.ops.size();
    }
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration<double, std::milli>(window_ms);
    std::uint64_t sealed_ops = 0;
    std::size_t next = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto sealed = executor.seal(plans[next], sealer);
      if (sealed.empty()) break;  // unreachable; keeps the seal observable
      next = (next + 1) % plans.size();
      ++sealed_ops;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double rekeys_per_sec =
        static_cast<double>(sealed_ops) / elapsed.count();
    const double wraps_per_sec =
        rekeys_per_sec * (static_cast<double>(wraps_per_pass) /
                          static_cast<double>(plans.size()));
    table.row({config.kernel, sim::TablePrinter::num(rekeys_per_sec, 0),
               sim::TablePrinter::num(wraps_per_sec, 0),
               identical ? "yes" : "NO"});
    char buffer[320];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"bench\":\"ablation_hw_sealing\",\"section\":\"seal\","
                  "\"kernel\":\"%s\","
                  "\"sealed_rekeys_per_sec\":%.0f,\"wraps_per_sec\":%.0f,"
                  "\"wire_identical\":%s}",
                  config.kernel, rekeys_per_sec, wraps_per_sec,
                  identical ? "true" : "false");
    bench::emit_json_line(buffer);
  }
  crypto::override_aesni_dispatch(std::nullopt);
  std::printf("\n");
  plans_out = std::move(plans);
}

void fanout_section(const std::vector<rekey::RekeyPlan>& plans,
                    rekey::RekeyExecutor& executor, std::size_t n) {
  const std::size_t receiver_count = bench::env_size("KG_HW_RECEIVERS", 4);

  // One real sealed rekey message, framed exactly as dispatch frames it.
  const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                  crypto::DigestAlgorithm::kNone, nullptr);
  Bytes wire;
  if (!plans.empty()) {
    const auto sealed = executor.seal(plans.front(), sealer);
    if (!sealed.empty()) wire = sealed.front().wire;
  }
  const Bytes datagram =
      rekey::Datagram{rekey::MessageType::kRekey, wire, std::nullopt}.encode();

  // n peers round-robin onto a few live loopback sockets: every send has a
  // real bound destination (the kernel drops at the receive queue once the
  // rcvbuf fills, which is fine — send-side cost is what is measured).
  transport::UdpSocket socket;
  std::vector<transport::UdpSocket> receivers(receiver_count);
  transport::UdpServerTransport transport(socket);
  std::vector<UserId> all_users(n);
  for (std::size_t u = 0; u < n; ++u) {
    all_users[u] = static_cast<UserId>(u + 1);
    transport.register_user(all_users[u],
                            receivers[u % receiver_count].local_address());
  }
  const rekey::Recipient broadcast = rekey::Recipient::to_subgroup(1);
  const auto resolve = [&all_users] { return all_users; };

  std::printf("Fan-out: one %zu-byte rekey datagram to n=%zu UDP peers "
              "(%zu receiver sockets)\n\n",
              datagram.size(), n, receiver_count);
  sim::TablePrinter table({{"path", 9},
                           {"dgrams/s", 11},
                           {"syscalls", 9},
                           {"bound n/64", 11}});
  table.header();

  auto& registry = telemetry::Registry::global();
  const std::size_t bound =
      (n + transport::UdpSocket::kSendBatch - 1) /
      transport::UdpSocket::kSendBatch;
  for (const bool gather : {false, true}) {
    socket.set_sendmmsg(gather);
    const auto calls0 =
        registry.counter("transport.udp.sendmmsg_calls").value();
    const std::size_t sent0 = transport.datagrams_sent();
    const auto start = std::chrono::steady_clock::now();
    transport.deliver(broadcast, datagram, resolve);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const std::size_t sent = transport.datagrams_sent() - sent0;
    const auto syscalls =
        gather ? registry.counter("transport.udp.sendmmsg_calls").value() -
                     calls0
               : static_cast<std::uint64_t>(sent);
    const double rate = static_cast<double>(sent) / elapsed.count();
    table.row({gather ? "sendmmsg" : "sendto", sim::TablePrinter::num(rate, 0),
               sim::TablePrinter::num(syscalls),
               sim::TablePrinter::num(bound)});
    char buffer[320];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"bench\":\"ablation_hw_sealing\","
                  "\"section\":\"fanout\",\"path\":\"%s\",\"n\":%zu,"
                  "\"datagrams_per_sec\":%.0f,\"syscalls\":%llu,"
                  "\"syscall_bound\":%zu,\"send_failures\":%zu}",
                  gather ? "sendmmsg" : "sendto", n, rate,
                  static_cast<unsigned long long>(syscalls), bound,
                  transport.send_failures());
    bench::emit_json_line(buffer);
  }
  std::printf("\n");
}

void run() {
  const std::size_t n = bench::env_size("KG_HW_N", std::size_t{1} << 20);

  // Build the tree with bounded batch_update chunks (one million-user
  // record would hold every joiner's path key material at once).
  crypto::SecureRandom rng(40);
  KeyTree tree(4, 16, rng);
  constexpr std::size_t kChunk = 8192;
  std::vector<std::pair<UserId, Bytes>> joins;
  joins.reserve(kChunk);
  const auto build_start = std::chrono::steady_clock::now();
  for (std::size_t u = 1; u <= n; ++u) {
    joins.emplace_back(static_cast<UserId>(u), rng.bytes(16));
    if (joins.size() == kChunk || u == n) {
      tree.batch_update(joins, {});
      joins.clear();
    }
  }
  const std::chrono::duration<double> build_elapsed =
      std::chrono::steady_clock::now() - build_start;
  std::printf("Built n=%zu tree (d=4, AES-128) in %.1fs\n\n", n,
              build_elapsed.count());

  std::vector<rekey::RekeyPlan> plans;
  seal_section(tree, rng, plans);

  rekey::RekeyExecutor executor(crypto::CipherAlgorithm::kAes128, 1);
  fanout_section(plans, executor, n);
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::bench::emit_header_json("ablation_hw_sealing");
  keygraphs::run();
  return 0;
}
