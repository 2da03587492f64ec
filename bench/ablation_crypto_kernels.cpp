// Ablation — fast crypto kernels and the wrapping-key schedule cache.
//
// Two questions, answered with the production code paths:
//   1. How much faster are the table-driven AES/DES kernels than the
//      retained bit-loop reference kernels (crypto/reference.h), measured
//      as CBC throughput over a key-wrap-sized payload?
//   2. What hit rate does the executor's schedule cache reach under the
//      paper's fig-10 style churn (group-oriented rekeying, 1:1
//      join/leave) once plan-target warming is in effect?
//
// Knobs: KG_KERNEL_MS per-kernel measurement window (default 200 ms),
// KG_GROUP_SIZE initial group (default 4096), KG_REQUESTS churn requests
// (default 1000). Emits one JSON line per result to $KG_BENCH_JSON.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/des.h"
#include "crypto/random.h"
#include "crypto/reference.h"
#include "server/sharded_server.h"
#include "sim/workload.h"

namespace keygraphs {
namespace {

/// CBC-encrypt `payload_blocks` blocks per iteration for `window_ms`;
/// returns blocks per second through the full encrypt_into path.
double cbc_blocks_per_sec(const crypto::CbcCipher& cbc,
                          std::size_t payload_blocks, double window_ms) {
  crypto::SecureRandom rng(30);
  const std::size_t block = cbc.cipher().block_size();
  const Bytes payload = rng.bytes(payload_blocks * block);
  const Bytes iv = rng.bytes(block);
  Bytes out(cbc.ciphertext_size(payload.size()));
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration<double, std::milli>(window_ms);
  std::uint64_t iterations = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    cbc.encrypt_into(payload, iv, out.data());
    ++iterations;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(iterations * (payload_blocks + 1)) /
         elapsed.count();
}

void kernel_section() {
  const double window_ms =
      static_cast<double>(bench::env_size("KG_KERNEL_MS", 200));
  constexpr std::size_t kPayloadBlocks = 256;
  crypto::SecureRandom rng(31);
  const Bytes aes_key = rng.bytes(crypto::Aes128::kKeySize);
  const Bytes des_key = rng.bytes(crypto::Des::kKeySize);

  struct Pair {
    const char* name;
    crypto::CbcCipher table;
    crypto::CbcCipher reference;
  };
  Pair pairs[] = {
      {"AES-128",
       crypto::CbcCipher(std::make_shared<crypto::Aes128>(aes_key)),
       crypto::CbcCipher(
           std::make_shared<crypto::ReferenceAes128>(aes_key))},
      {"DES", crypto::CbcCipher(std::make_shared<crypto::Des>(des_key)),
       crypto::CbcCipher(std::make_shared<crypto::ReferenceDes>(des_key))},
  };

  std::printf("Kernel ablation: CBC blocks/sec, table-driven vs bit-loop "
              "reference (%zu-block payload)\n\n", kPayloadBlocks);
  sim::TablePrinter table({{"cipher", 8},
                           {"table blk/s", 13},
                           {"reference blk/s", 16},
                           {"speedup", 8}});
  table.header();
  for (const Pair& pair : pairs) {
    const double fast = cbc_blocks_per_sec(pair.table, kPayloadBlocks,
                                           window_ms);
    const double slow = cbc_blocks_per_sec(pair.reference, kPayloadBlocks,
                                           window_ms);
    const double speedup = fast / slow;
    table.row({pair.name, sim::TablePrinter::num(fast, 0),
               sim::TablePrinter::num(slow, 0),
               sim::TablePrinter::num(speedup, 2)});
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"bench\":\"ablation_crypto_kernels\","
                  "\"section\":\"kernel\",\"cipher\":\"%s\","
                  "\"table_blocks_per_sec\":%.0f,"
                  "\"reference_blocks_per_sec\":%.0f,\"speedup\":%.2f}",
                  pair.name, fast, slow, speedup);
    bench::emit_json_line(buffer);
  }
  std::printf("\n");
}

void schedule_cache_section() {
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 4096);
  const std::size_t requests = bench::env_size("KG_REQUESTS", 1000);

  server::ServerConfig config;
  config.tree_degree = 4;
  config.suite.cipher = crypto::CipherAlgorithm::kAes128;
  config.strategy = rekey::StrategyKind::kGroupOriented;
  config.rng_seed = 1;
  transport::NullTransport transport;
  server::ShardedGroupKeyServer server(server::ShardedServerConfig{config},
                                       transport);

  sim::WorkloadGenerator workload(1);
  for (const sim::Request& request : workload.initial_joins(n)) {
    server.join(request.user);
  }

  // Measure the churn window only: the build phase above has its own
  // (cold) cache behavior and the paper never measures group construction.
  auto& registry = telemetry::Registry::global();
  const auto hits0 = registry.counter("rekey.schedule_cache.hits").value();
  const auto misses0 =
      registry.counter("rekey.schedule_cache.misses").value();
  const auto inserts0 =
      registry.counter("rekey.schedule_cache.inserts").value();

  for (const sim::Request& request : workload.churn(requests)) {
    if (request.kind == sim::RequestKind::kJoin) {
      server.join(request.user);
    } else {
      server.leave(request.user);
    }
  }

  const auto hits =
      registry.counter("rekey.schedule_cache.hits").value() - hits0;
  const auto misses =
      registry.counter("rekey.schedule_cache.misses").value() - misses0;
  const auto inserts =
      registry.counter("rekey.schedule_cache.inserts").value() - inserts0;
  const double lookups = static_cast<double>(hits + misses);
  const double hit_rate_pct =
      lookups == 0.0 ? 0.0 : 100.0 * static_cast<double>(hits) / lookups;

  std::printf("Schedule cache: group-oriented churn, n=%zu, %zu requests "
              "(1:1 join/leave), AES-128\n\n", n, requests);
  std::printf("  wrap-time lookups: %llu hits, %llu misses "
              "(hit rate %.1f%%)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), hit_rate_pct);
  std::printf("  plan-target warm inserts: %llu\n\n",
              static_cast<unsigned long long>(inserts));
  std::printf("(Warming builds each plan target's schedule once before the "
              "wrap fan-out; lookups\nthen miss only on welcome-unicast "
              "individual keys, never on plan targets.)\n");

  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "{\"bench\":\"ablation_crypto_kernels\","
                "\"section\":\"schedule_cache\",\"n\":%zu,\"requests\":%zu,"
                "\"hits\":%llu,\"misses\":%llu,\"inserts\":%llu,"
                "\"hit_rate_pct\":%.2f}",
                n, requests, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(inserts), hit_rate_pct);
  bench::emit_json_line(buffer);
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::bench::emit_header_json("ablation_crypto_kernels");
  keygraphs::kernel_section();
  keygraphs::schedule_cache_section();
  return 0;
}
