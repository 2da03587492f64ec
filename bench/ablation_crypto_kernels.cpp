// Ablation — fast crypto kernels.
//
// How much faster are the table-driven AES/DES kernels than the retained
// bit-loop reference kernels (crypto/reference.h), measured as CBC
// throughput through the production encrypt_into path?
//
// Knob: KG_KERNEL_MS per-kernel measurement window (default 200 ms).
// Emits one JSON line per result to $KG_BENCH_JSON.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/des.h"
#include "crypto/random.h"
#include "crypto/reference.h"

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
       crypto::CbcCipher(std::make_unique<crypto::Aes128>(aes_key)),
       crypto::CbcCipher(
           std::make_unique<crypto::ReferenceAes128>(aes_key))},
      {"DES", crypto::CbcCipher(std::make_unique<crypto::Des>(des_key)),
       crypto::CbcCipher(std::make_unique<crypto::ReferenceDes>(des_key))},
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

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::bench::emit_header_json("ablation_crypto_kernels");
  keygraphs::kernel_section();
  return 0;
}
