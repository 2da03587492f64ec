// The journal record: one committed membership operation, serialized as a
// CRC-framed little-endian blob.
//
// The record stores the operation's *inputs* — user lists, the pinned
// timestamp, and a tape of every byte the plan phase drew from its rng —
// not its outputs. Recovery re-runs the operation through the real
// plan/seal pipeline with the tape injected (crypto/random.h RngTape) and
// the clock pinned, which reproduces the exact keys, IVs, and sealed wire
// bytes of the original dispatch on any replica, even one seeded
// differently (individual keys derive from auth_master, everything else
// from the tape). `sealed_digest` closes the loop: replay recomputes the
// digest over its sealed bytes and a mismatch is a typed
// ReplayDivergenceError instead of a silently wrong key tree.
//
// Frame layout (journal byte stream):
//   u32 magic 'KGWL' | u32 payload length | u32 crc32(payload) | payload
//
// Payload layout:
//   u64 sequence       — global commit order across journal lanes
//   u64 epoch          — 0 for kPreload records (no epoch advance)
//   u8  kind           — OpKind
//   u32 shard          — owning shard lane (0 on a single-shard server)
//   u64 timestamp_us   — the header timestamp the plan stamped
//   u32 n + n×u64      — join user ids (admitted, in plan order)
//   u32 n + n×u64      — leave user ids
//   var rng_tape       — plan-phase draws from the (lane) rng
//   var root_tape      — root-layer draws (sharded stitch; empty otherwise)
//   var sealed_digest  — digest over concatenated sealed wire bytes
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "storage/errors.h"

namespace keygraphs::storage {

/// Journaled operation kinds. Values 1..3 match rekey::RekeyKind; resyncs
/// are never journaled (they mutate nothing), and kPreload records the
/// sharded server's bulk-build chunks, which advance no epoch.
enum class OpKind : std::uint8_t {
  kJoin = 1,
  kLeave = 2,
  kBatch = 3,
  kPreload = 10,
};

struct JournalRecord {
  std::uint64_t sequence = 0;
  std::uint64_t epoch = 0;
  OpKind kind = OpKind::kJoin;
  std::uint32_t shard = 0;
  std::uint64_t timestamp_us = 0;
  std::vector<std::uint64_t> joins;
  std::vector<std::uint64_t> leaves;
  Bytes rng_tape;
  Bytes root_tape;
  Bytes sealed_digest;

  /// Payload bytes (no frame). decode_payload round-trips exactly.
  [[nodiscard]] Bytes encode_payload() const;
  /// Throws JournalCorruptError on malformed payloads.
  [[nodiscard]] static JournalRecord decode_payload(BytesView payload);

  /// Full frame: magic + length + CRC + payload.
  [[nodiscard]] Bytes encode_frame() const;
};

constexpr std::uint32_t kFrameMagic = 0x4c57474bu;  // "KGWL" little-endian
/// Frame header bytes preceding the payload.
constexpr std::size_t kFrameHeaderSize = 12;
/// Refuse absurd lengths before trusting a (CRC-unprotected) length field.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Result of scanning one lane's journal byte stream.
struct FrameScan {
  std::vector<JournalRecord> records;
  /// Bytes consumed by complete, valid frames; a torn tail (or, with
  /// stop_on_partial, an in-progress append) leaves the stream offset here.
  std::size_t consumed = 0;
  /// True when bytes past `consumed` formed an incomplete frame.
  bool torn_tail = false;
};

/// Decodes frames back-to-back from `stream`. A short final frame sets
/// torn_tail (never throws for it — the caller decides strict vs tolerant);
/// anything else malformed (bad magic, CRC mismatch, undecodable payload)
/// throws JournalCorruptError naming the byte offset. `base_offset` is only
/// for error messages (the stream's position within the whole journal).
[[nodiscard]] FrameScan scan_frames(BytesView stream,
                                    std::size_t base_offset = 0);

}  // namespace keygraphs::storage
