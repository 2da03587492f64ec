// Byte-buffer primitives shared by every subsystem.
//
// The whole library moves keys and messages around as flat byte vectors;
// this header provides the alias plus the small set of helpers (hex codecs,
// constant-time comparison, concatenation, secure wipe) that the crypto and
// wire-format layers need.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace keygraphs {

/// Owning byte buffer. The library's lingua franca for keys, digests,
/// ciphertexts, and serialized messages.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning read-only view of bytes; use at API boundaries.
using BytesView = std::span<const std::uint8_t>;

/// Render `data` as lowercase hex ("deadbeef").
std::string to_hex(BytesView data);

/// Parse lowercase/uppercase hex into bytes.
/// Throws std::invalid_argument on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Copy a string's bytes into a buffer (no encoding applied).
Bytes bytes_of(std::string_view text);

/// Compare two buffers in time independent of where they differ.
/// Still leaks length inequality, which is fine for MAC/digest checks.
bool constant_time_equal(BytesView a, BytesView b) noexcept;

/// Append `tail` to `head` and return the result.
Bytes concat(BytesView head, BytesView tail);

/// Best-effort zeroization of key material before release.
void secure_wipe(Bytes& data) noexcept;

/// Raw-buffer overload for caller-owned scratch (e.g. CBC decrypt output).
void secure_wipe(std::uint8_t* data, std::size_t size) noexcept;

/// Fixed-array overload for key schedules (a cipher's round keys).
template <typename T, std::size_t N>
void secure_wipe(std::array<T, N>& data) noexcept {
  secure_wipe(reinterpret_cast<std::uint8_t*>(data.data()), sizeof(data));
}

}  // namespace keygraphs
