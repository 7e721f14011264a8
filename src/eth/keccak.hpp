// Keccak-256 — the cryptographic hash used throughout Ethereum (block and
// transaction hashes, address derivation). This is the original Keccak
// padding (0x01), not NIST SHA-3 (0x06), matching what Ethereum deployed.
// Implemented from scratch; validated in tests against published vectors.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ethshard::eth {

/// A 256-bit digest.
using Hash256 = std::array<std::uint8_t, 32>;

/// Keccak-256 of a byte string.
Hash256 keccak256(std::string_view data);

/// Keccak-256 of a byte vector.
Hash256 keccak256(const std::vector<std::uint8_t>& data);

/// Lower-case hex encoding (64 chars, no 0x prefix).
std::string to_hex(const Hash256& h);

/// Parses 64 hex chars (with optional 0x prefix) into a digest.
/// Throws util::CheckFailure on malformed input.
Hash256 hash_from_hex(std::string_view hex);

/// First 8 bytes of the digest as a big-endian integer — convenient for
/// hash-based sharding and tests.
std::uint64_t hash_prefix_u64(const Hash256& h);

/// Incremental Keccak-256 hasher for composite messages (block headers).
class Keccak256 {
 public:
  Keccak256();

  /// Absorbs raw bytes.
  void update(std::string_view data);
  void update(const void* data, std::size_t len);
  /// Absorbs a 64-bit value in little-endian byte order. At a lane
  /// boundary (every offset that is a multiple of 8) this is one lane XOR.
  void update_u64(std::uint64_t v);

  /// Finalizes and returns the digest. The hasher must not be reused.
  Hash256 finalize();

 private:
  void absorb_byte(std::uint8_t b);
  void absorb_lane(std::uint64_t lane);
  void permute();

  // Input is XORed straight into the sponge: byte i of the 136-byte rate
  // (1088 bits) lands in lane i / 8 at bit 8 * (i % 8).
  std::array<std::uint64_t, 25> state_{};
  std::size_t pos_ = 0;  // bytes absorbed into the current rate block
  bool finalized_ = false;
};

}  // namespace ethshard::eth
