#include "eth/keccak.hpp"

#include <bit>

#include "util/check.hpp"

namespace ethshard::eth {

namespace {

constexpr std::size_t kRateBytes = 136;  // Keccak-256: 1600 - 2*256 bits

constexpr std::uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
    0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
    0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// Keccak-f[1600]. Lane (x, y) of the 5x5 state is s[x + 5y]. The 25 lanes
// live in locals for all 24 rounds, and each round is written out with
// constant rotation offsets, so no step indexes memory or computes % 5.
void keccak_f1600(std::array<std::uint64_t, 25>& s) {
  std::uint64_t a00 = s[0], a01 = s[1], a02 = s[2], a03 = s[3], a04 = s[4];
  std::uint64_t a05 = s[5], a06 = s[6], a07 = s[7], a08 = s[8], a09 = s[9];
  std::uint64_t a10 = s[10], a11 = s[11], a12 = s[12], a13 = s[13], a14 = s[14];
  std::uint64_t a15 = s[15], a16 = s[16], a17 = s[17], a18 = s[18], a19 = s[19];
  std::uint64_t a20 = s[20], a21 = s[21], a22 = s[22], a23 = s[23], a24 = s[24];
  for (const std::uint64_t rc : kRoundConstants) {
    // Theta: XOR every lane with the parities of its two neighbouring
    // columns, the right one rotated by 1.
    const std::uint64_t c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20;
    const std::uint64_t c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21;
    const std::uint64_t c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22;
    const std::uint64_t c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23;
    const std::uint64_t c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24;
    const std::uint64_t d0 = c4 ^ std::rotl(c1, 1);
    const std::uint64_t d1 = c0 ^ std::rotl(c2, 1);
    const std::uint64_t d2 = c1 ^ std::rotl(c3, 1);
    const std::uint64_t d3 = c2 ^ std::rotl(c4, 1);
    const std::uint64_t d4 = c3 ^ std::rotl(c0, 1);
    // Rho and pi move lane (x, y), rotated by its fixed offset, to
    // (y, 2x + 3y); chi then mixes each new row as b[x] ^ (~b[x+1] & b[x+2]).
    // Rows are built one at a time, so only five moved lanes are live at
    // once. Iota XORs the round constant into lane (0, 0).
    std::uint64_t b0 = a00 ^ d0;
    std::uint64_t b1 = std::rotl(a06 ^ d1, 44);
    std::uint64_t b2 = std::rotl(a12 ^ d2, 43);
    std::uint64_t b3 = std::rotl(a18 ^ d3, 21);
    std::uint64_t b4 = std::rotl(a24 ^ d4, 14);
    const std::uint64_t e00 = b0 ^ (~b1 & b2) ^ rc;
    const std::uint64_t e01 = b1 ^ (~b2 & b3);
    const std::uint64_t e02 = b2 ^ (~b3 & b4);
    const std::uint64_t e03 = b3 ^ (~b4 & b0);
    const std::uint64_t e04 = b4 ^ (~b0 & b1);
    b0 = std::rotl(a03 ^ d3, 28);
    b1 = std::rotl(a09 ^ d4, 20);
    b2 = std::rotl(a10 ^ d0, 3);
    b3 = std::rotl(a16 ^ d1, 45);
    b4 = std::rotl(a22 ^ d2, 61);
    const std::uint64_t e05 = b0 ^ (~b1 & b2);
    const std::uint64_t e06 = b1 ^ (~b2 & b3);
    const std::uint64_t e07 = b2 ^ (~b3 & b4);
    const std::uint64_t e08 = b3 ^ (~b4 & b0);
    const std::uint64_t e09 = b4 ^ (~b0 & b1);
    b0 = std::rotl(a01 ^ d1, 1);
    b1 = std::rotl(a07 ^ d2, 6);
    b2 = std::rotl(a13 ^ d3, 25);
    b3 = std::rotl(a19 ^ d4, 8);
    b4 = std::rotl(a20 ^ d0, 18);
    const std::uint64_t e10 = b0 ^ (~b1 & b2);
    const std::uint64_t e11 = b1 ^ (~b2 & b3);
    const std::uint64_t e12 = b2 ^ (~b3 & b4);
    const std::uint64_t e13 = b3 ^ (~b4 & b0);
    const std::uint64_t e14 = b4 ^ (~b0 & b1);
    b0 = std::rotl(a04 ^ d4, 27);
    b1 = std::rotl(a05 ^ d0, 36);
    b2 = std::rotl(a11 ^ d1, 10);
    b3 = std::rotl(a17 ^ d2, 15);
    b4 = std::rotl(a23 ^ d3, 56);
    const std::uint64_t e15 = b0 ^ (~b1 & b2);
    const std::uint64_t e16 = b1 ^ (~b2 & b3);
    const std::uint64_t e17 = b2 ^ (~b3 & b4);
    const std::uint64_t e18 = b3 ^ (~b4 & b0);
    const std::uint64_t e19 = b4 ^ (~b0 & b1);
    b0 = std::rotl(a02 ^ d2, 62);
    b1 = std::rotl(a08 ^ d3, 55);
    b2 = std::rotl(a14 ^ d4, 39);
    b3 = std::rotl(a15 ^ d0, 41);
    b4 = std::rotl(a21 ^ d1, 2);
    const std::uint64_t e20 = b0 ^ (~b1 & b2);
    const std::uint64_t e21 = b1 ^ (~b2 & b3);
    const std::uint64_t e22 = b2 ^ (~b3 & b4);
    const std::uint64_t e23 = b3 ^ (~b4 & b0);
    const std::uint64_t e24 = b4 ^ (~b0 & b1);
    a00 = e00; a01 = e01; a02 = e02; a03 = e03; a04 = e04;
    a05 = e05; a06 = e06; a07 = e07; a08 = e08; a09 = e09;
    a10 = e10; a11 = e11; a12 = e12; a13 = e13; a14 = e14;
    a15 = e15; a16 = e16; a17 = e17; a18 = e18; a19 = e19;
    a20 = e20; a21 = e21; a22 = e22; a23 = e23; a24 = e24;
  }
  s[0] = a00; s[1] = a01; s[2] = a02; s[3] = a03; s[4] = a04;
  s[5] = a05; s[6] = a06; s[7] = a07; s[8] = a08; s[9] = a09;
  s[10] = a10; s[11] = a11; s[12] = a12; s[13] = a13; s[14] = a14;
  s[15] = a15; s[16] = a16; s[17] = a17; s[18] = a18; s[19] = a19;
  s[20] = a20; s[21] = a21; s[22] = a22; s[23] = a23; s[24] = a24;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Keccak256::Keccak256() = default;

void Keccak256::permute() {
  keccak_f1600(state_);
  pos_ = 0;
}

void Keccak256::absorb_byte(std::uint8_t b) {
  state_[pos_ / 8] ^= std::uint64_t{b} << (8 * (pos_ % 8));
  if (++pos_ == kRateBytes) permute();
}

void Keccak256::absorb_lane(std::uint64_t lane) {
  state_[pos_ / 8] ^= lane;
  pos_ += 8;
  if (pos_ == kRateBytes) permute();
}

void Keccak256::update(const void* data, std::size_t len) {
  ETHSHARD_CHECK(!finalized_);
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::uint8_t* const end = p + len;
  while (p != end && pos_ % 8 != 0) absorb_byte(*p++);
  for (; end - p >= 8; p += 8) {
    std::uint64_t lane = 0;
    for (int b = 0; b < 8; ++b) lane |= std::uint64_t{p[b]} << (8 * b);
    absorb_lane(lane);
  }
  while (p != end) absorb_byte(*p++);
}

void Keccak256::update(std::string_view data) {
  update(data.data(), data.size());
}

void Keccak256::update_u64(std::uint64_t v) {
  ETHSHARD_CHECK(!finalized_);
  if (pos_ % 8 == 0) {
    absorb_lane(v);
    return;
  }
  for (int b = 0; b < 8; ++b)
    absorb_byte(static_cast<std::uint8_t>(v >> (8 * b)));
}

Hash256 Keccak256::finalize() {
  ETHSHARD_CHECK(!finalized_);
  finalized_ = true;
  // Original Keccak padding: 0x01 .. 0x80 (multi-rate pad10*1). pos_ is
  // below the rate here, since a full rate block is permuted at once.
  state_[pos_ / 8] ^= std::uint64_t{0x01} << (8 * (pos_ % 8));
  state_[kRateBytes / 8 - 1] ^= std::uint64_t{0x80} << 56;
  keccak_f1600(state_);

  Hash256 out;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t lane = state_[i];
    for (int b = 0; b < 8; ++b)
      out[i * 8 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(lane >> (8 * b));
  }
  return out;
}

Hash256 keccak256(std::string_view data) {
  Keccak256 h;
  h.update(data);
  return h.finalize();
}

Hash256 keccak256(const std::vector<std::uint8_t>& data) {
  Keccak256 h;
  h.update(data.data(), data.size());
  return h.finalize();
}

std::string to_hex(const Hash256& h) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : h) {
    out += digits[b >> 4];
    out += digits[b & 0xF];
  }
  return out;
}

Hash256 hash_from_hex(std::string_view hex) {
  if (hex.substr(0, 2) == "0x" || hex.substr(0, 2) == "0X") hex.remove_prefix(2);
  ETHSHARD_CHECK_MSG(hex.size() == 64, "expected 64 hex chars");
  Hash256 out;
  for (std::size_t i = 0; i < 32; ++i) {
    const int hi = hex_digit(hex[2 * i]);
    const int lo = hex_digit(hex[2 * i + 1]);
    ETHSHARD_CHECK_MSG(hi >= 0 && lo >= 0, "invalid hex digit");
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return out;
}

std::uint64_t hash_prefix_u64(const Hash256& h) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | h[static_cast<std::size_t>(i)];
  return v;
}

}  // namespace ethshard::eth
