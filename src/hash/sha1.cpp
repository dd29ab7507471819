#include "src/hash/sha1.h"

#include <algorithm>
#include <cstring>

namespace mendel::hashing {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

}  // namespace

Sha1::Sha1() { reset(); }

void Sha1::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  buffered_ = 0;
  total_bits_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha1::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha1Digest Sha1::finish() {
  // Padding, written straight into the block buffer: 0x80, zeros up to
  // byte 56 of the final block (spilling into one more block when fewer
  // than 8 bytes remain), then the 64-bit big-endian message bit length.
  // update() flushes full blocks, so at least one buffer byte is free.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
              buffer_.end(), std::uint8_t{0});
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
            buffer_.begin() + 56, std::uint8_t{0});
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  buffered_ = 0;

  Sha1Digest digest;
  for (std::size_t i = 0; i < 5; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  for (int t = 16; t < 80; ++t) {
    w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];
  for (int t = 0; t < 80; ++t) {
    std::uint32_t f, k;
    if (t < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5a827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdcu;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6u;
    }
    const std::uint32_t temp = rotl(a, 5) + f + e + w[t] + k;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

Sha1Digest sha1(std::span<const std::uint8_t> data) {
  Sha1 hasher;
  hasher.update(data);
  return hasher.finish();
}

Sha1Digest sha1(std::string_view data) {
  Sha1 hasher;
  hasher.update(data);
  return hasher.finish();
}

std::uint64_t sha1_prefix64(std::span<const std::uint8_t> data) {
  const Sha1Digest digest = sha1(data);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value = (value << 8) | digest[static_cast<std::size_t>(i)];
  }
  return value;
}

std::uint64_t sha1_prefix64(std::string_view data) {
  return sha1_prefix64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

std::string to_hex(const Sha1Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace mendel::hashing
