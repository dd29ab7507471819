// Binary serialization for network messages and index persistence.
//
// A deliberately simple, explicit little-endian codec: fixed-width integers,
// varint-free, length-prefixed containers. Every message type in src/net and
// every persisted index structure implements encode(Writer&) /
// decode(Reader&) pairs against this interface. The format is stable across
// platforms because widths and byte order are pinned.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/error.h"

namespace mendel {

class CodecWriter {
 public:
  CodecWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  // Appends pre-encoded bytes verbatim (no length prefix) — splices a
  // shared encoded fragment into a larger message.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  // Length-prefixed vector of encodable elements.
  template <typename T, typename Fn>
  void vec(const std::vector<T>& items, Fn&& encode_one) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) encode_one(*this, item);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class CodecReader {
 public:
  explicit CodecReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Strict: only 0/1 are valid. Accepting any nonzero byte would decode
  // 0x02 to the same value as 0x01, breaking the decode∘encode byte
  // identity the fuzz harnesses pin.
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw DecodeError("CodecReader: non-canonical boolean byte " +
                        std::to_string(v));
    }
    return v != 0;
  }

  std::vector<std::uint8_t> bytes() {
    const auto n = u32();
    auto s = take(n);
    return {s.begin(), s.end()};
  }

  std::string str() {
    const auto n = u32();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& decode_one) {
    const auto n = u32();
    // Every element in the wire format encodes to at least one byte, so a
    // count exceeding the bytes left is malformed. Validating up front
    // bounds the reserve() below: a forged 0xFFFFFFFF count must not turn
    // into a multi-GB allocation before the first element read fails.
    if (n > remaining()) {
      throw DecodeError("CodecReader: element count " + std::to_string(n) +
                        " exceeds " + std::to_string(remaining()) +
                        " remaining bytes");
    }
    std::vector<T> items;
    items.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) items.push_back(decode_one(*this));
    return items;
  }

  // Consumes `n` verbatim bytes (no length prefix) — the inverse of
  // CodecWriter::raw for sections whose size is framed out of band. The
  // returned span aliases the reader's buffer.
  std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > data_.size() - pos_) {  // no overflow: pos_ <= size always
      throw DecodeError("CodecReader: truncated buffer (need " +
                        std::to_string(n) + " bytes, have " +
                        std::to_string(remaining()) + ")");
    }
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  T read_le() {
    auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(s[i]) << (8 * i));
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mendel
