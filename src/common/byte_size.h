// Byte-count parsing for size overrides such as MENDEL_ARENA_BUDGET.
#pragma once

#include <charconv>
#include <cstddef>
#include <limits>
#include <optional>
#include <string_view>

namespace mendel {

// Parses "<digits>[k|m|g]" (binary multiples, either case). Rejects signs,
// whitespace, anything after the suffix, and values that do not fit in
// size_t.
inline std::optional<std::size_t> parse_byte_size(std::string_view text) {
  // from_chars takes no sign, whitespace or base prefix, and reports
  // overflow instead of saturating.
  std::size_t value = 0;
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc()) return std::nullopt;
  unsigned shift = 0;
  if (end != last) {
    if (last - end != 1) return std::nullopt;
    switch (*end) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      default: return std::nullopt;
    }
  }
  if (value > (std::numeric_limits<std::size_t>::max() >> shift)) {
    return std::nullopt;
  }
  return value << shift;
}

}  // namespace mendel
