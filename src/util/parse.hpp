#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace lcl {

/// Parses `text` as a decimal number that fits 64 bits: one or more ASCII
/// digits and nothing else, so no sign, no blanks and no suffix. Sets `out`
/// and returns true on success; leaves `out` alone and returns false
/// otherwise. Header-only, so the transport layer can use it without
/// linking `lcl_util`.
inline bool parse_u64(std::string_view text, std::uint64_t& out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return false;
  out = value;
  return true;
}

}  // namespace lcl
