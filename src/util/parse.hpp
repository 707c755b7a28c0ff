#pragma once
//
// Strict number parsing for settings: environment variables and CLI flags.
// A setting either parses as a whole or is rejected; "4x", " 4", "+4" and
// "" are never read as 4 or 0.
//
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace cmesolve::util {

/// `text` as a T when the whole string is one decimal number that fits in
/// T: digits with an optional leading '-' (rejected for unsigned T), and
/// for floating point the std::from_chars general format, finite values
/// only. No whitespace, no '+', nothing after the number; nullopt for
/// anything else.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) noexcept {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

/// The environment variable `name` through parse_number; nullopt when it is
/// unset or does not parse.
template <typename T>
[[nodiscard]] std::optional<T> env_number(const char* name) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return parse_number<T>(v);
}

}  // namespace cmesolve::util
