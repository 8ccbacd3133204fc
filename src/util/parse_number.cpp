#include "util/parse_number.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

namespace dagsched {

NumberStatus parse_finite_double(std::string_view text, double& value) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  // from_chars rejects a leading '+'; strip one, but not before a sign.
  if (text.size() >= 2 && text[0] == '+' && text[1] != '-' &&
      text[1] != '+') {
    text.remove_prefix(1);
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{}) return NumberStatus::kBad;
  if (ptr != end) return NumberStatus::kTrailingJunk;
  if (!std::isfinite(value)) return NumberStatus::kNotFinite;
  if (value != 0.0 &&
      std::abs(value) < std::numeric_limits<double>::min()) {
    return NumberStatus::kBad;  // subnormal
  }
  return NumberStatus::kOk;
}

std::string number_diagnostic(NumberStatus status, std::string_view what,
                              std::string_view text) {
  const std::string quoted = " '" + std::string(text) + "'";
  switch (status) {
    case NumberStatus::kOk: break;
    case NumberStatus::kBad: return "bad " + std::string(what) + quoted;
    case NumberStatus::kTrailingJunk:
      return "trailing junk in " + std::string(what) + quoted;
    case NumberStatus::kNotFinite:
      return std::string(what) + " must be finite, got" + quoted;
  }
  return {};
}

}  // namespace dagsched
