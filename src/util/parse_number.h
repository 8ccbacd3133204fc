// The one number scanner shared by the text importers (.wl workloads and
// .csv traces), so both formats accept exactly the same numeric syntax.
//
// Accepted: what std::from_chars accepts in general format (decimal digits,
// optional fraction and exponent, leading '-') plus one leading '+' and
// leading C-locale whitespace, which keeps the syntax std::stod used to
// accept.  Rejected: hex ("0x10" is trailing junk after "0"), values that
// overflow or underflow to a subnormal (both "bad"), and NaN/infinity
// ("must be finite").
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace dagsched {

enum class NumberStatus {
  kOk,
  kBad,           // no number at the start, or out of the normal range
  kTrailingJunk,  // a number followed by other characters
  kNotFinite,     // NaN or infinity
};

/// Parses all of `text` as a finite double in the normal range (or zero).
NumberStatus parse_finite_double(std::string_view text, double& value);

/// The diagnostic for a failed parse, e.g. "bad work 'x'" or
/// "trailing junk in work '5x'"; `what` names the field.
std::string number_diagnostic(NumberStatus status, std::string_view what,
                              std::string_view text);

}  // namespace dagsched
