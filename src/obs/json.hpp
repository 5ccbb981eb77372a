#pragma once

// obs-internal JSON writer shared by the metrics exposition, the Chrome
// trace and the postmortem bundle.

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

namespace tp::obs {

/// `s` as the body of a JSON string literal (quotes not included).
inline std::string escapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char code[8];
          std::snprintf(code, sizeof code, "\\u%04x", static_cast<unsigned>(c));
          out += code;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `v` at round-trip precision (the stream's own precision is restored);
/// non-finite values print as 0, since JSON has no inf/nan.
inline void appendDouble(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "0";
    return;
  }
  const std::streamsize precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  os.precision(precision);
}

}  // namespace tp::obs
