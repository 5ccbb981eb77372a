#pragma once

// Small string utilities shared across modules.

#include <string>
#include <string_view>
#include <vector>

namespace tp::common {

std::vector<std::string> split(std::string_view s, char sep);
std::string trim(std::string_view s);
bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Format a double compactly for tables ("12.34", "0.001", "1.2e+09").
std::string formatDouble(double v, int precision = 4);

/// Render "12345678" as "12,345,678" for human-readable table output.
std::string withThousands(long long v);

}  // namespace tp::common
