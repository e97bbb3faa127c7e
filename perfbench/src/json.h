#pragma once

#include <cmath>
#include <cstdio>
#include <string>

/// \file json.h
/// Minimal JSON scalar formatting for the benchmark's output.

namespace perfbench {

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
