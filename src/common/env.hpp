// Environment-variable reader used by benches to scale workload sizes
// (e.g. TCMP_SCALE=0.25 for a quick smoke run) without rebuilding. The one
// sanctioned getenv wrapper (tcmplint ambient-nondeterminism).
#pragma once

#include <cstdlib>
#include <optional>

#include "common/args.hpp"

namespace tcmp {

/// Environment variable `name` as a number: `fallback` when unset or empty,
/// nullopt when its value is not entirely a number (parse_double, the rule
/// ArgParser applies to numeric options).
[[nodiscard]] inline std::optional<double> env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_double(v);
}

}  // namespace tcmp
