#include "common/args.hpp"

#include <cerrno>
#include <cstdlib>

namespace tcmp {

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (arg.size() == 2) {
      error_ = "bare '--' is not supported";
      return false;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not an option; "--flag" otherwise.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
  return true;
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

namespace {

/// `parse(text, &end)` read all of `text` without a range error.
template <typename T, typename Parse>
bool parse_whole(const std::string& text, Parse parse, T& out) {
  char* end = nullptr;
  errno = 0;
  out = parse(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && errno != ERANGE;
}

}  // namespace

double ArgParser::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double v = 0;
  if (parse_whole(it->second, [](const char* s, char** e) { return std::strtod(s, e); }, v)) {
    return v;
  }
  rejected_.insert(key);
  return fallback;
}

long ArgParser::get_long(const std::string& key, long fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  long v = 0;
  if (parse_whole(it->second, [](const char* s, char** e) { return std::strtol(s, e, 10); }, v)) {
    return v;
  }
  rejected_.insert(key);
  return fallback;
}

bool ArgParser::get_flag(const std::string& key) const {
  auto it = values_.find(key);
  return it != values_.end() && it->second != "false" && it->second != "0";
}

std::vector<std::string> ArgParser::unknown_keys(
    const std::set<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (!known.contains(k)) out.push_back(k);
  }
  return out;
}

}  // namespace tcmp
