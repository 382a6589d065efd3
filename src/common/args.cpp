#include "common/args.hpp"

#include <cerrno>
#include <cstdlib>
#include <utility>

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
    // "--key=value"; "--key value" when the next token is not an option;
    // "--flag" otherwise. A repeated key keeps its last form.
    if (eq != std::string::npos) {
      set_value(body.substr(0, eq), body.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      set_value(body, argv[++i]);
    } else {
      values_.erase(body);
      valueless_.insert(body);
    }
  }
  return true;
}

void ArgParser::set_value(const std::string& key, std::string value) {
  valueless_.erase(key);
  values_[key] = std::move(value);
}

const std::string* ArgParser::value_of(const std::string& key) const {
  if (valueless_.contains(key)) rejected_.insert(key);
  const auto it = values_.find(key);
  return it != values_.end() ? &it->second : nullptr;
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  const std::string* v = value_of(key);
  return v != nullptr ? *v : fallback;
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

std::optional<double> parse_double(const std::string& text) {
  double v = 0;
  if (parse_whole(text, [](const char* s, char** e) { return std::strtod(s, e); }, v)) {
    return v;
  }
  return std::nullopt;
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const std::string* text = value_of(key);
  if (text == nullptr) return fallback;
  if (const std::optional<double> v = parse_double(*text)) return *v;
  rejected_.insert(key);
  return fallback;
}

long ArgParser::get_long(const std::string& key, long fallback) const {
  const std::string* text = value_of(key);
  if (text == nullptr) return fallback;
  long v = 0;
  if (parse_whole(*text, [](const char* s, char** e) { return std::strtol(s, e, 10); }, v)) {
    return v;
  }
  rejected_.insert(key);
  return fallback;
}

std::string ArgParser::rejection() const {
  if (rejected_.empty()) return "";
  const std::string& key = *rejected_.begin();
  return "--" + key +
         (valueless_.contains(key)
              ? ": needs a value"
              : ": not a number of the option's type, or out of its range");
}

bool ArgParser::get_flag(const std::string& key) const {
  if (valueless_.contains(key)) return true;
  auto it = values_.find(key);
  return it != values_.end() && it->second != "false" && it->second != "0";
}

std::vector<std::string> ArgParser::unknown_keys(
    const std::set<std::string>& known) const {
  std::set<std::string> given = valueless_;
  for (const auto& [k, v] : values_) given.insert(k);
  std::vector<std::string> out;
  for (const auto& k : given) {
    if (!known.contains(k)) out.push_back(k);
  }
  return out;
}

}  // namespace tcmp
