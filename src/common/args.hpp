// Minimal command-line argument parser for the tools and examples:
// supports --key value, --key=value, and boolean --flag forms, with strict
// typed accessors and unknown-argument detection.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace tcmp {

class ArgParser {
 public:
  /// Parse argv; returns false (and fills error()) on malformed input.
  bool parse(int argc, const char* const* argv);

  /// The key was given, with or without a value.
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key) || valueless_.contains(key);
  }
  /// The key's value, `fallback` when the key is absent. A key given with
  /// no value (a trailing `--key`, or one followed by another option) also
  /// reads as `fallback`, and joins rejected().
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// Typed values, read like get(). A value that is not entirely a number
  /// of the type (trailing junk, no digits, out of the type's range) also
  /// reads as `fallback`, and its key joins rejected().
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] long get_long(const std::string& key, long fallback) const;
  /// Keys whose value get/get_double/get_long refused, so a tool can name
  /// them.
  [[nodiscard]] const std::set<std::string>& rejected() const { return rejected_; }
  /// Why the first rejected() key was refused, as "--key: reason" ("" when
  /// nothing was).
  [[nodiscard]] std::string rejection() const;
  /// --flag with no value (or =true/=false).
  [[nodiscard]] bool get_flag(const std::string& key) const;

  /// Non-flag positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Keys that were provided but are not in `known` (for usage errors).
  [[nodiscard]] std::vector<std::string> unknown_keys(
      const std::set<std::string>& known) const;

 private:
  void set_value(const std::string& key, std::string value);
  /// The value given for `key`: nullptr when absent, or valueless (which
  /// joins rejected()).
  [[nodiscard]] const std::string* value_of(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> valueless_;
  std::vector<std::string> positional_;
  std::string error_;
  mutable std::set<std::string> rejected_;
};

/// The number `text` spells when all of it parses and is in the range of a
/// double; nullopt for trailing junk, no digits or a range error.
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

}  // namespace tcmp
