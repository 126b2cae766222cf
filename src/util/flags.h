#ifndef YVER_UTIL_FLAGS_H_
#define YVER_UTIL_FLAGS_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>

namespace yver::util {

/// The command-line flags of one `yver_cli` subcommand: `--name value` or
/// `--name` (boolean). Every lookup marks its flag as read; once the
/// subcommand has read all it understands, RejectUnread() turns any flag
/// left over (a removed knob, a typo) into exit 2 naming it, instead of a
/// run with defaults and no warning. Malformed input exits 2 as well.
class Flags {
 public:
  /// Parses argv[first..argc). A bare argument that is not a flag value
  /// exits 2.
  Flags(int argc, char** argv, int first);

  bool Has(const std::string& name) const;
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const;
  /// Get, but a missing flag exits 2 naming it.
  std::string Require(const std::string& name) const;

  /// Overwrites `*field` with the flag's value when the flag is given and
  /// leaves it alone otherwise, so the field's current value — usually the
  /// library's default — is the fallback. The whole value must parse as a
  /// T: text, trailing junk, a sign on an unsigned field, or a value
  /// outside T's range exits 2 with a message naming the flag.
  template <typename T>
  void Parse(const std::string& name, T* field) const {
    read_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end()) return;
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    T value{};
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) {
      std::string expected = "a number";
      if constexpr (std::is_integral_v<T>) {
        expected = "an integer in [" +
                   std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]";
      }
      std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
                   name.c_str(), text.c_str(), expected.c_str());
      std::exit(2);
    }
    *field = value;
  }

  /// Parse for a local: the flag's value, or `fallback` when absent.
  template <typename T>
  T Value(const std::string& name, T fallback) const {
    Parse(name, &fallback);
    return fallback;
  }

  /// Exits 2, naming each one, when a given flag was never looked up.
  void RejectUnread() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace yver::util

#endif  // YVER_UTIL_FLAGS_H_
