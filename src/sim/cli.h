// Strict command-line flag parsing shared by the mdw_workload and mdw_sweep
// CLIs.
//
// A numeric flag value must parse as a whole and fit its destination type:
// "--seed=xyz", "--think=12abc", "--coalesce=-1" (into an unsigned field) or
// an out-of-range integer are all rejected.  Every rejection exits 2 after
// printing "<argv0>: <why>" (naming the flag) and the CLI's usage text.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace mdw::cli {

/// Parse all of `text` as a T.  False (and `out` untouched) when the text is
/// empty, carries anything after the number, does not fit T (a sign on an
/// unsigned T included), or, for floating-point T, is not finite.
template <class T>
[[nodiscard]] bool parse_number(const std::string& text, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T v{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc{} || ptr != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

/// A mesh shape "K" (K x K) or "WxH", both sides positive.
[[nodiscard]] inline bool parse_mesh(const std::string& text, int& w, int& h) {
  const std::size_t x = text.find('x');
  int pw = 0;
  int ph = 0;
  if (x == std::string::npos) {
    if (!parse_number(text, pw)) return false;
    ph = pw;
  } else if (!parse_number(text.substr(0, x), pw) ||
             !parse_number(text.substr(x + 1), ph)) {
    return false;
  }
  if (pw <= 0 || ph <= 0) return false;
  w = pw;
  h = ph;
  return true;
}

/// One CLI's flag reader: `usage` prints that CLI's help text.
class FlagParser {
public:
  FlagParser(const char* argv0, void (*usage)(const char* argv0))
      : argv0_(argv0), usage_(usage) {}

  /// Print "<argv0>: <why>" and the usage text, then exit 2.
  [[noreturn]] void die(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n\n", argv0_, why.c_str());
    usage_(argv0_);
    std::exit(2);
  }

  /// `arg` is "<key>=<value>": store the value and return true.
  bool flag(const std::string& arg, const char* key, std::string& out) const {
    const std::string k = std::string(key) + "=";
    if (arg.rfind(k, 0) != 0) return false;
    out = arg.substr(k.size());
    return true;
  }

  /// `arg` is "<key>=<value>": parse the value strictly into `out` (or die
  /// naming the flag) and return true.
  template <class T>
    requires std::is_arithmetic_v<T>
  bool flag(const std::string& arg, const char* key, T& out) const {
    std::string v;
    if (!flag(arg, key, v)) return false;
    number(key, v, out);
    return true;
  }

  /// Parse `text`, a value given to flag `key`, strictly into `out`, or die
  /// naming the flag and the accepted range.
  template <class T>
  void number(const char* key, const std::string& text, T& out) const {
    if (parse_number(text, out)) return;
    std::string expected = "a finite number";
    if constexpr (std::is_integral_v<T>) {
      expected = "an integer in [" +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "]";
    }
    die(std::string("bad ") + key + " value '" + text + "' (expected " +
        expected + ")");
  }

private:
  const char* argv0_;
  void (*usage_)(const char* argv0);
};

} // namespace mdw::cli
