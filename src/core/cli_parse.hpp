// Command-line parsing: checked numeric values and the one table-driven
// argv parser every bench and example binary goes through.
//
// The strtoul/strtod family silently returns 0 on garbage when called
// with a null endptr, so `-j garbage` or `--seed 0xzz` used to parse as
// 0 and quietly reconfigure the sweep. The parse_*_flag helpers reject
// empty input, trailing garbage, out-of-range values, and negative
// numbers for unsigned flags by throwing sim::SimError (kCheck) with the
// flag name and offending text in the message.
//
// parse_cli() walks argv against a binary's table of flags and
// positional slots. A flag setter or slot setter that throws SimError,
// an unknown flag, a missing value, or a positional that fits no slot
// prints the problem plus the table's listing on stderr and exits 2;
// `--help` prints the listing on stdout and exits 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace paratick::core {

/// Parse an unsigned integer flag value. base 10 by default; base 0
/// accepts 0x-prefixed hex (--seed). Rejects empty/garbage/trailing
/// junk, leading '-', and values outside [min_value, max_value].
[[nodiscard]] std::uint64_t parse_u64_flag(
    const char* flag, const std::string& text,
    std::uint64_t max_value = ~0ull, int base = 10,
    std::uint64_t min_value = 0);

/// Parse a finite double flag value (rejects empty/garbage/trailing
/// junk, inf/nan, and anything below `min_value`).
[[nodiscard]] double parse_double_flag(const char* flag,
                                       const std::string& text,
                                       double min_value = 0.0);

/// One flag of a binary's command line. A switch (`value == nullptr`)
/// takes no argument and its setter gets ""; any other flag takes the
/// next argument. A single-dash name (`-j`) also takes an attached
/// value (`-j4`). `help == nullptr` hides the flag from the listing.
struct CliFlag {
  std::string name;             // "--repeat", "-j"
  const char* value = nullptr;  // placeholder in the listing: "N", "P"
  const char* help = nullptr;
  std::function<void(const std::string&)> set;
};

/// Table entries for the common shapes: a switch that stores `to`, a
/// text value, a checked finite double (at least `min`) and a checked
/// unsigned count (in [min, max]; base 0 also takes 0x hex).
[[nodiscard]] CliFlag switch_flag(std::string name, const char* help, bool& out,
                                  bool to = true);
[[nodiscard]] CliFlag text_flag(std::string name, const char* value,
                                const char* help, std::string& out);
[[nodiscard]] CliFlag double_flag(std::string name, const char* value,
                                  const char* help, double& out,
                                  double min = 0.0);
template <typename T>
[[nodiscard]] CliFlag uint_flag(
    std::string name, const char* value, const char* help, T& out,
    std::uint64_t min = 0,
    std::uint64_t max = static_cast<std::uint64_t>(std::numeric_limits<T>::max()),
    int base = 10) {
  return {name, value, help, [name, &out, min, max, base](const std::string& v) {
            out = static_cast<T>(parse_u64_flag(name.c_str(), v, max, base, min));
          }};
}

/// One positional slot. A value must be one of `choices` unless that is
/// empty. A `repeats` slot (the last one) takes every remaining value.
/// `set`, if given, converts or checks each value. An `after_dashdash`
/// slot takes only values that follow `--`, so a command line that
/// leaves `--` out cannot hand the slot's flags to this binary.
struct CliSlot {
  std::string name;  // "benchmark", "size"
  std::vector<std::string> choices = {};
  bool required = false;
  bool repeats = false;
  std::function<void(const std::string&)> set = {};
  bool after_dashdash = false;
};

/// The --help text: a usage line naming the slots, each slot's choices,
/// then one line per visible flag (including --help itself).
[[nodiscard]] std::string cli_listing(const std::string& program,
                                      const std::vector<CliFlag>& flags,
                                      const std::vector<CliSlot>& slots);

/// Parse argv[1..argc) against the table and return the positionals in
/// order. Flags may appear anywhere before `--`; everything after it is
/// positional. Exits 0 on --help and 2 on any usage error (see above).
std::vector<std::string> parse_cli(int argc, char** argv,
                                   const std::vector<CliFlag>& flags,
                                   const std::vector<CliSlot>& slots = {});

}  // namespace paratick::core
