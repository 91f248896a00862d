#include "core/cli_parse.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {

[[noreturn]] void reject(const char* flag, const std::string& text,
                         const char* why) {
  const std::string msg = std::string(flag) + ": " + why + ": \"" + text + "\"";
  PARATICK_CHECK_MSG(false, msg.c_str());
  std::abort();  // unreachable; PARATICK_CHECK_MSG throws
}

[[noreturn]] void usage_exit(const std::string& program, const std::string& msg,
                             const std::string& listing) {
  std::fprintf(stderr, "%s: %s\n%s", program.c_str(), msg.c_str(),
               listing.c_str());
  std::exit(2);
}

}  // namespace

std::uint64_t parse_u64_flag(const char* flag, const std::string& text,
                             std::uint64_t max_value, int base,
                             std::uint64_t min_value) {
  if (text.empty()) reject(flag, text, "expected a number, got empty value");
  // strtoull happily parses "-3" by wrapping it to 2^64-3; for a flag
  // that counts things that is never what the user meant.
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '-') {
      reject(flag, text, "expected a non-negative integer");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (end == text.c_str() || *end != '\0') {
    reject(flag, text, "not a valid integer");
  }
  if (errno == ERANGE || v > max_value) {
    reject(flag, text, "value out of range");
  }
  if (v < min_value) {
    reject(flag, text, ("value must be >= " + std::to_string(min_value)).c_str());
  }
  return v;
}

double parse_double_flag(const char* flag, const std::string& text,
                         double min_value) {
  if (text.empty()) reject(flag, text, "expected a number, got empty value");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    reject(flag, text, "not a valid number");
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    reject(flag, text, "value out of range");
  }
  if (v < min_value) reject(flag, text, "value must not be negative");
  return v;
}

CliFlag switch_flag(std::string name, const char* help, bool& out, bool to) {
  return {std::move(name), nullptr, help,
          [&out, to](const std::string&) { out = to; }};
}

CliFlag text_flag(std::string name, const char* value, const char* help,
                  std::string& out) {
  return {std::move(name), value, help,
          [&out](const std::string& v) { out = v; }};
}

CliFlag double_flag(std::string name, const char* value, const char* help,
                    double& out, double min) {
  return {name, value, help, [name, &out, min](const std::string& v) {
            out = parse_double_flag(name.c_str(), v, min);
          }};
}

std::string cli_listing(const std::string& program,
                        const std::vector<CliFlag>& flags,
                        const std::vector<CliSlot>& slots) {
  std::string out = "usage: " + program + " [flags]";
  for (const CliSlot& slot : slots) {
    if (slot.after_dashdash) out += " --";
    out += slot.required ? " <" : " [";
    out += slot.name;
    out += slot.required ? ">" : "]";
    if (slot.repeats) out += "...";
  }
  out += '\n';
  for (const CliSlot& slot : slots) {
    if (slot.choices.empty()) continue;
    out += "  " + slot.name + ":";
    for (const std::string& c : slot.choices) out += " " + c;
    out += '\n';
  }
  out += "flags:\n";
  const auto spelled = [](const CliFlag& f) {
    return f.value == nullptr ? f.name : f.name + " " + f.value;
  };
  std::size_t width = 6;  // "--help"
  for (const CliFlag& f : flags) {
    if (f.help != nullptr) width = std::max(width, spelled(f).size());
  }
  const auto line = [&](const std::string& flag, const char* help) {
    out += "  " + flag + std::string(width - flag.size() + 2, ' ') + help + '\n';
  };
  for (const CliFlag& f : flags) {
    if (f.help != nullptr) line(spelled(f), f.help);
  }
  line("--help", "print this listing and exit");
  return out;
}

std::vector<std::string> parse_cli(int argc, char** argv,
                                   const std::vector<CliFlag>& flags,
                                   const std::vector<CliSlot>& slots) {
  std::string program = argc > 0 ? argv[0] : "?";
  program = program.substr(program.rfind('/') + 1);
  const auto listing = [&] { return cli_listing(program, flags, slots); };

  std::vector<std::string> positional;
  try {
    bool flags_done = false;
    std::size_t before_dashdash = 0;  // positionals seen before `--`
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (flags_done || arg.size() < 2 || arg[0] != '-') {
        positional.push_back(arg);
        if (!flags_done) before_dashdash = positional.size();
        continue;
      }
      if (arg == "--") {
        flags_done = true;
        continue;
      }
      if (arg == "--help") {
        std::fputs(listing().c_str(), stdout);
        std::exit(0);
      }
      const CliFlag* flag = nullptr;
      std::string value;
      bool attached = false;
      for (const CliFlag& f : flags) {
        if (arg == f.name) {
          flag = &f;
          break;
        }
        if (f.value != nullptr && f.name.size() == 2 && f.name[1] != '-' &&
            arg.starts_with(f.name)) {
          flag = &f;
          value = arg.substr(2);
          attached = true;
          break;
        }
      }
      if (flag == nullptr) {
        usage_exit(program, "unknown flag " + arg, listing());
      }
      if (flag->value != nullptr && !attached) {
        if (i + 1 >= argc) {
          usage_exit(program, flag->name + " requires a value", listing());
        }
        value = argv[++i];
      }
      flag->set(value);
    }

    std::size_t slot = 0;    // slot the next positional goes to
    std::size_t filled = 0;  // slots holding at least one value
    for (std::size_t j = 0; j < positional.size(); ++j) {
      const std::string& v = positional[j];
      if (slot >= slots.size()) {
        usage_exit(program, "unexpected argument '" + v + "'", listing());
      }
      const CliSlot& s = slots[slot];
      if (s.after_dashdash && j < before_dashdash) {
        usage_exit(program, s.name + " must follow -- (got '" + v + "')",
                   listing());
      }
      if (!s.choices.empty() &&
          std::find(s.choices.begin(), s.choices.end(), v) == s.choices.end()) {
        usage_exit(program, "unknown " + s.name + " '" + v + "'", listing());
      }
      if (s.set) s.set(v);
      filled = slot + 1;
      if (!s.repeats) ++slot;
    }
    for (std::size_t k = filled; k < slots.size(); ++k) {
      if (slots[k].required) {
        usage_exit(program, "missing " + slots[k].name, listing());
      }
    }
  } catch (const sim::SimError& e) {
    usage_exit(program, e.msg(), listing());
  }
  return positional;
}

}  // namespace paratick::core
