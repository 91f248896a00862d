#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/sweep.hpp"
#include "expect_error.hpp"
#include "sim/check.hpp"

namespace paratick::core {
namespace {

// ---- parse_u64_flag ------------------------------------------------------

TEST(ParseU64Flag, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64_flag("-j", "4"), 4u);
  EXPECT_EQ(parse_u64_flag("--repeat", "0"), 0u);
  EXPECT_EQ(parse_u64_flag("--seed", "18446744073709551615"), ~0ull);
}

TEST(ParseU64Flag, Base0AcceptsHexAndOctal) {
  EXPECT_EQ(parse_u64_flag("--seed", "0xdead", ~0ull, 0), 0xdeadu);
  EXPECT_EQ(parse_u64_flag("--seed", "0XBEEF", ~0ull, 0), 0xbeefu);
  EXPECT_EQ(parse_u64_flag("--seed", "017", ~0ull, 0), 15u);
  // ...but base 10 does not: "0x" is trailing garbage there.
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", "0x10"), "not a valid integer");
}

TEST(ParseU64Flag, RejectsWhatStrtoulSilentlyAcceptedAsZero) {
  // The regression this helper exists for: all of these used to parse as
  // 0 via strtoul(text, nullptr, ...) and quietly reconfigure the sweep.
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", ""), "empty value");
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", "garbage"), "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--seed", "0xzz", ~0ull, 0),
                   "not a valid integer");
}

TEST(ParseU64Flag, RejectsTrailingGarbageAndWhitespace) {
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "12abc"),
                   "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "3 "),
                   "expected a non-negative integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", " 3"),
                   "expected a non-negative integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "1\t2"),
                   "expected a non-negative integer");
}

TEST(ParseU64Flag, RejectsNegativesInsteadOfWrapping) {
  // strtoull("-3") wraps to 2^64-3; a thread/repeat count never means that.
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", "-3"),
                   "expected a non-negative integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--seed", "-1", ~0ull, 0),
                   "expected a non-negative integer");
}

TEST(ParseU64Flag, RejectsOutOfRange) {
  EXPECT_SIM_ERROR((void)parse_u64_flag("--seed", "99999999999999999999999"),
                   "value out of range");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "4294967296", 0x7FFFFFFF),
                   "value out of range");
  EXPECT_EQ(parse_u64_flag("--repeat", "2147483647", 0x7FFFFFFF), 2147483647u);
}

TEST(ParseU64Flag, ErrorNamesTheFlagAndTheOffendingText) {
  try {
    (void)parse_u64_flag("--repeat", "nope");
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--repeat"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"nope\""), std::string::npos) << msg;
  }
}

// ---- parse_double_flag ---------------------------------------------------

TEST(ParseDoubleFlag, AcceptsFiniteValues) {
  EXPECT_DOUBLE_EQ(parse_double_flag("--run-timeout", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double_flag("--fault-timer-drop", "0.02"), 0.02);
  EXPECT_DOUBLE_EQ(parse_double_flag("--fault-steal", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double_flag("--run-timeout", "0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_double_flag("--delta", "-0.5", -1.0), -0.5);
}

TEST(ParseDoubleFlag, RejectsGarbageEmptyAndTrailingJunk) {
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", ""), "empty value");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "fast"),
                   "not a valid number");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "1.5s"),
                   "not a valid number");
}

TEST(ParseDoubleFlag, RejectsNonFiniteAndBelowMinimum) {
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "inf"),
                   "value out of range");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "nan"),
                   "value out of range");
  EXPECT_SIM_ERROR((void)parse_double_flag("--fault-timer-drop", "-0.1"),
                   "value must not be negative");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "1e999"),
                   "value out of range");
}

// ---- parse_cli: the table-driven parser ---------------------------------

/// Build a mutable argv for parse_cli / SweepCli::parse.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(const_cast<char*>("bench"));
    for (std::string& s : storage) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

/// A small table: a switch, a numeric flag, a single-dash flag and one
/// hidden flag, all writing into a Parsed.
struct Parsed {
  bool csv = false;
  std::uint64_t repeat = 0;
  std::uint64_t threads = 0;
  std::string hidden;
};

std::vector<CliFlag> table(Parsed& p) {
  return {
      {"--csv", nullptr, "machine-readable output",
       [&p](const std::string&) { p.csv = true; }},
      {"--repeat", "N", "replicas",
       [&p](const std::string& v) { p.repeat = parse_u64_flag("--repeat", v); }},
      {"-j", "N", "worker threads",
       [&p](const std::string& v) { p.threads = parse_u64_flag("-j", v); }},
      {"--secret", "X", nullptr, [&p](const std::string& v) { p.hidden = v; }},
  };
}

TEST(ParseCli, SetsFlagsInAnyOrderAndReturnsPositionals) {
  Parsed p;
  Argv a({"small", "--repeat", "3", "--csv", "ferret", "--secret", "s"});
  const std::vector<std::string> pos = parse_cli(
      a.argc(), a.argv(), table(p), {{"size"}, {"benchmark"}});
  EXPECT_TRUE(p.csv);
  EXPECT_EQ(p.repeat, 3u);
  EXPECT_EQ(p.hidden, "s");
  EXPECT_EQ(pos, (std::vector<std::string>{"small", "ferret"}));
}

TEST(ParseCli, DashJTakesAnAttachedOrASeparateValue) {
  for (const auto& args : {std::vector<std::string>{"-j4"},
                           std::vector<std::string>{"-j", "4"}}) {
    Parsed p;
    Argv a(args);
    (void)parse_cli(a.argc(), a.argv(), table(p));
    EXPECT_EQ(p.threads, 4u) << args.front();
  }
}

TEST(ParseCli, DoubleDashEndsTheFlags) {
  Parsed p;
  Argv a({"--repeat", "2", "--", "./bench", "--csv", "-j4"});
  const std::vector<std::string> pos = parse_cli(
      a.argc(), a.argv(), table(p), {{"command", {}, true, true}});
  EXPECT_EQ(p.repeat, 2u);
  EXPECT_FALSE(p.csv);
  EXPECT_EQ(p.threads, 0u);
  EXPECT_EQ(pos, (std::vector<std::string>{"./bench", "--csv", "-j4"}));
}

TEST(ParseCli, AfterDashdashSlotRejectsValuesBeforeIt) {
  const std::vector<CliSlot> slots = {{.name = "command",
                                       .required = true,
                                       .repeats = true,
                                       .after_dashdash = true}};
  Parsed p;
  Argv ok({"--", "./bench", "--repeat", "4"});
  EXPECT_EQ(parse_cli(ok.argc(), ok.argv(), table(p), slots),
            (std::vector<std::string>{"./bench", "--repeat", "4"}));
  EXPECT_EQ(p.repeat, 0u);
  EXPECT_NE(cli_listing("bench", table(p), slots).find("[flags] -- <command>..."),
            std::string::npos);

  // Without `--` the command's own flags would configure this binary.
  Argv missing({"./bench", "--repeat", "4"});
  EXPECT_EXIT((void)parse_cli(missing.argc(), missing.argv(), table(p), slots),
              ::testing::ExitedWithCode(2),
              "command must follow -- \\(got './bench'\\)");
}

TEST(ParseCli, SlotSettersSeeEachValue) {
  Parsed p;
  std::vector<std::string> seen;
  Argv a({"a", "b", "c"});
  (void)parse_cli(a.argc(), a.argv(), table(p),
                  {{"first"},
                   {"rest", {}, false, true,
                    [&seen](const std::string& v) { seen.push_back(v); }}});
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "c"}));
}

TEST(ParseCli, UsageErrorsExitWithCode2AndListTheTable) {
  struct Case {
    std::vector<std::string> args;
    const char* why;
  };
  const Case cases[] = {
      {{"--no-such-flag"}, "unknown flag --no-such-flag.*--repeat N.*--help"},
      {{"-x"}, "unknown flag -x"},
      {{"--repeat"}, "--repeat requires a value"},
      {{"--repeat", "many"}, "not a valid integer.*usage: bench"},
      {{"-jx"}, "not a valid integer"},
      {{"huge"}, "unknown size 'huge'.*size: small large"},
      {{"small", "ferret", "extra"}, "unexpected argument 'extra'"},
      {{}, "missing size"},
  };
  for (const Case& c : cases) {
    Parsed p;
    Argv a(c.args);
    EXPECT_EXIT((void)parse_cli(a.argc(), a.argv(), table(p),
                                {{"size", {"small", "large"}, true},
                                 {"benchmark"}}),
                ::testing::ExitedWithCode(2), c.why)
        << "args: " << (c.args.empty() ? "(none)" : c.args.front());
  }
}

TEST(ParseCli, SlotSetterErrorsExitWithCode2) {
  Parsed p;
  Argv a({"0"});
  EXPECT_EXIT((void)parse_cli(a.argc(), a.argv(), table(p),
                              {{"threads", {}, false, false,
                                [](const std::string& v) {
                                  PARATICK_CHECK_MSG(parse_u64_flag("threads", v) >= 1,
                                                     "threads must be >= 1");
                                }}}),
              ::testing::ExitedWithCode(2), "threads must be >= 1");
}

TEST(ParseCli, HelpPrintsTheListingAndExits0) {
  Parsed p;
  const std::string listing =
      cli_listing("bench", table(p), {{"size", {"small", "large"}}});
  EXPECT_NE(listing.find("usage: bench [flags] [size]"), std::string::npos);
  EXPECT_NE(listing.find("  size: small large\n"), std::string::npos);
  EXPECT_NE(listing.find("  --csv "), std::string::npos);
  EXPECT_NE(listing.find("  --repeat N "), std::string::npos);
  EXPECT_NE(listing.find("  -j N "), std::string::npos);
  EXPECT_NE(listing.find("  --help "), std::string::npos);
  EXPECT_EQ(listing.find("--secret"), std::string::npos);  // hidden

  Argv a({"--repeat", "2", "--help", "--no-such-flag"});
  EXPECT_EXIT((void)parse_cli(a.argc(), a.argv(), table(p)),
              ::testing::ExitedWithCode(0), "");
}

// ---- SweepCli end to end -------------------------------------------------

TEST(SweepCliParse, AcceptsValidNumericFlags) {
  Argv a({"-j", "4", "--repeat", "3", "--seed", "0xdead", "--run-timeout",
          "1.5", "--fault-timer-drop", "0.25", "--record-trace", "extra"});
  const SweepCli cli = SweepCli::parse(a.argc(), a.argv(), {}, {{"word"}});
  EXPECT_EQ(cli.threads, 4u);
  EXPECT_EQ(cli.repeat, 3);
  ASSERT_TRUE(cli.root_seed.has_value());
  EXPECT_EQ(*cli.root_seed, 0xdeadu);
  EXPECT_DOUBLE_EQ(cli.run_timeout_sec, 1.5);
  ASSERT_EQ(cli.fault_overrides.size(), 1u);
  EXPECT_EQ(cli.fault_overrides[0].first, "timer-drop");
  EXPECT_TRUE(cli.record_trace);
  ASSERT_EQ(cli.positional.size(), 1u);
  EXPECT_EQ(cli.positional[0], "extra");
}

TEST(SweepCliParse, AcceptsTheBinarysOwnFlags) {
  unsigned hosts = 1;
  Argv a({"--hosts", "4", "-j2"});
  const SweepCli cli = SweepCli::parse(
      a.argc(), a.argv(), {uint_flag("--hosts", "N", "hosts", hosts)});
  EXPECT_EQ(cli.threads, 2u);
  EXPECT_EQ(hosts, 4u);
}

TEST(SweepCliParse, BadNumbersExitWithCode2NotZero) {
  // The bug this parser exists for: `-j garbage` used to strtoul to 0 and
  // run the sweep single-threaded as if nothing happened.
  struct Case {
    std::vector<std::string> args;
    const char* why;
  };
  const Case cases[] = {
      {{"-j", "garbage"}, "not a valid integer"},
      {{"-j4x"}, "not a valid integer"},
      {{"--repeat", "-2"}, "non-negative"},
      {{"--repeat", "0"}, "--repeat: value must be >= 1"},
      {{"--seed", "0xzz"}, "not a valid integer"},
      {{"--seed", "99999999999999999999999"}, "out of range"},
      {{"--repeat", ""}, "empty value"},
      {{"--run-timeout", "fast"}, "not a valid number"},
      {{"--fault-timer-drop", "-0.5"}, "negative"},
      {{"--fault-timer-drop", "nan"}, "out of range"},
  };
  for (const Case& c : cases) {
    Argv a(c.args);
    EXPECT_EXIT((void)SweepCli::parse(a.argc(), a.argv()),
                ::testing::ExitedWithCode(2), c.why)
        << "args: " << c.args.front();
  }
}

TEST(SweepCliParse, UnknownAndRemovedFlagsExitWithCode2) {
  // Flags the shared CLI does not have — typos, the removed dispatcher
  // and its knobs, the removed watchdog switch, the removed history
  // snapshot path (--sweep-json writes the same file) — fail loudly
  // instead of being ignored. cli_exit_codes checks the removed
  // engine-thread flag on the binaries that had it.
  for (const char* flag : {"--no-such-flag", "--fault-nosuch", "--no-steal",
                           "--dispatch", "--dispatch-test-kill", "--lease",
                           "--heartbeat", "--worker-slice", "--checkpoint",
                           "--max-retries", "--dispatch-cmd", "--workers",
                           "--worker", "--worker-plan", "--watchdog",
                           "--history-dir", "--history-tag"}) {
    Argv a({flag, "1"});
    EXPECT_EXIT((void)SweepCli::parse(a.argc(), a.argv()),
                ::testing::ExitedWithCode(2),
                std::string("unknown flag ") + flag)
        << flag;
  }
  Argv stray({"stray"});
  EXPECT_EXIT((void)SweepCli::parse(stray.argc(), stray.argv()),
              ::testing::ExitedWithCode(2), "unexpected argument 'stray'");
}

}  // namespace
}  // namespace paratick::core
