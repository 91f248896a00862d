#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/sweep.hpp"
#include "expect_error.hpp"

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
    (void)parse_u64_flag("--max-retries", "nope");
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--max-retries"), std::string::npos) << msg;
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

TEST(ParseChoiceFlag, ReturnsTheMatchingIndex) {
  EXPECT_EQ(parse_choice_flag("--lookahead-mode", "global",
                              {"global", "topology"}),
            0u);
  EXPECT_EQ(parse_choice_flag("--lookahead-mode", "topology",
                              {"global", "topology"}),
            1u);
}

TEST(ParseChoiceFlag, RejectsUnknownSpellingsListingTheChoices) {
  // Exact matches only: no prefixes, no case folding, no whitespace.
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "sideways",
                                           {"global", "topology"}),
                   "expected one of global topology");
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "topo",
                                           {"global", "topology"}),
                   "expected one of");
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "Global",
                                           {"global", "topology"}),
                   "expected one of");
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "",
                                           {"global", "topology"}),
                   "expected one of");
}

// ---- SweepCli end to end -------------------------------------------------

/// Build a mutable argv for SweepCli::parse.
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

TEST(SweepCliParse, AcceptsValidNumericFlags) {
  Argv a({"-j", "4", "--repeat", "3", "--seed", "0xdead", "--run-timeout",
          "1.5", "--fault-timer-drop", "0.25", "--record-trace",
          "--lookahead-mode", "topology", "extra"});
  const SweepCli cli = SweepCli::parse(a.argc(), a.argv());
  EXPECT_EQ(cli.threads, 4u);
  EXPECT_EQ(cli.repeat, 3);
  EXPECT_EQ(cli.lookahead_mode, sim::LookaheadMode::kTopology);
  ASSERT_TRUE(cli.root_seed.has_value());
  EXPECT_EQ(*cli.root_seed, 0xdeadu);
  EXPECT_DOUBLE_EQ(cli.run_timeout_sec, 1.5);
  ASSERT_EQ(cli.fault_overrides.size(), 1u);
  EXPECT_EQ(cli.fault_overrides[0].first, "timer-drop");
  EXPECT_TRUE(cli.record_trace);
  ASSERT_EQ(cli.positional.size(), 1u);
  EXPECT_EQ(cli.positional[0], "extra");
}

TEST(SweepCliParse, AcceptsDispatchFlags) {
  Argv a({"--dispatch", "--workers", "3", "--max-retries", "5", "--no-steal",
          "--lease", "2.5", "--retry-backoff", "0.125", "--heartbeat", "0.2",
          "--checkpoint", "ckpt.json", "--dispatch-cmd", "ssh -T n{cmd}"});
  const SweepCli cli = SweepCli::parse(a.argc(), a.argv());
  EXPECT_TRUE(cli.dispatch);
  EXPECT_EQ(cli.dispatch_workers, 3u);
  EXPECT_EQ(cli.max_retries, 5u);
  EXPECT_FALSE(cli.steal);
  EXPECT_DOUBLE_EQ(cli.lease_sec, 2.5);
  EXPECT_DOUBLE_EQ(cli.retry_backoff_sec, 0.125);
  EXPECT_DOUBLE_EQ(cli.heartbeat_sec, 0.2);
  EXPECT_EQ(cli.checkpoint_path, "ckpt.json");
  EXPECT_EQ(cli.dispatch_cmd, "ssh -T n{cmd}");
  // The dispatcher relaunches workers from the original argv; parse must
  // have kept a verbatim copy.
  ASSERT_EQ(cli.raw_args.size(), static_cast<std::size_t>(a.argc()));
  EXPECT_EQ(cli.raw_args[1], "--dispatch");
}

TEST(SweepCliParse, BadNumbersExitWithCode2NotZero) {
  // The bug this PR fixes: `-j garbage` used to strtoul to 0 and run the
  // sweep single-threaded as if nothing happened.
  struct Case {
    std::vector<std::string> args;
    const char* why;
  };
  const Case cases[] = {
      {{"-j", "garbage"}, "not a valid integer"},
      {{"-j4x"}, "not a valid integer"},
      {{"--repeat", "-2"}, "non-negative"},
      {{"--seed", "0xzz"}, "not a valid integer"},
      {{"--seed", "99999999999999999999999"}, "out of range"},
      {{"--repeat", ""}, "empty value"},
      {{"--run-timeout", "fast"}, "not a valid number"},
      {{"--fault-timer-drop", "-0.5"}, "negative"},
      {{"--workers", "many"}, "not a valid integer"},
      {{"--max-retries", "-1"}, "non-negative"},
      {{"--lease", "fast"}, "not a valid number"},
      {{"--retry-backoff", "0.1s"}, "not a valid number"},
      {{"--heartbeat", ""}, "empty value"},
      {{"--dispatch-test-kill", "2.5"}, "not a valid integer"},
      {{"--lookahead-mode", "sideways"}, "expected one of global topology"},
      {{"--lookahead-mode", "topo"}, "expected one of"},
  };
  for (const Case& c : cases) {
    Argv a(c.args);
    EXPECT_EXIT((void)SweepCli::parse(a.argc(), a.argv()),
                ::testing::ExitedWithCode(2), c.why)
        << "args: " << c.args.front();
  }
}

// ---- bench_cluster flags -------------------------------------------------
// The cluster bench parses its own flags out of the sweep CLI's
// positional residue with the same strict helpers; these pin down the
// (flag, bound) pairs it uses so garbage can't silently reshape the
// cluster under test.

TEST(ClusterFlags, AcceptsSaneValues) {
  EXPECT_EQ(parse_u64_flag("--hosts", "8", 64), 8u);
  EXPECT_EQ(parse_u64_flag("--vms-per-host", "32", 256), 32u);
  EXPECT_EQ(parse_u64_flag("--migration-blackout-us", "500", 1'000'000), 500u);
  EXPECT_EQ(parse_u64_flag("--migration-dirty-mcycles", "2", 1'000'000), 2u);
  EXPECT_DOUBLE_EQ(parse_double_flag("--overcommit", "2.5", 0.01), 2.5);
  EXPECT_DOUBLE_EQ(parse_double_flag("--rebalance-period", "0", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(parse_double_flag("--duration-ms", "100", 0.001), 100.0);
}

TEST(ClusterFlags, RejectsGarbageAndOutOfRange) {
  EXPECT_SIM_ERROR((void)parse_u64_flag("--hosts", "lots", 64),
                   "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--hosts", "65", 64), "out of range");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--vms-per-host", "257", 256),
                   "out of range");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--vms-per-host", "-4", 256),
                   "non-negative");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--migration-blackout-us", "1e6",
                                        1'000'000),
                   "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_double_flag("--overcommit", "fast", 0.01),
                   "not a valid number");
  EXPECT_SIM_ERROR((void)parse_double_flag("--overcommit", "-1", 0.01),
                   "negative");
  EXPECT_SIM_ERROR((void)parse_double_flag("--rebalance-period", "", 0.0),
                   "empty value");
  EXPECT_SIM_ERROR((void)parse_double_flag("--duration-ms", "10ms", 0.001),
                   "not a valid number");
}

}  // namespace
}  // namespace paratick::core
