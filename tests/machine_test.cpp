#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sbmp/machine/machine.h"
#include "sbmp/support/rng.h"

namespace sbmp {
namespace {

/// Seed count, overridable via SBMP_FUZZ_SEEDS like the fuzz suites
/// (clamped to [1, 100000]).
int fuzz_seed_count() {
  const char* env = std::getenv("SBMP_FUZZ_SEEDS");
  if (env == nullptr) return 25;
  const int n = std::atoi(env);
  if (n < 1) return 25;
  return n > 100000 ? 100000 : n;
}

TEST(MachineDesc, PaperCases) {
  const MachineDesc c21 = machines::paper(2, 1);
  EXPECT_EQ(c21.issue_width, 2);
  for (int f = 0; f < kNumFuClasses; ++f)
    EXPECT_EQ(c21.fu_count(static_cast<FuClass>(f)), 1);
  EXPECT_EQ(c21.label(), "2-issue(#FU=1)");

  const MachineDesc c42 = machines::paper(4, 2);
  EXPECT_EQ(c42.fu_count(FuClass::kMult), 2);
  EXPECT_EQ(c42.label(), "4-issue(#FU=2)");
}

TEST(MachineDesc, PaperLatencies) {
  const MachineDesc config = machines::paper(4, 1);
  EXPECT_EQ(config.latency(Opcode::kMul), 3);
  EXPECT_EQ(config.latency(Opcode::kMulI), 3);
  EXPECT_EQ(config.latency(Opcode::kDiv), 6);
  EXPECT_EQ(config.latency(Opcode::kAdd), 1);
  EXPECT_EQ(config.latency(Opcode::kLoad), 1);
  EXPECT_EQ(config.latency(Opcode::kWait), 1);
}

TEST(MachineDesc, SyncUsesIssueSlotNotFu) {
  const MachineDesc config = machines::paper(4, 1);
  EXPECT_EQ(fu_class_of(Opcode::kWait, false), FuClass::kNone);
  EXPECT_EQ(fu_class_of(Opcode::kSend, false), FuClass::kNone);
  // kNone "units" are bounded only by the issue width.
  EXPECT_EQ(config.fu_count(FuClass::kNone), config.issue_width);
}

TEST(MachineDesc, FloatSelectsFpAdder) {
  EXPECT_EQ(fu_class_of(Opcode::kAdd, true), FuClass::kFloat);
  EXPECT_EQ(fu_class_of(Opcode::kAdd, false), FuClass::kInteger);
  EXPECT_EQ(fu_class_of(Opcode::kSub, true), FuClass::kFloat);
  // Mul/div/shift have dedicated units regardless of type.
  EXPECT_EQ(fu_class_of(Opcode::kMul, true), FuClass::kMult);
  EXPECT_EQ(fu_class_of(Opcode::kMul, false), FuClass::kMult);
  EXPECT_EQ(fu_class_of(Opcode::kShl, true), FuClass::kShift);
  EXPECT_EQ(fu_class_of(Opcode::kDiv, true), FuClass::kDiv);
}

TEST(MachineDesc, MemoryOpsOnLoadStoreUnit) {
  EXPECT_EQ(fu_class_of(Opcode::kLoad, true), FuClass::kLoadStore);
  EXPECT_EQ(fu_class_of(Opcode::kStore, false), FuClass::kLoadStore);
}

TEST(MachineDesc, NamesAreStable) {
  EXPECT_STREQ(fu_class_name(FuClass::kLoadStore), "load/store");
  EXPECT_STREQ(fu_class_name(FuClass::kInteger), "integer");
  EXPECT_STREQ(fu_class_name(FuClass::kFloat), "float");
  EXPECT_STREQ(fu_class_name(FuClass::kMult), "mult");
  EXPECT_STREQ(fu_class_name(FuClass::kDiv), "div");
  EXPECT_STREQ(fu_class_name(FuClass::kShift), "shift");
  EXPECT_STREQ(opcode_name(Opcode::kWait), "wait");
  EXPECT_STREQ(opcode_name(Opcode::kStore), "store");
}

TEST(MachineDesc, CanonicalFormRoundTrips) {
  const MachineDesc paper = machines::paper(4, 2);
  EXPECT_EQ(paper.to_string(),
            "issue=4 fu=ls:2,int:2,fp:2,mul:2,div:2,shift:2 "
            "lat=muli:3,mul:3,div:6,*:1 sync=1 sig=1 buf=0");
  MachineDesc parsed;
  ASSERT_TRUE(parse_machine_desc(paper.to_string(), &parsed).ok());
  EXPECT_EQ(parsed, paper);
}

TEST(MachineDesc, ParseAcceptsUniformFuShorthand) {
  MachineDesc parsed;
  ASSERT_TRUE(parse_machine_desc("issue=2 fu=2", &parsed).ok());
  EXPECT_EQ(parsed, machines::paper(2, 2));
  // Partial fu list: unmentioned classes stay at 1.
  ASSERT_TRUE(parse_machine_desc("fu=mul:3", &parsed).ok());
  EXPECT_EQ(parsed.fu_count(FuClass::kMult), 3);
  EXPECT_EQ(parsed.fu_count(FuClass::kDiv), 1);
}

TEST(MachineDesc, ParseStarLatencyAppliesBeforeOverrides) {
  MachineDesc parsed;
  ASSERT_TRUE(parse_machine_desc("lat=*:2,div:8", &parsed).ok());
  EXPECT_EQ(parsed.latency(Opcode::kDiv), 8);
  EXPECT_EQ(parsed.latency(Opcode::kAdd), 2);
  EXPECT_EQ(parsed.latency(Opcode::kMul), 2);
}

TEST(MachineDesc, ParseRejectsMalformedInput) {
  MachineDesc parsed;
  for (const char* bad :
       {"issue=", "issue=x", "issue=4 issue=2", "bogus=1", "fu=warp:2",
        "lat=frobnicate:3", "issue==4", "fu=ls:", "buf=-1"}) {
    const Status status = parse_machine_desc(bad, &parsed);
    EXPECT_FALSE(status.ok()) << "accepted \"" << bad << "\"";
    EXPECT_EQ(status.code, StatusCode::kInput) << bad;
  }
}

TEST(MachineDesc, ValidateRejectsDegenerateMachines) {
  MachineDesc machine;
  machine.issue_width = 0;
  EXPECT_EQ(machine.validate().code, StatusCode::kInput);

  machine = machines::default_machine();
  machine.fu_counts[0] = 0;
  EXPECT_EQ(machine.validate().code, StatusCode::kInput);

  machine = machines::default_machine();
  machine.set_latency(Opcode::kLoad, 0);
  EXPECT_EQ(machine.validate().code, StatusCode::kInput);

  machine = machines::default_machine();
  machine.signal_latency = -1;
  EXPECT_EQ(machine.validate().code, StatusCode::kInput);

  EXPECT_TRUE(machines::default_machine().validate().ok());
}

TEST(MachineDesc, LoadLatencyIsAFirstClassTableEntry) {
  // The latency switch used to have no case for loads (they fell through
  // to the default); the table makes the entry explicit and tunable.
  MachineDesc machine = machines::default_machine();
  EXPECT_EQ(machine.latency(Opcode::kLoad), 1);
  machine.set_latency(Opcode::kLoad, 4);
  EXPECT_EQ(machine.latency(Opcode::kLoad), 4);
  EXPECT_EQ(machine.latency(Opcode::kStore), 1);
  MachineDesc parsed;
  ASSERT_TRUE(parse_machine_desc(machine.to_string(), &parsed).ok());
  EXPECT_EQ(parsed.latency(Opcode::kLoad), 4);
}

class MachineFuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(MachineFuzzSeed, RandomDescsRoundTripThroughCanonicalForm) {
  SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 17);
  MachineDesc machine;
  machine.issue_width = static_cast<int>(rng.range(1, 16));
  for (int f = 0; f < kNumFuClasses; ++f)
    machine.fu_counts[f] = static_cast<int>(rng.range(1, 8));
  for (int op = 0; op < kNumOpcodes; ++op)
    machine.latencies[op] = static_cast<int>(rng.range(1, 12));
  machine.sync_consumes_slot = rng.chance(50);
  machine.signal_latency = static_cast<int>(rng.range(0, 5));
  machine.signal_buffer_depth = static_cast<int>(rng.range(0, 4));
  ASSERT_TRUE(machine.validate().ok());

  const std::string text = machine.to_string();
  MachineDesc parsed;
  ASSERT_TRUE(parse_machine_desc(text, &parsed).ok()) << text;
  EXPECT_EQ(parsed, machine) << text;
  // Canonical form is a fixed point: format(parse(format(m))) == format(m).
  EXPECT_EQ(parsed.to_string(), text);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MachineFuzzSeed,
                         ::testing::Range(0, fuzz_seed_count()));

}  // namespace
}  // namespace sbmp
