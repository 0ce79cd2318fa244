// Tests for the benches' shared gate kit (bench/common.h). The golden
// oracle cannot see these faults: every golden bench reports zero duplicate
// executions, so a ledger that never counted a duplicate, or gates that
// never failed the exit status, would still match.
#include <gtest/gtest.h>

#include "bench/common.h"

namespace lauberhorn {
namespace {

std::vector<WireValue> Seq(uint64_t seq) {
  return {WireValue::U64(seq), WireValue::Bytes({1, 2})};
}

TEST(ExecutionLedgerTest, HandlerEchoesItsArguments) {
  ExecutionLedger ledger;
  const auto handler = ledger.Handler();
  const std::vector<WireValue> out = handler(Seq(7));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].scalar, 7u);
  EXPECT_EQ(out[1].bytes, (std::vector<uint8_t>{1, 2}));
}

TEST(ExecutionLedgerTest, SequenceRunTwiceIsOneDuplicate) {
  ExecutionLedger ledger;
  const auto handler = ledger.Handler();
  handler(Seq(1));
  handler(Seq(2));
  handler(Seq(1));
  EXPECT_EQ(ledger.Duplicates(), 1u);
  EXPECT_EQ(ledger.Total(), 3u);
}

TEST(ExecutionLedgerTest, MergeFindsDuplicatesAcrossMachines) {
  ExecutionLedger machine0;
  ExecutionLedger machine1;
  machine0.Handler()(Seq(5));
  machine1.Handler()(Seq(5));
  machine1.Handler()(Seq(6));
  EXPECT_EQ(machine0.Duplicates(), 0u);
  EXPECT_EQ(machine1.Duplicates(), 0u);

  ExecutionLedger merged;
  merged.Merge(machine0);
  merged.Merge(machine1);
  EXPECT_EQ(merged.Duplicates(), 1u);
  EXPECT_EQ(merged.Total(), 3u);
}

TEST(GatesTest, AllChecksHoldingExitsZero) {
  Gates gates;
  gates.Check(true, "never printed %d", 1);
  EXPECT_EQ(gates.count(), 0);
  EXPECT_EQ(gates.Exit(), 0);
}

TEST(GatesTest, FailedCheckCountsAndExitsNonzero) {
  Gates gates;
  gates.Check(true, "holds");
  gates.Check(false, "%s executed %d sequences twice", "linux", 3);
  EXPECT_EQ(gates.count(), 1);
  EXPECT_NE(gates.Exit(), 0);
}

}  // namespace
}  // namespace lauberhorn
