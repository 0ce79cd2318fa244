// Checks the benchmark's derivations on synthetic inputs.
#include "perfbench/derive.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(NearestRank, ReportsValueAndSampleCount) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) {  // unsorted on purpose
    samples.push_back(i);
  }
  const Percentile p50 = NearestRank(samples, 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(NearestRank(samples, 0.99).value, 99.0);
  EXPECT_EQ(NearestRank(samples, 1.0).value, 100.0);
}

TEST(NearestRank, SmallAndEmptyInputs) {
  EXPECT_EQ(NearestRank({7.0}, 0.99).value, 7.0);
  EXPECT_EQ(NearestRank({7.0}, 0.99).samples, 1u);
  // Two samples: p50 is the first order statistic, p99 the second.
  EXPECT_EQ(NearestRank({3.0, 1.0}, 0.50).value, 1.0);
  EXPECT_EQ(NearestRank({3.0, 1.0}, 0.99).value, 3.0);
  const Percentile none = NearestRank({}, 0.99);
  EXPECT_EQ(none.value, 0.0);
  EXPECT_EQ(none.samples, 0u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

RequestRecord Ok(uint32_t executions = 1) {
  RequestRecord r;
  r.outcome = Outcome::kOk;
  r.endings = 1;
  r.executions = executions;
  return r;
}

RequestRecord Ended(Outcome outcome, uint32_t executions = 0) {
  RequestRecord r = Ok(executions);
  r.outcome = outcome;
  return r;
}

TEST(Account, CleanRunHasNoFailures) {
  const Accounting a = Account({Ok(), Ok(), Ok()});
  EXPECT_EQ(a.issued, 3u);
  EXPECT_EQ(a.ok, 3u);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.FailedFrac(), 0.0);
  EXPECT_TRUE(a.Correct());
}

TEST(Account, EveryFailureKindCountsOnce) {
  RequestRecord wrong = Ok();
  wrong.payload_ok = false;
  const Accounting a = Account({
      Ok(),
      Ended(Outcome::kTimedOut),
      Ended(Outcome::kError, 1),
      Ended(Outcome::kShed),
      wrong,
      Ok(/*executions=*/2),  // duplicate execution of a completed request
      Ok(),
      Ok(),
  });
  EXPECT_EQ(a.issued, 8u);
  EXPECT_EQ(a.ok, 3u);
  EXPECT_EQ(a.timeouts, 1u);
  EXPECT_EQ(a.errors, 1u);
  EXPECT_EQ(a.sheds, 1u);
  EXPECT_EQ(a.wrong_payload, 1u);
  EXPECT_EQ(a.dup_execs, 1u);
  EXPECT_EQ(a.failed, 5u);
  EXPECT_DOUBLE_EQ(a.FailedFrac(), 5.0 / 8.0);
  EXPECT_FALSE(a.Correct());  // the wrong payload, not the duplicate
}

TEST(Account, DuplicatesFailRequestsButNotTheRun) {
  // A request that timed out after running twice is one failed request.
  const Accounting a = Account({Ok(3), Ended(Outcome::kTimedOut, 2), Ok()});
  EXPECT_EQ(a.dup_execs, 2u);
  EXPECT_EQ(a.timeouts, 1u);
  EXPECT_EQ(a.failed, 2u);
  EXPECT_DOUBLE_EQ(a.FailedFrac(), 2.0 / 3.0);
  EXPECT_TRUE(a.Correct());
}

TEST(Account, UnaccountedAndPhantomRequestsMakeTheRunIncorrect) {
  RequestRecord never;  // no ending at all
  never.endings = 0;
  RequestRecord twice = Ok();
  twice.endings = 2;
  const Accounting a = Account({never, twice, Ok(/*executions=*/0)});
  EXPECT_EQ(a.unaccounted, 2u);
  EXPECT_EQ(a.phantom, 1u);
  EXPECT_EQ(a.failed, 3u);
  EXPECT_FALSE(a.Correct());
}

TEST(Account, SumsAcrossStacks) {
  Accounting total = Account({Ok(), Ended(Outcome::kShed)});
  total += Account({Ok(2), Ok()});
  EXPECT_EQ(total.issued, 4u);
  EXPECT_EQ(total.failed, 2u);
  EXPECT_DOUBLE_EQ(total.FailedFrac(), 0.5);
  EXPECT_EQ(Accounting{}.FailedFrac(), 0.0);
}

TEST(PerRpc, ZeroCompletedRpcsGiveZero) {
  EXPECT_EQ(PerRpc(1234.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(PerRpc(1000.0, 8), 125.0);
}

TEST(PollYield, ZeroPollsGiveZero) {
  EXPECT_EQ(PollYield(0, 0), 0.0);
  EXPECT_EQ(PollYield(0, 50), 0.0);
  EXPECT_DOUBLE_EQ(PollYield(10, 30), 0.25);
  EXPECT_DOUBLE_EQ(PollYield(10, 0), 1.0);
}

}  // namespace
}  // namespace perfbench
