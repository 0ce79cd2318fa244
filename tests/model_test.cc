// Model-checker tests: the generic BFS checker on toy systems, plus the
// Lauberhorn protocol spec — the correct protocol passes all invariants,
// deadlock-freedom, and goal reachability; deliberately buggy variants are
// caught with a counterexample trace (§6's TLA+ claim, reproduced).
#include <gtest/gtest.h>

#include "src/model/checker.h"
#include "src/model/cold_path_spec.h"
#include "src/model/lauberhorn_spec.h"
#include "src/model/retrans_spec.h"

namespace lauberhorn {
namespace {

// --- Generic checker on a toy counter system -------------------------------

struct Counter {
  int value = 0;
  bool operator==(const Counter& other) const = default;
};
struct CounterHash {
  size_t operator()(const Counter& c) const { return static_cast<size_t>(c.value); }
};
using CounterChecker = ModelChecker<Counter, CounterHash>;

TEST(CheckerTest, ExploresAllStatesAndFindsGoal) {
  CounterChecker checker;
  auto successors = [](const Counter& s, std::vector<CounterChecker::Transition>& out) {
    if (s.value < 10) {
      out.push_back({"inc", Counter{s.value + 1}});
    }
    if (s.value > 0) {
      out.push_back({"dec", Counter{s.value - 1}});
    }
  };
  CounterChecker::Options options;
  options.is_terminal_ok = [](const Counter&) { return true; };
  options.goal = [](const Counter& s) { return s.value == 10; };
  const auto result = checker.Check(Counter{}, successors, {}, options);
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_EQ(result.states_explored, 11u);
}

TEST(CheckerTest, InvariantViolationYieldsShortestTrace) {
  CounterChecker checker;
  auto successors = [](const Counter& s, std::vector<CounterChecker::Transition>& out) {
    out.push_back({"inc", Counter{s.value + 1}});
  };
  CounterChecker::Options options;
  options.max_states = 1000;
  const auto result = checker.Check(
      Counter{}, successors,
      {{"below3", [](const Counter& s) { return s.value < 3; }}}, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("below3"), std::string::npos);
  ASSERT_EQ(result.trace.size(), 3u);  // shortest path: inc,inc,inc
  EXPECT_EQ(result.trace[0], "inc");
}

TEST(CheckerTest, DeadlockDetected) {
  CounterChecker checker;
  auto successors = [](const Counter& s, std::vector<CounterChecker::Transition>& out) {
    if (s.value < 2) {
      out.push_back({"inc", Counter{s.value + 1}});
    }
  };
  const auto result = checker.Check(Counter{}, successors, {}, CounterChecker::Options{});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("deadlock"), std::string::npos);
}

TEST(CheckerTest, UnreachableGoalReported) {
  CounterChecker checker;
  auto successors = [](const Counter& s, std::vector<CounterChecker::Transition>& out) {
    out.push_back({"loop", Counter{s.value % 2 == 0 ? 1 : 0}});
  };
  CounterChecker::Options options;
  options.goal = [](const Counter& s) { return s.value == 7; };
  const auto result = checker.Check(Counter{}, successors, {}, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("goal"), std::string::npos);
}

TEST(CheckerTest, StateLimitGuard) {
  CounterChecker checker;
  auto successors = [](const Counter& s, std::vector<CounterChecker::Transition>& out) {
    out.push_back({"inc", Counter{s.value + 1}});
  };
  CounterChecker::Options options;
  options.max_states = 50;
  options.is_terminal_ok = [](const Counter&) { return true; };
  const auto result = checker.Check(Counter{}, successors, {}, options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.hit_state_limit);
}

// --- The Lauberhorn Fig. 4 protocol ------------------------------------------

class LauberhornSpecTest : public ::testing::Test {
 protected:
  ProtoChecker::Result Run(SpecConfig config) {
    ProtoChecker checker;
    ProtoChecker::Options options;
    options.max_states = 1u << 22;
    options.is_terminal_ok = LauberhornTerminalOk;
    options.goal = LauberhornGoal;
    return checker.Check(LauberhornInitialState(config.num_requests),
                         LauberhornSuccessors(config), LauberhornInvariants(), options);
  }
};

TEST_F(LauberhornSpecTest, CorrectProtocolPassesAllChecks) {
  SpecConfig config;
  const auto result = Run(config);
  EXPECT_TRUE(result.ok) << result.violation << " after "
                         << ::testing::PrintToString(result.trace);
  // The scope is small but non-trivial.
  EXPECT_GT(result.states_explored, 100u);
}

TEST_F(LauberhornSpecTest, CorrectProtocolWithoutRetireAlsoPasses) {
  SpecConfig config;
  config.model_retire = false;
  ProtoChecker checker;
  ProtoChecker::Options options;
  options.max_states = 1u << 22;
  // Without RETIRE the loop never exits: every state has a successor
  // (TRYAGAIN cycles), so no terminal state exists at all.
  options.is_terminal_ok = [](const ProtoState&) { return false; };
  options.goal = LauberhornGoal;
  const auto result = checker.Check(LauberhornInitialState(),
                                    LauberhornSuccessors(config),
                                    LauberhornInvariants(), options);
  EXPECT_TRUE(result.ok) << result.violation;
}

TEST_F(LauberhornSpecTest, SmallerScopeExploresFewerStates) {
  SpecConfig one;
  one.num_requests = 1;
  SpecConfig three;
  three.num_requests = 3;
  const auto r1 = Run(one);
  const auto r3 = Run(three);
  EXPECT_TRUE(r1.ok);
  EXPECT_TRUE(r3.ok);
  EXPECT_LT(r1.states_explored, r3.states_explored);
}

TEST_F(LauberhornSpecTest, SkippedResponseCollectionIsCaught) {
  SpecConfig config;
  config.bug_skip_response_collection = true;
  const auto result = Run(config);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.trace.empty());
}

TEST_F(LauberhornSpecTest, FillWithoutConsumingLoadIsCaught) {
  SpecConfig config;
  config.bug_deliver_without_load = true;
  const auto result = Run(config);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("WaitingConsistent"), std::string::npos)
      << result.violation;
}

TEST_F(LauberhornSpecTest, DroppedArrivalWhileBusyIsCaught) {
  SpecConfig config;
  config.bug_drop_arrival_while_busy = true;
  const auto result = Run(config);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("NoLostRequests"), std::string::npos)
      << result.violation;
}

TEST_F(LauberhornSpecTest, CounterexampleTraceReplaysToViolation) {
  SpecConfig config;
  config.bug_deliver_without_load = true;
  const auto result = Run(config);
  ASSERT_FALSE(result.ok);
  // Replay the trace through the successor relation and confirm it ends in a
  // state violating the named invariant.
  auto successors = LauberhornSuccessors(config);
  ProtoState state = LauberhornInitialState();
  std::vector<ProtoChecker::Transition> next;
  for (const std::string& label : result.trace) {
    next.clear();
    successors(state, next);
    bool found = false;
    for (const auto& t : next) {
      if (t.label == label) {
        state = t.next;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "trace action not enabled: " << label;
  }
  bool violated = false;
  for (const auto& invariant : LauberhornInvariants()) {
    if (!invariant.holds(state)) {
      violated = true;
    }
  }
  EXPECT_TRUE(violated);
}


// --- The cold-dispatch path (§5.2 kernel channels) -----------------------------

class ColdPathSpecTest : public ::testing::Test {
 protected:
  ColdChecker::Result Run(ColdSpecConfig config) {
    ColdChecker checker;
    ColdChecker::Options options;
    options.max_states = 1u << 20;
    options.is_terminal_ok = ColdPathTerminalOk;
    options.goal = ColdPathGoal;
    return checker.Check(ColdPathInitialState(config.num_requests),
                         ColdPathSuccessors(config), ColdPathInvariants(), options);
  }
};

TEST_F(ColdPathSpecTest, CorrectColdPathPassesAllChecks) {
  ColdSpecConfig config;
  const auto result = Run(config);
  EXPECT_TRUE(result.ok) << result.violation << " after "
                         << ::testing::PrintToString(result.trace);
  EXPECT_GT(result.states_explored, 30u);
}

TEST_F(ColdPathSpecTest, MissingRearmStrandsRequests) {
  // The exact bug class found while building this repository: a cold
  // request's completion path forgot to clear/re-signal, stranding queued
  // requests (see SoftwareTransmit + ContinueCold).
  ColdSpecConfig config;
  config.bug_no_rearm_after_handle = true;
  const auto result = Run(config);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.trace.empty());
}

TEST_F(ColdPathSpecTest, TryagainDeliveryRaceCaught) {
  ColdSpecConfig config;
  config.bug_tryagain_misses_queue = true;
  const auto result = Run(config);
  EXPECT_FALSE(result.ok);
}

TEST_F(ColdPathSpecTest, SingleRequestScopeAlsoPasses) {
  ColdSpecConfig config;
  config.num_requests = 1;
  const auto result = Run(config);
  EXPECT_TRUE(result.ok) << result.violation;
}

// --- Loss + retransmit + at-most-once dedup (the reliability layer) ----------

class RetransSpecTest : public ::testing::Test {
 protected:
  RetransChecker::Result Run(RetransSpecConfig config) {
    RetransChecker checker;
    RetransChecker::Options options;
    options.max_states = 1u << 20;
    options.is_terminal_ok = RetransTerminalOk;
    options.goal = RetransGoal;
    return checker.Check(RetransInitialState(config), RetransSuccessors(config),
                         RetransInvariants(), options);
  }
};

TEST_F(RetransSpecTest, DedupProtocolPassesAllChecks) {
  RetransSpecConfig config;
  const auto result = Run(config);
  EXPECT_TRUE(result.ok) << result.violation << " after "
                         << ::testing::PrintToString(result.trace);
  EXPECT_GT(result.states_explored, 50u);
}

TEST_F(RetransSpecTest, LargerBudgetsStillPass) {
  RetransSpecConfig config;
  config.max_attempts = 4;
  config.dup_budget = 3;
  const auto result = Run(config);
  EXPECT_TRUE(result.ok) << result.violation;
}

TEST_F(RetransSpecTest, EvictingCompletedEntriesBreaksAtMostOnce) {
  // Mutation: the dedup window forgets a completed request while retransmits
  // are still possible — a late duplicate re-executes the handler.
  RetransSpecConfig config;
  config.bug_forget_completed = true;
  const auto result = Run(config);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("AtMostOnce"), std::string::npos)
      << result.violation;
  EXPECT_FALSE(result.trace.empty());
}

TEST_F(RetransSpecTest, ExecutingInFlightDuplicatesIsCaught) {
  // Mutation: no in-flight tracking — a duplicate arriving mid-execution is
  // admitted and runs the handler a second time.
  RetransSpecConfig config;
  config.bug_execute_inflight_dup = true;
  const auto result = Run(config);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("AtMostOnce"), std::string::npos)
      << result.violation;
}

TEST_F(RetransSpecTest, CounterexampleTraceReplaysToViolation) {
  RetransSpecConfig config;
  config.bug_forget_completed = true;
  const auto result = Run(config);
  ASSERT_FALSE(result.ok);
  auto successors = RetransSuccessors(config);
  RetransState state = RetransInitialState(config);
  std::vector<RetransChecker::Transition> next;
  for (const std::string& label : result.trace) {
    next.clear();
    successors(state, next);
    bool found = false;
    for (const auto& t : next) {
      if (t.label == label) {
        state = t.next;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "trace action not enabled: " << label;
  }
  EXPECT_GT(state.executions, 1u);
}

}  // namespace
}  // namespace lauberhorn
