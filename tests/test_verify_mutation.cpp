// Memory-order mutation self-test: weaken one acquire/release site to
// relaxed and assert the model checker reports a violation with a
// replayable schedule trace.
//
// This is the check on the checker. A model checker that silently explores
// nothing (or whose reads-from branching regressed) would still pass
// test_verify — it would just never find anything. Here every row is a
// seeded bug with a known-detectable interleaving, so a MISSED row means
// the verification layer lost power, and a "site not discovered" failure
// means the file:line matrix went stale after an edit to the code under
// test (re-pin the line number).
//
// The matrix was built empirically: every acquire/release site in the
// queue and reliability headers was weakened one at a time, and the rows
// below are the ones the bounded scenarios catch. Sites absent from the
// matrix are redundant-synchronization points (e.g. the second of two
// paired spin-loop acquires) whose weakening is unobservable in these
// bounded configurations.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "verify_scenarios.hpp"

namespace gravel::vtests {
namespace {

using verify::ExploreOptions;
using verify::ExploreResult;
using verify::Site;

using ScenarioFn = ExploreResult (*)(const ExploreOptions&);

struct MutationRow {
  const char* scenarioName;
  ScenarioFn scenario;
  int preemptionBound;
  const char* file;  // basename, as std::source_location reports it
  unsigned line;
  const char* order;  // expected original order at the site
};

// clang-format off
const MutationRow kMatrix[] = {
    // SPSC queue: both index publications and both index acquisitions, plus
    // the stop flag. Weakening any one lets the consumer read a cell before
    // the payload write is visible (or recycle one the producer still owns).
    {"spscRoundTrip", &spscRoundTrip, 2, "spsc_queue.hpp",  49, "acquire"},
    {"spscRoundTrip", &spscRoundTrip, 2, "spsc_queue.hpp",  57, "release"},
    {"spscRoundTrip", &spscRoundTrip, 2, "spsc_queue.hpp",  64, "acquire"},
    {"spscRoundTrip", &spscRoundTrip, 2, "spsc_queue.hpp",  70, "release"},
    {"spscRoundTrip", &spscRoundTrip, 2, "spsc_queue.hpp",  77, "acquire"},
    // MPMC queue: slot full-flag publication/consumption and the round
    // counter that hands a drained slot back to producers on wraparound.
    {"mpmcRoundTrip", &mpmcRoundTrip, 1, "mpmc_queue.hpp",  51, "acquire"},
    {"mpmcRoundTrip", &mpmcRoundTrip, 1, "mpmc_queue.hpp",  59, "release"},
    {"mpmcRoundTrip", &mpmcRoundTrip, 1, "mpmc_queue.hpp",  87, "acquire"},
    {"mpmcRoundTrip", &mpmcRoundTrip, 1, "mpmc_queue.hpp",  96, "release"},
    // Gravel queue: producer round/full spin, publish, consumer full spin,
    // slot release on wraparound, and the stopped flag read in acquireRead.
    {"gravelRoundTrip", &gravelRoundTrip, 1, "gravel_queue.hpp", 108, "acquire"},
    {"gravelRoundTrip", &gravelRoundTrip, 1, "gravel_queue.hpp", 146, "release"},
    {"gravelRoundTrip", &gravelRoundTrip, 1, "gravel_queue.hpp", 182, "acquire"},
    {"gravelRoundTrip", &gravelRoundTrip, 1, "gravel_queue.hpp", 198, "acquire"},
    {"gravelRoundTrip", &gravelRoundTrip, 1, "gravel_queue.hpp", 251, "release"},
    // Reliable layer: the ACK path's outstanding-counter decrement and the
    // quiescent() read that consumers use as a "all settled" barrier.
    {"reliableQuiescentVisibility", &reliableQuiescentVisibility, 1,
     "reliable.hpp", 650, "release"},
    {"reliableQuiescentVisibility", &reliableQuiescentVisibility, 1,
     "reliable.hpp", 314, "acquire"},
};
// clang-format on

ExploreResult runMutated(const MutationRow& row) {
  ExploreOptions o;
  o.name = std::string("mut_") + row.file + "_" + std::to_string(row.line);
  o.strategy = verify::Strategy::kDfs;
  o.preemptionBound = row.preemptionBound;
  // Caught mutants fail within a few hundred schedules; the cap only bounds
  // the cost of reporting a regression (a MISSED mutant explores until it).
  o.maxSchedules = 30000;
  o.maxStepsPerRun = 20000;
  o.mutation = verify::Mutation{row.file, row.line};
  return row.scenario(o);
}

bool siteDiscovered(const ExploreResult& r, const MutationRow& row) {
  for (const Site& s : r.sites)
    if (s.file == row.file && s.line == row.line && s.order == row.order)
      return true;
  return false;
}

std::string rowLabel(const MutationRow& row) {
  return std::string(row.scenarioName) + " / " + row.file + ":" +
         std::to_string(row.line) + " " + row.order + "->relaxed";
}

TEST(VerifyMutation, EverySeededWeakeningIsCaught) {
  int caught = 0;
  for (const MutationRow& row : kMatrix) {
    SCOPED_TRACE(rowLabel(row));
    const ExploreResult r = runMutated(row);
    // Stale-line guard first: if the site was never executed (line drifted
    // after an edit), say so instead of reporting a mysterious MISSED.
    ASSERT_TRUE(siteDiscovered(r, row))
        << "mutation target not among executed sites — the " << row.file
        << " line numbers in kMatrix are stale";
    EXPECT_FALSE(r.ok) << "weakening was NOT detected (checker lost power)";
    if (!r.ok) {
      ++caught;
      // A violation must come with a replayable decision stream.
      EXPECT_FALSE(r.choices.empty());
      EXPECT_FALSE(r.violation.empty());
      EXPECT_FALSE(r.trace.empty());
    }
  }
  // ISSUE acceptance floor: at least six distinct single-site weakenings
  // across the queue and reliability layers, each with a replayable trace.
  EXPECT_GE(caught, 6);
}

// The unmutated scenarios must pass the same bounded exploration — a
// sanity guard that the matrix's violations really come from the mutation.
TEST(VerifyMutation, UnmutatedBaselinesPass) {
  const struct {
    const char* name;
    ScenarioFn scenario;
    int bound;
  } baselines[] = {
      {"spscRoundTrip", &spscRoundTrip, 2},
      {"mpmcRoundTrip", &mpmcRoundTrip, 1},
      {"gravelRoundTrip", &gravelRoundTrip, 1},
      {"reliableQuiescentVisibility", &reliableQuiescentVisibility, 1},
  };
  for (const auto& b : baselines) {
    SCOPED_TRACE(b.name);
    ExploreOptions o;
    o.name = std::string("mutbase_") + b.name;
    o.preemptionBound = b.bound;
    o.maxSchedules = 300000;
    o.maxStepsPerRun = 20000;
    const ExploreResult r = b.scenario(o);
    EXPECT_TRUE(r.ok) << r.report(b.name);
    EXPECT_TRUE(r.exhausted);
  }
}

// Violations found under GRAVEL_VERIFY_TRACE_DIR are dumped as replayable
// trace files — the CI artifact path for failing schedules.
TEST(VerifyMutation, FailingScheduleIsDumpedToTraceDir) {
  const MutationRow& row = kMatrix[0];
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(::setenv("GRAVEL_VERIFY_TRACE_DIR", dir.c_str(), 1), 0);
  const ExploreResult r = runMutated(row);
  ::unsetenv("GRAVEL_VERIFY_TRACE_DIR");
  ASSERT_FALSE(r.ok);
  const std::string path = dir + (dir.back() == '/' ? "" : "/") + "mut_" +
                           row.file + "_" + std::to_string(row.line) +
                           ".trace.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "expected trace file at " << path;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("mutation: "), std::string::npos);
  EXPECT_NE(contents.find("GRAVEL_VERIFY_REPLAY="), std::string::npos);
  std::remove(path.c_str());
}

// Replaying a failing run's recorded choice stream reproduces the same
// violation deterministically — the debugging loop the trace files promise.
TEST(VerifyMutation, RecordedChoicesReplayTheViolation) {
  const MutationRow& row = kMatrix[0];
  const ExploreResult first = runMutated(row);
  ASSERT_FALSE(first.ok);
  ASSERT_FALSE(first.choices.empty());

  std::string joined;
  for (std::size_t i = 0; i < first.choices.size(); ++i) {
    if (i != 0) joined += ',';
    joined += std::to_string(first.choices[i]);
  }
  const std::string name =
      std::string("mut_") + row.file + "_" + std::to_string(row.line);
  ASSERT_EQ(::setenv("GRAVEL_VERIFY_REPLAY_TEST", name.c_str(), 1), 0);
  ASSERT_EQ(::setenv("GRAVEL_VERIFY_REPLAY", joined.c_str(), 1), 0);
  const ExploreResult replay = runMutated(row);
  ::unsetenv("GRAVEL_VERIFY_REPLAY_TEST");
  ::unsetenv("GRAVEL_VERIFY_REPLAY");
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.schedules, 1) << "replay mode should run exactly one "
                                    "schedule";
  EXPECT_EQ(replay.violation, first.violation);
}

}  // namespace
}  // namespace gravel::vtests
