// The serving determinism contract (DESIGN.md §12.4) and the pipe
// transport: 100 loopback requests over one cached instance produce
// byte-identical response streams at 1, 2, and 8 threads and at every
// pipelining window, with responses in request order. The same matrix
// covers interleaved `groupform.request/1` + `groupform.delta/1` streams
// — epoch materialisation, warm-start folds, and the solution memo are
// pure memoization, so they must not perturb a single byte either.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/delta.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

/// 100 requests over one shared synthetic instance: a few solver
/// families, varying seeds and ids so every response line is distinct.
std::string HundredRequestStream() {
  const std::vector<std::string> solver_rotation = {"greedy", "localsearch",
                                                    "veckmeans", "sa"};
  std::string stream;
  for (int i = 0; i < 100; ++i) {
    Request request;
    request.id = common::StrFormat("r%03d", i);
    request.solver = solver_rotation[static_cast<std::size_t>(i) %
                                     solver_rotation.size()];
    request.instance.kind = "synthetic";
    request.instance.preset = "yahoo";
    request.instance.users = 40;
    request.instance.items = 30;
    request.instance.seed = 11;
    request.problem.k = 3;
    request.problem.groups = 5;
    request.seed = static_cast<std::uint64_t>(100 + i);
    request.include_groups = (i % 5 == 0);
    stream += RenderRequest(request);
    stream += '\n';
  }
  return stream;
}

/// 60 lines alternating plain requests with groupform.delta/1 requests
/// against the same dense instance, rotating the delta routes:
/// localsearch (warm-start fold) and every other solver (memoized cold
/// re-solve), over membership-only and rerate sequences. Sequences
/// repeat, so concurrent streams race on the same epoch entries and
/// solution-memo keys.
std::string InterleavedDeltaStream() {
  using Kind = core::PopulationDelta::Kind;
  const std::vector<std::vector<core::PopulationDelta>> sequences = {
      {},
      {{Kind::kRemoveUser, 3}},
      {{Kind::kRemoveUser, 3}, {Kind::kAddUser, 3}},
      {{Kind::kRemoveUser, 2}, {Kind::kRemoveUser, 5}},
      {{Kind::kRerate, 0, 1, 4.5}},
      {{Kind::kRemoveUser, 9}, {Kind::kRerate, 4, 2, 1.5}},
  };
  const std::vector<std::string> solver_rotation = {"greedy", "localsearch",
                                                    "veckmeans", "sa"};
  std::string stream;
  for (int i = 0; i < 60; ++i) {
    Request request;
    request.id = common::StrFormat("x%03d", i);
    request.solver = solver_rotation[static_cast<std::size_t>(i) %
                                     solver_rotation.size()];
    request.instance.kind = "dense";
    request.instance.users = 14;
    request.instance.items = 8;
    request.instance.clusters = 3;
    request.instance.seed = 5;
    request.problem.k = 3;
    request.problem.groups = 4;
    request.seed = static_cast<std::uint64_t>(50 + i / 6);
    request.include_groups = (i % 4 == 0);
    if (i % 2 == 1) {
      request.is_delta = true;
      request.deltas = sequences[static_cast<std::size_t>(i / 2) %
                                 sequences.size()];
    }
    stream += RenderRequest(request);
    stream += '\n';
  }
  return stream;
}

std::string ServeAt(int threads, int max_inflight,
                    const std::string& requests,
                    InstanceCache::Stats* stats_out = nullptr,
                    long long expect_served = 100) {
  common::ThreadPool::SetDefaultThreadCount(threads);
  Session session;
  std::istringstream in(requests);
  std::ostringstream out;
  const long long served = ServePipe(session, in, out, max_inflight);
  EXPECT_EQ(served, expect_served);
  if (stats_out != nullptr) *stats_out = session.cache().stats();
  return out.str();
}

class ServerDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }
};

TEST_F(ServerDeterminismTest,
       HundredRequestsByteIdenticalAcrossThreadCounts) {
  const std::string requests = HundredRequestStream();
  InstanceCache::Stats stats;
  const std::string at_one = ServeAt(1, 4, requests, &stats);
  // One instance load serves all 100 requests.
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 99);
  EXPECT_EQ(ServeAt(2, 4, requests), at_one);
  EXPECT_EQ(ServeAt(8, 4, requests), at_one);
}

TEST_F(ServerDeterminismTest, PipeliningWindowNeverReordersResponses) {
  const std::string requests = HundredRequestStream();
  const std::string sequential = ServeAt(8, 1, requests);
  EXPECT_EQ(ServeAt(8, 16, requests), sequential);
  EXPECT_EQ(ServeAt(8, 100, requests), sequential);
  // Response ids arrive in request order.
  std::istringstream lines(sequential);
  std::string line;
  int index = 0;
  while (std::getline(lines, line)) {
    const auto response = ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, common::StrFormat("r%03d", index)) << index;
    ++index;
  }
  EXPECT_EQ(index, 100);
}

TEST_F(ServerDeterminismTest,
       InterleavedDeltaStreamByteIdenticalAcrossThreadsAndWindows) {
  const std::string requests = InterleavedDeltaStream();
  const std::string at_one =
      ServeAt(1, 1, requests, nullptr, /*expect_served=*/60);
  EXPECT_EQ(ServeAt(2, 4, requests, nullptr, 60), at_one);
  EXPECT_EQ(ServeAt(8, 16, requests, nullptr, 60), at_one);
  EXPECT_EQ(ServeAt(8, 60, requests, nullptr, 60), at_one);

  // Responses stay in request order, and every delta response carries an
  // epoch key while plain responses never do.
  std::istringstream lines(at_one);
  std::string line;
  int index = 0;
  while (std::getline(lines, line)) {
    const auto response = ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, common::StrFormat("x%03d", index)) << index;
    if (response->state == eval::SweepCellState::kOk) {
      EXPECT_EQ(response->is_delta, index % 2 == 1) << index;
      EXPECT_EQ(!response->epoch.empty(), index % 2 == 1) << index;
    }
    ++index;
  }
  EXPECT_EQ(index, 60);
}

TEST_F(ServerDeterminismTest, MixedOutcomeStreamKeepsOrderAndStates) {
  // One OK, one DNF (cap), one ERR (unknown solver), repeated — the CI
  // smoke job's shape, pinned here at several thread counts.
  std::string requests;
  for (int i = 0; i < 12; ++i) {
    Request request;
    request.id = common::StrFormat("m%02d", i);
    request.solver = (i % 3 == 2) ? "nosuch" : "greedy";
    request.instance.kind = "dense";
    request.instance.users = 10;
    request.instance.items = 6;
    request.instance.clusters = 2;
    request.instance.seed = 3;
    request.problem.k = 2;
    request.problem.groups = 3;
    if (i % 3 == 1) request.user_cap = 4;  // below the 10-user instance
    requests += RenderRequest(request);
    requests += '\n';
  }
  auto states_of = [](const std::string& output) {
    std::vector<eval::SweepCellState> states;
    std::istringstream lines(output);
    std::string line;
    while (std::getline(lines, line)) {
      const auto response = ParseResponseLine(line);
      EXPECT_TRUE(response.ok()) << response.status();
      if (response.ok()) states.push_back(response->state);
    }
    return states;
  };
  common::ThreadPool::SetDefaultThreadCount(4);
  Session session;
  std::istringstream in(requests);
  std::ostringstream out;
  EXPECT_EQ(ServePipe(session, in, out, /*max_inflight=*/6), 12);
  const auto states = states_of(out.str());
  ASSERT_EQ(states.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    const auto expected = (i % 3 == 0)   ? eval::SweepCellState::kOk
                          : (i % 3 == 1) ? eval::SweepCellState::kDnf
                                         : eval::SweepCellState::kErr;
    EXPECT_EQ(states[static_cast<std::size_t>(i)], expected) << i;
  }
}

TEST_F(ServerDeterminismTest, BadIntegerKnobIsErrAndTheNextLineRuns) {
  // sa proposes a cooling step every cooling_interval proposals; 0, and
  // 2^32 (which an int cast would wrap to 0), must be refused at Create,
  // not divide by zero inside the server. An int cast would wrap an
  // iterations count of 2^31 to a negative one, and sa would then run no
  // proposal and answer OK with its seed's objective. The subset DP's
  // 32-bit masks wrapped on 33 users and answered OK with one user
  // grouped; max_users is now capped at 20. brute's max_users had no
  // cap: max_users 40 on 16 users pinned a serving thread for minutes of
  // Bell-number enumeration; it is now capped at 12. Malformed double and
  // bool knobs used to run silently with the solver's defaults.
  struct BadKnob {
    const char* solver;
    const char* key;
    const char* value;
    std::int32_t users = 8;
    std::int32_t items = 5;
  };
  const std::vector<BadKnob> knobs = {
      {"sa", "cooling_interval", "0"},
      {"anytime:sa", "cooling_interval", "0"},
      {"sa", "cooling_interval", "4294967296"},
      {"anytime:sa", "cooling_interval", "4294967296"},
      {"sa", "iterations", "2147483648"},
      {"exact", "max_users", "40", 33, 6},
      {"brute", "max_users", "40", 16, 6},
      {"sa", "cooling", "zebra"},
      {"localsearch", "init_with_greedy", "nope"},
  };
  common::ThreadPool::SetDefaultThreadCount(1);
  std::string requests;
  for (const BadKnob& knob : knobs) {
    Request request;
    request.id = std::string(knob.solver) + "/" + knob.key + "=" + knob.value;
    request.solver = knob.solver;
    request.options.Set(knob.key, knob.value);
    request.instance.kind = "dense";
    request.instance.users = knob.users;
    request.instance.items = knob.items;
    requests += RenderRequest(request) + "\n";
  }
  const std::size_t refused = knobs.size();
  Request greedy;
  greedy.id = "greedy";
  greedy.solver = "greedy";
  greedy.instance.kind = "dense";
  greedy.instance.users = 8;
  greedy.instance.items = 5;
  requests += RenderRequest(greedy) + "\n";
  Session session;
  std::istringstream in(requests);
  std::ostringstream out;
  EXPECT_EQ(ServePipe(session, in, out, /*max_inflight=*/1),
            static_cast<long long>(refused + 1));
  std::istringstream lines(out.str());
  std::string line;
  std::vector<Response> responses;
  while (std::getline(lines, line)) {
    const auto response = ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << response.status();
    responses.push_back(*response);
  }
  ASSERT_EQ(responses.size(), refused + 1);
  for (std::size_t i = 0; i < refused; ++i) {
    EXPECT_EQ(responses[i].state, eval::SweepCellState::kErr)
        << responses[i].id;
    EXPECT_EQ(responses[i].status.code(),
              common::StatusCode::kInvalidArgument)
        << responses[i].id;
  }
  EXPECT_EQ(responses[refused].id, "greedy");
  EXPECT_EQ(responses[refused].state, eval::SweepCellState::kOk);
}

TEST_F(ServerDeterminismTest, EmptyAndBlankLinesAreIgnored) {
  common::ThreadPool::SetDefaultThreadCount(1);
  Session session;
  Request request;
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 6;
  request.instance.items = 4;
  std::istringstream in("\n\r\n" + RenderRequest(request) + "\r\n\n");
  std::ostringstream out;
  EXPECT_EQ(ServePipe(session, in, out, 4), 1);
  const auto response = ParseResponseLine(
      out.str().substr(0, out.str().size() - 1));  // strip trailing \n
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, eval::SweepCellState::kOk);
}

}  // namespace
}  // namespace groupform::serve
