// The checked-in pipe-mode goldens, replayed in process: each request line
// goes through one Session::HandleLine, as `groupform_serverd --pipe` does,
// and the answer must equal the golden response line byte for byte. The
// smoke goldens pin every response state; the metrics goldens pin the four
// full-precision response metrics for every registry solver × LM/AV × the
// three missing-rating policies; the search goldens pin localsearch and
// sa, greedy-seeded and from a random split, over LM/AV × the missing
// policies × the aggregations × the dense and compact backends, plus the
// edge cases of their move scoring (candidate_depth > 0, k above the
// catalogue, more group slots than users, shared item minima, a scale
// with a negative minimum).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "serve/session.h"
#include "solvers/builtin.h"

#ifndef GROUPFORM_GOLDENS_DIR
#error "GROUPFORM_GOLDENS_DIR must name tests/serve/goldens"
#endif

namespace groupform::serve {
namespace {

std::vector<std::string> ReadLines(const std::string& name) {
  const std::string path = std::string(GROUPFORM_GOLDENS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void ExpectReplayMatches(const std::string& stem) {
  solvers::EnsureBuiltinSolversRegistered();
  const auto requests = ReadLines(stem + "_requests.jsonl");
  const auto responses = ReadLines(stem + "_responses.jsonl");
  ASSERT_FALSE(requests.empty());
  ASSERT_EQ(requests.size(), responses.size());
  Session session;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(session.HandleLine(requests[i]), responses[i])
        << stem << " line " << i + 1;
  }
}

TEST(GoldenReplay, SmokeGoldens) { ExpectReplayMatches("smoke"); }

TEST(GoldenReplay, MetricsGoldens) { ExpectReplayMatches("metrics"); }

TEST(GoldenReplay, ConstrainedGoldens) {
  ExpectReplayMatches("constrained");
}

TEST(GoldenReplay, SearchGoldens) { ExpectReplayMatches("search"); }

}  // namespace
}  // namespace groupform::serve
