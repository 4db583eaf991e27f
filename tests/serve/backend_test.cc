// The serving side of the storage backends (DESIGN.md §14.3-§14.4):
// backend/qbits/kind=gfcm parse-render round-trips, exact cache byte
// accounting for all three backends (the mmap satellite: an instance
// whose on-disk size exceeds the whole cache budget still serves, charged
// only its fixed resident overhead), byte-identical responses across
// backends and thread counts, and the delta-requires-dense guard.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/binary_io.h"
#include "data/compact_matrix.h"
#include "data/synthetic.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

std::string TempGfcmPath() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") +
         "/groupform_backend_test.gfcm";
}

/// Writes the GFCM packing of the canonical test instance (integer
/// ratings, so quantization is exact) and returns its path.
std::string WriteTestGfcm() {
  const auto matrix = data::GenerateLatentFactor(
      data::MovieLensLikeConfig(12, 8, /*seed=*/5));
  const auto compact = data::CompactRatingMatrix::FromMatrix(matrix, 8);
  const std::string path = TempGfcmPath();
  const auto saved = data::SaveCompactBinary(compact, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return path;
}

/// The same population as WriteTestGfcm, as a generated spec.
InstanceSpec SyntheticSpec(const std::string& backend) {
  InstanceSpec spec;
  spec.kind = "synthetic";
  spec.preset = "movielens";
  spec.users = 12;
  spec.items = 8;
  spec.seed = 5;
  spec.backend = backend;
  return spec;
}

Request TestRequest(InstanceSpec instance) {
  Request request;
  request.id = "b";
  request.solver = "greedy";
  request.instance = std::move(instance);
  request.problem.k = 3;
  request.problem.groups = 4;
  request.include_groups = true;
  return request;
}

class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }
};

TEST_F(BackendTest, BackendFieldsParseRenderRoundTrip) {
  InstanceSpec gfcm;
  gfcm.kind = "gfcm";
  gfcm.backend = "mmap";  // the struct default "dense" is per-kind: gfcm's
                          // wire default is mmap
  gfcm.path = "/data/x.gfcm";
  Request request = TestRequest(gfcm);
  // gfcm defaults to mmap: the rendered line must not name the backend.
  const std::string rendered = RenderRequest(request);
  EXPECT_EQ(rendered.find("backend"), std::string::npos);
  auto parsed = ParseRequestLine(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->instance.backend, "mmap");
  EXPECT_EQ(RenderRequest(*parsed), rendered);

  request.instance.backend = "compact";
  const std::string compact_line = RenderRequest(request);
  EXPECT_NE(compact_line.find("\"backend\":\"compact\""),
            std::string::npos);
  parsed = ParseRequestLine(compact_line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->instance.backend, "compact");
  EXPECT_EQ(RenderRequest(*parsed), compact_line);

  Request synth = TestRequest(SyntheticSpec("compact"));
  synth.instance.qbits = 16;
  const std::string qline = RenderRequest(synth);
  EXPECT_NE(qline.find("\"qbits\":16"), std::string::npos);
  parsed = ParseRequestLine(qline);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->instance.qbits, 16);
  EXPECT_EQ(RenderRequest(*parsed), qline);
}

TEST_F(BackendTest, MmapRequiresAGfcmFile) {
  const auto parsed = ParseRequestLine(
      R"({"schema":"groupform.request/1","solver":"greedy",)"
      R"("instance":{"kind":"dense","backend":"mmap","users":4,"items":4}})");
  EXPECT_EQ(parsed.status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(BackendTest, BackendsAreDistinctCacheEntries) {
  EXPECT_NE(SyntheticSpec("dense").CanonicalKey(),
            SyntheticSpec("compact").CanonicalKey());
  InstanceSpec q16 = SyntheticSpec("compact");
  q16.qbits = 16;
  EXPECT_NE(SyntheticSpec("compact").CanonicalKey(), q16.CanonicalKey());
  // Dense keys are unchanged from the pre-backend protocol.
  EXPECT_EQ(SyntheticSpec("dense").CanonicalKey(),
            "synthetic:movielens:12x8:s5");
}

TEST_F(BackendTest, CacheChargesExactBytesPerBackend) {
  const std::string path = WriteTestGfcm();
  InstanceCache cache(/*capacity_bytes=*/0);

  const auto dense = cache.Get(SyntheticSpec("dense"));
  ASSERT_TRUE(dense.ok()) << dense.status();
  EXPECT_EQ(cache.stats().bytes, dense->dense->ByteSize());
  EXPECT_EQ(dense->ChargedBytes(), dense->dense->ByteSize());
  const std::int64_t after_dense = cache.stats().bytes;

  const auto compact = cache.Get(SyntheticSpec("compact"));
  ASSERT_TRUE(compact.ok()) << compact.status();
  ASSERT_NE(compact->compact, nullptr);
  EXPECT_EQ(cache.stats().bytes,
            after_dense + compact->compact->ByteSize());
  EXPECT_LT(compact->compact->ByteSize(), dense->dense->ByteSize());

  InstanceSpec mmap_spec;
  mmap_spec.kind = "gfcm";
  mmap_spec.backend = "mmap";
  mmap_spec.path = path;
  const std::int64_t before_mmap = cache.stats().bytes;
  const auto mapped = cache.Get(mmap_spec);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_NE(mapped->compact, nullptr);
  EXPECT_TRUE(mapped->compact->mmap_backed());
  // The mmap regression the §14.3 contract pins: the payload is not
  // charged, only the fixed overhead.
  EXPECT_EQ(cache.stats().bytes,
            before_mmap + data::kMmapResidentOverheadBytes);
  std::remove(path.c_str());
}

TEST_F(BackendTest, ServesAnInstanceLargerThanTheCacheBudget) {
  // A population big enough that a quarter of its GFCM file still
  // dwarfs the fixed mmap overhead.
  const auto matrix = data::GenerateLatentFactor(
      data::MovieLensLikeConfig(1500, 64, /*seed=*/11));
  const auto compact = data::CompactRatingMatrix::FromMatrix(matrix, 8);
  const std::string path = TempGfcmPath();
  ASSERT_TRUE(data::SaveCompactBinary(compact, path).ok());
  std::int64_t file_bytes = 0;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    file_bytes = std::ftell(file);
    std::fclose(file);
  }
  // A budget far below the file: only the mmap backend can serve this
  // without blowing the budget on every request.
  SessionConfig config;
  config.cache_bytes = file_bytes / 4;
  ASSERT_GT(config.cache_bytes, data::kMmapResidentOverheadBytes);
  Session session(config);

  InstanceSpec spec;
  spec.kind = "gfcm";
  spec.backend = "mmap";
  spec.path = path;

  // Byte-identical responses across thread counts, and no eviction churn
  // (the charged overhead stays within budget).
  common::ThreadPool::SetDefaultThreadCount(1);
  const Response baseline = session.Execute(TestRequest(spec));
  ASSERT_EQ(baseline.state, eval::SweepCellState::kOk) << baseline.status;
  const std::string baseline_line = RenderResponse(baseline);
  for (const int threads : {2, 8}) {
    common::ThreadPool::SetDefaultThreadCount(threads);
    const Response again = session.Execute(TestRequest(spec));
    EXPECT_EQ(RenderResponse(again), baseline_line)
        << "at " << threads << " threads";
  }
  EXPECT_LE(session.cache().stats().bytes, config.cache_bytes);
  EXPECT_EQ(session.cache().stats().evictions, 0);
  std::remove(path.c_str());
}

TEST_F(BackendTest, AllBackendsAnswerIntegerInstancesIdentically) {
  const std::string path = WriteTestGfcm();
  Session session;
  common::ThreadPool::SetDefaultThreadCount(1);
  const Response dense = session.Execute(TestRequest(SyntheticSpec("dense")));
  ASSERT_EQ(dense.state, eval::SweepCellState::kOk) << dense.status;
  const Response compact =
      session.Execute(TestRequest(SyntheticSpec("compact")));
  InstanceSpec gfcm;
  gfcm.kind = "gfcm";
  gfcm.backend = "mmap";
  gfcm.path = path;
  const Response mapped = session.Execute(TestRequest(gfcm));
  // Integer ratings quantize exactly, so objective, metrics, and the
  // full partition agree bit-for-bit; only the echoed id/instance could
  // differ, and TestRequest pins those equal.
  EXPECT_EQ(RenderResponse(compact), RenderResponse(dense));
  EXPECT_EQ(RenderResponse(mapped), RenderResponse(dense));
  std::remove(path.c_str());
}

TEST_F(BackendTest, DeltaStreamsRequireTheDenseBackend) {
  Session session;
  Request request = TestRequest(SyntheticSpec("compact"));
  request.is_delta = true;
  core::PopulationDelta delta;
  delta.kind = core::PopulationDelta::Kind::kRemoveUser;
  delta.user = 3;
  request.deltas.push_back(delta);
  const Response response = session.Execute(request);
  EXPECT_EQ(response.state, eval::SweepCellState::kErr);
  EXPECT_EQ(response.status.code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("dense backend"),
            std::string::npos);
}

}  // namespace
}  // namespace groupform::serve
