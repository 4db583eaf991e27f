// The GFB1 frame codec and the batch envelope (DESIGN.md §15): encode ∘
// decode is the identity frame-for-frame, decoding is incremental
// (kNeedMore until the frame completes), codec errors are unrecoverable
// and explicit, and the batch envelope round-trips with per-element
// request semantics — including rejection of empty, nested, and
// oversized batches.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"

namespace groupform::serve {
namespace {

constexpr std::size_t kTestPayloadCap = 1 << 20;

Request SmallRequest(const std::string& id) {
  Request request;
  request.id = id;
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 8;
  request.instance.items = 5;
  request.instance.clusters = 2;
  request.instance.seed = 4;
  request.problem.k = 2;
  request.problem.groups = 3;
  return request;
}

TEST(FrameCodec, EncodeDecodeRoundTripsEveryType) {
  const FrameType types[] = {FrameType::kHello, FrameType::kRequest,
                             FrameType::kResponse, FrameType::kBatchRequest,
                             FrameType::kBatchResponse};
  const std::uint16_t credit_values[] = {0, 1, 16, 100, 65535};
  for (const FrameType type : types) {
    for (const std::uint16_t credits : credit_values) {
      const std::string payload = "{\"p\":" + std::to_string(credits) + "}";
      const std::string encoded = EncodeFrame(type, credits, payload);
      EXPECT_EQ(encoded.size(), kFrameHeaderBytes + payload.size());
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      ASSERT_EQ(DecodeFrame(encoded, kTestPayloadCap, &frame, &consumed,
                            &error),
                FrameDecodeResult::kFrame)
          << error;
      EXPECT_EQ(frame.type, type);
      EXPECT_EQ(frame.credits, credits);
      EXPECT_EQ(frame.payload, payload);
      EXPECT_EQ(consumed, encoded.size());
    }
  }
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  const std::string encoded = EncodeFrame(FrameType::kHello, 3, "");
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(
      DecodeFrame(encoded, kTestPayloadCap, &frame, &consumed, &error),
      FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.payload, "");
  EXPECT_EQ(frame.credits, 3);
  EXPECT_EQ(consumed, kFrameHeaderBytes);
}

TEST(FrameCodec, DecodeIsIncrementalBytewise) {
  const std::string encoded =
      EncodeFrame(FrameType::kRequest, 0, "{\"id\":\"x\"}");
  // Every strict prefix must ask for more bytes, never error, never
  // produce a frame.
  for (std::size_t take = 0; take < encoded.size(); ++take) {
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeFrame(std::string_view(encoded).substr(0, take),
                          kTestPayloadCap, &frame, &consumed, &error),
              FrameDecodeResult::kNeedMore)
        << "prefix of " << take << " bytes";
  }
  // Two frames back to back: the first decode consumes exactly one.
  const std::string second = EncodeFrame(FrameType::kResponse, 1, "{}");
  const std::string both = encoded + second;
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(both, kTestPayloadCap, &frame, &consumed, &error),
            FrameDecodeResult::kFrame);
  EXPECT_EQ(consumed, encoded.size());
  EXPECT_EQ(frame.type, FrameType::kRequest);
  ASSERT_EQ(DecodeFrame(std::string_view(both).substr(consumed),
                        kTestPayloadCap, &frame, &consumed, &error),
            FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.credits, 1);
}

TEST(FrameCodec, RejectsUnknownTypeBeforeTheHeaderCompletes) {
  std::string encoded = EncodeFrame(FrameType::kRequest, 0, "{}");
  encoded[4] = 9;  // no such frame type
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  // Even a 5-byte prefix is enough to fail fast.
  EXPECT_EQ(DecodeFrame(std::string_view(encoded).substr(0, 5),
                        kTestPayloadCap, &frame, &consumed, &error),
            FrameDecodeResult::kError);
  EXPECT_NE(error.find("unknown frame type"), std::string::npos);
  EXPECT_EQ(DecodeFrame(encoded, kTestPayloadCap, &frame, &consumed,
                        &error),
            FrameDecodeResult::kError);
}

TEST(FrameCodec, RejectsNonzeroFlags) {
  std::string encoded = EncodeFrame(FrameType::kRequest, 0, "{}");
  encoded[5] = 0x40;
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(encoded, kTestPayloadCap, &frame, &consumed,
                        &error),
            FrameDecodeResult::kError);
  EXPECT_NE(error.find("flags"), std::string::npos);
}

TEST(FrameCodec, RejectsOversizePayloadWithoutBuffering) {
  // Header declares a payload bigger than the cap: error immediately,
  // even though the payload bytes never arrive.
  const std::string big(kTestPayloadCap + 1, 'x');
  const std::string encoded = EncodeFrame(FrameType::kRequest, 0, big);
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(std::string_view(encoded).substr(
                            0, kFrameHeaderBytes),
                        kTestPayloadCap, &frame, &consumed, &error),
            FrameDecodeResult::kError);
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

TEST(FrameCodec, HelloRoundTrips) {
  Hello hello;
  hello.credits = 37;
  hello.max_frame_bytes = kMaxRequestLineBytes;
  hello.max_batch_requests = kMaxBatchRequests;
  const std::string payload = RenderHello(hello);
  const auto parsed = ParseHelloPayload(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->credits, 37);
  EXPECT_EQ(parsed->max_frame_bytes, kMaxRequestLineBytes);
  EXPECT_EQ(parsed->max_batch_requests, kMaxBatchRequests);
  EXPECT_FALSE(ParseHelloPayload("{\"schema\":\"nope\"}").ok());
  EXPECT_FALSE(ParseHelloPayload("not json").ok());
}

TEST(BatchEnvelope, RenderParseIsTheIdentity) {
  BatchRequest batch;
  batch.id = "b-1";
  batch.requests.push_back(SmallRequest("a"));
  Request delta = SmallRequest("d");
  delta.is_delta = true;
  delta.deltas.push_back({core::PopulationDelta::Kind::kRemoveUser, 3, 0,
                          0.0});
  batch.requests.push_back(delta);
  const std::string line = RenderBatchRequest(batch);
  const auto parsed = ParseBatchRequestLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, "b-1");
  ASSERT_EQ(parsed->requests.size(), 2u);
  EXPECT_FALSE(parsed->requests[0].is_delta);
  EXPECT_TRUE(parsed->requests[1].is_delta);
  // parse ∘ render = identity, element-wise and envelope-wise.
  EXPECT_EQ(RenderBatchRequest(*parsed), line);
  EXPECT_EQ(RenderRequest(parsed->requests[0]),
            RenderRequest(batch.requests[0]));
}

TEST(BatchEnvelope, RejectsEmptyNestedAndOversizedBatches) {
  EXPECT_FALSE(
      ParseBatchRequestLine(
          "{\"schema\":\"groupform.batch/1\",\"id\":\"\",\"requests\":[]}")
          .ok());
  // A nested batch fails the element schema check, with the element
  // named in the error.
  BatchRequest inner;
  inner.requests.push_back(SmallRequest("a"));
  const std::string nested =
      "{\"schema\":\"groupform.batch/1\",\"id\":\"\",\"requests\":[" +
      RenderBatchRequest(inner) + "]}";
  const auto nested_or = ParseBatchRequestLine(nested);
  ASSERT_FALSE(nested_or.ok());
  EXPECT_NE(nested_or.status().message().find("requests[0]"),
            std::string::npos);
  // One element over the limit.
  std::string big =
      "{\"schema\":\"groupform.batch/1\",\"id\":\"\",\"requests\":[";
  const std::string element = RenderRequest(SmallRequest("x"));
  for (int i = 0; i <= kMaxBatchRequests; ++i) {
    if (i > 0) big += ',';
    big += element;
  }
  big += "]}";
  const auto big_or = ParseBatchRequestLine(big);
  ASSERT_FALSE(big_or.ok());
  EXPECT_NE(big_or.status().message().find("batch limit"),
            std::string::npos);
}

TEST(BatchEnvelope, BatchResponseRoundTrips) {
  BatchResponse batch;
  batch.id = "b-2";
  Response ok;
  ok.id = "a";
  ok.solver = "greedy";
  ok.objective = 1.25;
  ok.num_groups = 3;
  Response err;
  err.id = "b";
  err.state = eval::SweepCellState::kErr;
  err.status = common::Status::NotFound("no such solver");
  batch.responses.push_back(ok);
  batch.responses.push_back(err);
  const std::string line = RenderBatchResponse(batch);
  const auto parsed = ParseBatchResponseLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->responses.size(), 2u);
  EXPECT_EQ(parsed->responses[0].state, eval::SweepCellState::kOk);
  EXPECT_EQ(parsed->responses[1].state, eval::SweepCellState::kErr);
  EXPECT_EQ(RenderBatchResponse(*parsed), line);
}

TEST(BatchEnvelope, SplitReturnsElementDocsVerbatim) {
  // The broker's gather path: the splice inverse must hand back exactly
  // the bytes the worker rendered, id escapes and nested structure
  // notwithstanding.
  Response ok;
  ok.id = "a";
  ok.solver = "greedy";
  ok.objective = 1.0 / 3.0;  // a float whose formatting must not drift
  ok.num_groups = 2;
  Response err;
  err.id = "tricky\"],\\id";
  err.state = eval::SweepCellState::kErr;
  err.status = common::Status::NotFound("missing [brace, \"quote\"]");
  const std::vector<std::string> docs = {RenderResponse(ok),
                                         RenderResponse(err)};
  const std::string line =
      RenderBatchResponseFromDocs("id with \"quotes\" and ]},", docs);
  const auto split = SplitBatchResponseDocs(line);
  ASSERT_TRUE(split.ok()) << split.status();
  ASSERT_EQ(split->size(), docs.size());
  EXPECT_EQ((*split)[0], docs[0]);
  EXPECT_EQ((*split)[1], docs[1]);
}

TEST(BatchEnvelope, RequestSpliceRoundTripsThroughTheParser) {
  // The broker side: a canonical batch line splits into verbatim
  // element docs, and sub-envelopes spliced from any subset of them
  // parse back to the matching Request subset.
  BatchRequest batch;
  batch.id = "b-9";
  batch.requests.push_back(SmallRequest("a"));
  batch.requests.push_back(SmallRequest("b"));
  batch.requests.push_back(SmallRequest("c"));
  const std::string line = RenderBatchRequest(batch);
  const auto split = SplitBatchRequestDocs(line);
  ASSERT_TRUE(split.ok()) << split.status();
  ASSERT_EQ(split->size(), 3u);
  EXPECT_EQ((*split)[1], RenderRequest(batch.requests[1]));
  const std::vector<std::string> subset = {(*split)[2], (*split)[0]};
  const auto sub = ParseBatchRequestLine(
      RenderBatchRequestFromDocs(batch.id, subset));
  ASSERT_TRUE(sub.ok()) << sub.status();
  ASSERT_EQ(sub->requests.size(), 2u);
  EXPECT_EQ(sub->id, "b-9");
  EXPECT_EQ(sub->requests[0].id, "c");
  EXPECT_EQ(sub->requests[1].id, "a");
}

TEST(BatchEnvelope, SplitRejectsNonCanonicalEnvelopes) {
  for (const std::string& bad : {
           std::string("{\"schema\":\"groupform.response/1\"}"),
           std::string("{\"schema\":\"groupform.batchresponse/1\","
                       "\"responses\":[],\"id\":\"x\"}"),  // wrong order
           std::string("{\"schema\":\"groupform.batchresponse/1\","
                       "\"id\":\"x\",\"responses\":[{}"),  // truncated
           std::string("{\"schema\":\"groupform.batchresponse/1\","
                       "\"id\":\"x\",\"responses\":[{},]}"),  // empty elt
           std::string(""),
       }) {
    EXPECT_FALSE(SplitBatchResponseDocs(bad).ok()) << bad;
  }
  const auto empty = SplitBatchResponseDocs(
      "{\"schema\":\"groupform.batchresponse/1\",\"id\":\"\","
      "\"responses\":[]}");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
}

TEST(BatchEnvelope, ParseAnyDispatchesOnSchema) {
  const auto single = ParseAnyRequestLine(RenderRequest(SmallRequest("s")));
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_FALSE(single->is_batch);
  EXPECT_EQ(single->request.id, "s");
  BatchRequest batch;
  batch.id = "b";
  batch.requests.push_back(SmallRequest("a"));
  const auto any = ParseAnyRequestLine(RenderBatchRequest(batch));
  ASSERT_TRUE(any.ok()) << any.status();
  EXPECT_TRUE(any->is_batch);
  EXPECT_EQ(any->batch.id, "b");
  EXPECT_FALSE(ParseAnyRequestLine("{\"schema\":\"nope/9\"}").ok());
}

}  // namespace
}  // namespace groupform::serve
