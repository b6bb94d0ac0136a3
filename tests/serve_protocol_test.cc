// JSONL protocol round-trip tests, centered on the response side: every
// ResponseToJson encoding must parse back via ParseSolveResponseLine into
// an equivalent response whose re-encoding is byte-identical (the
// fixed-point property the response fuzzer enforces at scale), including
// the kOverloaded guidance fields retry_after_ms and shed_reason.

#include "serve/protocol.h"

#include <string>

#include <gtest/gtest.h>

#include "serve/request.h"

namespace soc::serve {
namespace {

// Encode -> parse -> re-encode must be a fixed point.
SolveResponse RoundTrip(const SolveResponse& response) {
  const std::string encoded = ResponseToJson(response).ToString();
  auto parsed = ParseSolveResponseLine(encoded);
  EXPECT_TRUE(parsed.ok()) << encoded << ": " << parsed.status().ToString();
  if (!parsed.ok()) return SolveResponse{};
  EXPECT_EQ(ResponseToJson(*parsed).ToString(), encoded);
  return std::move(parsed).value();
}

TEST(ServeProtocolTest, OkResponseRoundTrips) {
  SolveResponse response;
  response.id = "r17";
  response.solver = "BranchAndBound";
  response.solution.selected = DynamicBitset::FromString("010110");
  response.solution.satisfied_queries = 42;
  response.solution.proved_optimal = true;
  response.queue_ms = 0.25;
  response.solve_ms = 3.5;

  const SolveResponse parsed = RoundTrip(response);
  EXPECT_EQ(parsed.id, "r17");
  EXPECT_TRUE(parsed.status.ok());
  EXPECT_EQ(parsed.solver, "BranchAndBound");
  EXPECT_EQ(parsed.solution.selected.ToString(), "010110");
  EXPECT_EQ(parsed.solution.satisfied_queries, 42);
  EXPECT_TRUE(parsed.solution.proved_optimal);
  EXPECT_FALSE(parsed.degraded);
  EXPECT_EQ(parsed.queue_ms, 0.25);
  EXPECT_EQ(parsed.solve_ms, 3.5);
}

TEST(ServeProtocolTest, DegradedResponseCarriesItsStopReason) {
  SolveResponse response;
  response.id = "slow";
  response.solver = "ILP";
  response.solution.selected = DynamicBitset::FromString("1100");
  response.solution.satisfied_queries = 7;
  response.degraded = true;
  response.stop_reason = StopReason::kDeadline;

  const SolveResponse parsed = RoundTrip(response);
  EXPECT_TRUE(parsed.degraded);
  EXPECT_EQ(parsed.stop_reason, StopReason::kDeadline);
}

TEST(ServeProtocolTest, ShedResponseRoundTripsGuidanceFields) {
  SolveResponse response;
  response.id = "shed-1";
  response.status = OverloadedError("predicted completion exceeds deadline");
  response.shed_reason = kShedReasonPredicted;
  response.retry_after_ms = 12.5;

  const SolveResponse parsed = RoundTrip(response);
  EXPECT_EQ(parsed.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(parsed.status.message(),
            "predicted completion exceeds deadline");
  EXPECT_EQ(parsed.shed_reason, kShedReasonPredicted);
  EXPECT_EQ(parsed.retry_after_ms, 12.5);
  // An error line never leaks solution fields.
  EXPECT_EQ(parsed.solution.selected.Count(), 0u);
}

TEST(ServeProtocolTest, ErrorResponseWithoutGuidanceOmitsTheFields) {
  SolveResponse response;
  response.id = "bad";
  response.status = InvalidArgumentError("tuple width 3 != 12");

  const std::string encoded = ResponseToJson(response).ToString();
  EXPECT_EQ(encoded.find("shed_reason"), std::string::npos);
  EXPECT_EQ(encoded.find("retry_after_ms"), std::string::npos);
  const SolveResponse parsed = RoundTrip(response);
  EXPECT_EQ(parsed.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.retry_after_ms, 0);
  EXPECT_TRUE(parsed.shed_reason.empty());
}

TEST(ServeProtocolTest, EveryShedReasonConstantRoundTrips) {
  for (const char* reason :
       {kShedReasonQueueFull, kShedReasonPredicted, kShedReasonExpired,
        kShedReasonShutdown}) {
    SolveResponse response;
    response.id = "x";
    response.status = OverloadedError("shed");
    response.shed_reason = reason;
    response.retry_after_ms = 1;
    EXPECT_EQ(RoundTrip(response).shed_reason, reason);
  }
}

TEST(ServeProtocolTest, ParseRejectsMalformedResponses) {
  const char* malformed[] = {
      // Not JSON at all.
      "nope",
      // Missing status.
      R"({"id":"1"})",
      // Unknown status code.
      R"({"id":"1","status":"Sideways","error":"x"})",
      // OK line without a selection.
      R"({"id":"1","status":"OK"})",
      // 'error' on an OK line.
      R"({"id":"1","status":"OK","error":"x","selected":"01"})",
      // Solution fields on an error line.
      R"({"id":"1","status":"Overloaded","error":"x","selected":"01"})",
      // Error line without a message.
      R"({"id":"1","status":"Overloaded"})",
      // degraded <-> stop_reason parity, both directions.
      R"({"id":"1","status":"OK","selected":"01","degraded":true})",
      R"({"id":"1","status":"OK","selected":"01","stop_reason":"deadline"})",
      // Unknown stop reason.
      R"({"id":"1","status":"OK","selected":"01","degraded":true,)"
      R"("stop_reason":"tired"})",
      // Negative retry hint.
      R"({"id":"1","status":"Overloaded","error":"x","retry_after_ms":-1})",
      // Non-bitstring selection.
      R"({"id":"1","status":"OK","selected":"0x1"})",
      // Unknown field.
      R"({"id":"1","status":"OK","selected":"01","verbosity":3})",
  };
  for (const char* line : malformed) {
    EXPECT_FALSE(ParseSolveResponseLine(line).ok()) << line;
  }
}

TEST(ServeProtocolTest, ParseAcceptsHandWrittenShedLine) {
  // The exact shape socvis_serve emits for a predictive shed; clients
  // parsing the stream by hand depend on these field names.
  auto parsed = ParseSolveResponseLine(
      R"({"id":"9","status":"Overloaded",)"
      R"("error":"predicted completion 30ms exceeds deadline 10ms",)"
      R"("shed_reason":"predicted_deadline_miss","retry_after_ms":15})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(parsed->shed_reason, "predicted_deadline_miss");
  EXPECT_EQ(parsed->retry_after_ms, 15);
}

TEST(ServeProtocolTest, MultiTenantResponseRoundTripsItsMetadata) {
  SolveResponse response;
  response.id = "r3";
  response.tenant_id = "acme";
  response.epoch = 7;
  response.cache_hit = true;
  response.solver = "ILP";
  response.solution.selected = DynamicBitset::FromString("0101");
  response.solution.satisfied_queries = 12;
  response.solve_ms = 0.05;

  const SolveResponse parsed = RoundTrip(response);
  EXPECT_EQ(parsed.tenant_id, "acme");
  EXPECT_EQ(parsed.epoch, 7);
  EXPECT_TRUE(parsed.cache_hit);
}

TEST(ServeProtocolTest, SingleTenantResponseOmitsTenantFields) {
  SolveResponse response;
  response.id = "r1";
  response.solution.selected = DynamicBitset::FromString("01");
  response.solution.satisfied_queries = 1;

  const std::string encoded = ResponseToJson(response).ToString();
  EXPECT_EQ(encoded.find("tenant_id"), std::string::npos);
  EXPECT_EQ(encoded.find("epoch"), std::string::npos);
  EXPECT_EQ(encoded.find("cache_hit"), std::string::npos);
}

TEST(ServeProtocolTest, ParseRejectsMalformedTenantResponses) {
  const char* malformed[] = {
      // cache_hit is only meaningful on OK lines.
      R"({"id":"1","status":"Overloaded","error":"x","cache_hit":true})",
      // Epochs are positive integers.
      R"({"id":"1","status":"OK","selected":"01","epoch":0})",
      R"({"id":"1","status":"OK","selected":"01","epoch":-3})",
      R"({"id":"1","status":"OK","selected":"01","epoch":1.5})",
      // tenant_id must be a non-empty string.
      R"({"id":"1","status":"OK","selected":"01","tenant_id":""})",
      R"({"id":"1","status":"OK","selected":"01","tenant_id":17})",
      // Numbers must be finite: 1e309 overflows to inf, which would
      // re-encode as null and break the fixed point.
      R"({"id":"1","status":"OK","selected":"01","queue_ms":1e309})",
  };
  for (const char* line : malformed) {
    EXPECT_FALSE(ParseSolveResponseLine(line).ok()) << line;
  }
}

TEST(ServeProtocolTest, RequestParsersCarryTenantId) {
  const std::string line =
      R"({"id":"r1","tenant_id":"acme","tuple":"110101","m":3})";
  QueryLog log(AttributeSchema::Anonymous(6));
  auto with_log = ParseSolveRequestLine(line, log, 1);
  ASSERT_TRUE(with_log.ok()) << with_log.status().ToString();
  EXPECT_EQ(with_log->tenant_id, "acme");

  // The width-agnostic overload used by the sharded front door accepts
  // any tuple width; the tenant's own catalog checks it at admission.
  auto width_agnostic = ParseSolveRequestLine(line, /*num_attributes=*/-1, 1);
  ASSERT_TRUE(width_agnostic.ok()) << width_agnostic.status().ToString();
  EXPECT_EQ(width_agnostic->tenant_id, "acme");
  EXPECT_EQ(width_agnostic->tuple.ToString(), "110101");
}

TEST(ServeProtocolTest, RequestParserRejectsBadTenantIds) {
  const std::string oversized(kMaxTenantIdBytes + 1, 'x');
  const std::string bad[] = {
      R"({"id":"r1","tenant_id":"","tuple":"01","m":1})",
      R"({"id":"r1","tenant_id":42,"tuple":"01","m":1})",
      R"({"id":"r1","tenant_id":")" + oversized + R"(","tuple":"01","m":1})",
  };
  for (const std::string& line : bad) {
    EXPECT_FALSE(ParseSolveRequestLine(line, /*num_attributes=*/-1, 1).ok())
        << line;
  }
  // Exactly at the cap is legal.
  const std::string max_id(kMaxTenantIdBytes, 'x');
  EXPECT_TRUE(ParseSolveRequestLine(
                  R"({"id":"r1","tenant_id":")" + max_id +
                      R"(","tuple":"01","m":1})",
                  /*num_attributes=*/-1, 1)
                  .ok());
}

TEST(ServeProtocolTest, AdminLinesAreDetectedAndParsed) {
  const std::string line =
      R"({"admin":"create_tenant","tenant_id":"acme","log":"acme.csv"})";
  EXPECT_TRUE(LooksLikeAdminLine(line));
  EXPECT_FALSE(LooksLikeAdminLine(
      R"({"id":"r1","tuple":"01","m":1})"));

  auto parsed = ParseAdminRequestLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->action, "create_tenant");
  EXPECT_EQ(parsed->tenant_id, "acme");
  EXPECT_EQ(parsed->log_path, "acme.csv");

  auto publish = ParseAdminRequestLine(
      R"({"admin":"publish_epoch","tenant_id":"a","log":"v2.csv"})");
  ASSERT_TRUE(publish.ok());
  EXPECT_EQ(publish->action, "publish_epoch");
}

TEST(ServeProtocolTest, AdminParserRejectsMalformedLines) {
  const char* malformed[] = {
      // Unknown action.
      R"({"admin":"drop_tenant","tenant_id":"a","log":"x.csv"})",
      // Missing / empty required fields.
      R"({"admin":"create_tenant","log":"x.csv"})",
      R"({"admin":"create_tenant","tenant_id":"a"})",
      R"({"admin":"create_tenant","tenant_id":"","log":"x.csv"})",
      // Unknown fields are errors, as on the solve-request parser.
      R"({"admin":"create_tenant","tenant_id":"a","log":"x.csv","m":2})",
      // A solve-request line is not an admin line.
      R"({"id":"r1","tuple":"01","m":1})",
  };
  for (const char* line : malformed) {
    EXPECT_FALSE(ParseAdminRequestLine(line).ok()) << line;
  }
}

TEST(ServeProtocolTest, StatusAndStopReasonNamesRoundTripThroughStrings) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOverloaded, StatusCode::kDeadlineExceeded,
        StatusCode::kInternal}) {
    StatusCode back;
    ASSERT_TRUE(StatusCodeFromString(StatusCodeToString(code), &back));
    EXPECT_EQ(back, code);
  }
  StatusCode ignored_code;
  EXPECT_FALSE(StatusCodeFromString("NotACode", &ignored_code));
  for (StopReason reason :
       {StopReason::kNone, StopReason::kDeadline, StopReason::kCancelled,
        StopReason::kTickBudget, StopReason::kResourceLimit}) {
    StopReason back;
    ASSERT_TRUE(StopReasonFromString(StopReasonToString(reason), &back));
    EXPECT_EQ(back, reason);
  }
  StopReason ignored_reason;
  EXPECT_FALSE(StopReasonFromString("tired", &ignored_reason));
}

}  // namespace
}  // namespace soc::serve
