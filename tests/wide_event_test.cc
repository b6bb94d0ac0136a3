// Wide-event schema tests: encode/parse round trips are a fixed point,
// optional fields are omitted at their defaults, the strict parser
// rejects malformed lines, and the serve layer's shed reasons, which
// name entries of the schema's vocabulary, cover all of it.

#include "obs/wide_event.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "serve/request.h"

namespace soc::obs {
namespace {

// A fully populated "ok" event touching every optional field.
WideEvent FullOkEvent() {
  WideEvent event;
  event.ts_ms = 1234.5;
  event.id = "req-7";
  event.tenant = "acme";
  event.shard = 3;
  event.epoch = 11;
  event.solver_req = "ILP";
  event.solver = "Fallback";
  event.m = 4;
  event.deadline_ms = 50;
  event.num_queries = 120;
  event.num_attributes = 14;
  event.collapse_ratio = 0.4;
  event.queue_ms = 0.25;
  event.solve_ms = 3.75;
  event.total_ms = 4.0;
  event.predicted_ms = 3.5;
  event.outcome = "ok";
  event.code = "OK";
  event.stop_reason = "deadline";
  event.degraded = true;
  event.fast_path = false;
  event.cache_hit = true;
  event.breaker_rerouted = true;
  event.ladder_downgraded = true;
  event.satisfied = 97;
  return event;
}

// encode(parse(encode(e))) == encode(e): the documented fixed point.
void ExpectFixedPoint(const WideEvent& event) {
  const std::string line = WideEventToJsonLine(event);
  StatusOr<WideEvent> parsed = ParseWideEventLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  EXPECT_EQ(WideEventToJsonLine(*parsed), line);
}

TEST(WideEventTest, RoundTripIsAFixedPointForEveryOutcome) {
  ExpectFixedPoint(FullOkEvent());

  WideEvent shed;
  shed.id = "req-8";
  shed.solver_req = "BranchAndBound";
  shed.solver = "BranchAndBound";
  shed.m = 2;
  shed.num_queries = 10;
  shed.num_attributes = 6;
  shed.collapse_ratio = 1;
  shed.outcome = "shed";
  shed.code = "Overloaded";
  shed.shed_reason = "queue_full";
  shed.retry_after_ms = 12.5;
  ExpectFixedPoint(shed);

  WideEvent invalid;
  invalid.id = "req-9";
  invalid.solver_req = "NoSuchSolver";
  invalid.outcome = "invalid";
  invalid.code = "NotFound";
  ExpectFixedPoint(invalid);

  WideEvent error;
  error.id = "req-10";
  error.solver_req = "ILP";
  error.solver = "ILP";
  error.outcome = "error";
  error.code = "Internal";
  ExpectFixedPoint(error);
}

TEST(WideEventTest, OptionalFieldsAreOmittedAtTheirDefaults) {
  WideEvent event;
  event.id = "req-1";
  event.solver_req = "ILP";
  event.solver = "ILP";
  const std::string line = WideEventToJsonLine(event);
  // Optional fields at defaults must not appear at all — this is what
  // keeps encode(parse(line)) == line for minimal lines.
  for (const char* absent :
       {"tenant", "shard", "epoch", "deadline_ms", "predicted_ms",
        "shed_reason", "stop_reason", "degraded", "fast_path", "cache_hit",
        "breaker_rerouted", "ladder_downgraded", "satisfied",
        "retry_after_ms"}) {
    EXPECT_EQ(line.find(std::string("\"") + absent + "\""),
              std::string::npos)
        << absent << " should be omitted in: " << line;
  }
  ExpectFixedPoint(event);
}

TEST(WideEventTest, NegativeBudgetSentinelRoundTripsButBelowItRejects) {
  // m == -1 is the documented "client sent a negative budget" sentinel.
  WideEvent event;
  event.id = "req-2";
  event.solver_req = "ILP";
  event.solver = "";
  event.m = -1;
  event.outcome = "invalid";
  event.code = "InvalidArgument";
  ExpectFixedPoint(event);

  // Anything below the sentinel is out of schema.
  std::string line = WideEventToJsonLine(event);
  const auto at = line.find("\"m\":-1");
  ASSERT_NE(at, std::string::npos);
  line.replace(at, 6, "\"m\":-2");
  EXPECT_FALSE(ParseWideEventLine(line).ok());
}

TEST(WideEventTest, ParserRejectsMalformedLines) {
  const std::string good = WideEventToJsonLine(FullOkEvent());
  ASSERT_TRUE(ParseWideEventLine(good).ok());

  // Unknown field.
  std::string unknown = good;
  unknown.insert(unknown.size() - 1, ",\"mystery\":1");
  EXPECT_FALSE(ParseWideEventLine(unknown).ok());

  // Wrong schema version.
  std::string version = good;
  const auto v = version.find("\"v\":1");
  ASSERT_NE(v, std::string::npos);
  version.replace(v, 5, "\"v\":2");
  EXPECT_FALSE(ParseWideEventLine(version).ok());

  // Wrong type for a numeric field.
  std::string typed = good;
  const auto q = typed.find("\"num_queries\":120");
  ASSERT_NE(q, std::string::npos);
  typed.replace(q, 17, "\"num_queries\":\"x\"");
  EXPECT_FALSE(ParseWideEventLine(typed).ok());

  // Out-of-vocabulary enums.
  std::string outcome = good;
  const auto o = outcome.find("\"outcome\":\"ok\"");
  ASSERT_NE(o, std::string::npos);
  outcome.replace(o, 14, "\"outcome\":\"eh\"");
  EXPECT_FALSE(ParseWideEventLine(outcome).ok());

  // Negative latency.
  std::string latency = good;
  const auto l = latency.find("\"queue_ms\":0.25");
  ASSERT_NE(l, std::string::npos);
  latency.replace(l, 15, "\"queue_ms\":-0.2");
  EXPECT_FALSE(ParseWideEventLine(latency).ok());

  // Not JSON at all / empty.
  EXPECT_FALSE(ParseWideEventLine("").ok());
  EXPECT_FALSE(ParseWideEventLine("not json").ok());
}

TEST(WideEventTest, NonCanonicalSpellingConvergesInOneEncode) {
  // A hand-written line with an accepted but non-canonical number
  // spelling re-encodes to the canonical form, and that form is stable.
  WideEvent event;
  event.id = "req-3";
  event.solver_req = "ILP";
  event.solver = "ILP";
  event.queue_ms = 0.1;
  event.total_ms = 0.1;
  const std::string canonical = WideEventToJsonLine(event);
  StatusOr<WideEvent> parsed = ParseWideEventLine(canonical);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(WideEventToJsonLine(*parsed), canonical);
}

TEST(WideEventTest, ShedReasonVocabularyMatchesServeConstants) {
  // The serve constants name the table's entries; each must name a
  // different one, so every reason the schema knows is produced.
  std::set<std::string> schema;
  for (const char* reason : kWideEventShedReasons) schema.insert(reason);
  const std::set<std::string> serve = {
      serve::kShedReasonQueueFull,
      serve::kShedReasonPredicted,
      serve::kShedReasonExpired,
      serve::kShedReasonShutdown,
  };
  EXPECT_EQ(schema, serve);
  for (const std::string& reason : serve) {
    EXPECT_TRUE(IsWideEventShedReason(reason)) << reason;
  }
  EXPECT_FALSE(IsWideEventShedReason("brownout"));
  for (const char* outcome : {"ok", "shed", "invalid", "error"}) {
    EXPECT_TRUE(IsWideEventOutcome(outcome)) << outcome;
  }
  EXPECT_FALSE(IsWideEventOutcome("meh"));
}

}  // namespace
}  // namespace soc::obs
