// Job posting: the seller workflow end-to-end on a large repetitive log.
//
// A company posts a job ad on a board where candidates filter by skill
// tags. The search log is big and highly repetitive (candidates reuse the
// same few filter combinations), so the efficient pipeline is:
//
//   1. analyze the log (size histogram, skew, duplication),
//   2. collapse duplicates into distinct queries with multiplicities,
//   3. pick the m best tags exactly with branch-and-bound on the
//      collapsed log,
//   4. sanity-check against the raw-log solve and value each tag.
//
// Run: ./build/examples/job_posting

#include <cstdio>

#include "boolean/log_stats.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/attribute_analysis.h"
#include "core/bnb_solver.h"
#include "datagen/workload.h"

int main() {
  using namespace soc;

  // Skill-tag universe and the posting's truthful tags.
  auto schema_or = AttributeSchema::Create(
      {"cpp", "python", "sql", "linux", "docker", "kubernetes", "aws",
       "react", "typescript", "go", "rust", "ml", "etl", "kafka", "grpc",
       "security"});
  SOC_CHECK(schema_or.ok());
  const AttributeSchema schema = std::move(schema_or).value();

  // Simulated search log: a few hot filter combinations dominate, with a
  // long tail of ad-hoc searches.
  Rng rng(12);
  QueryLog log(schema);
  const std::vector<std::vector<int>> hot = {
      {0, 3},        // cpp + linux
      {0, 3, 4},     // cpp + linux + docker
      {1, 11},       // python + ml
      {1, 2, 12},    // python + sql + etl
      {6, 5},        // aws + kubernetes
  };
  for (int i = 0; i < 5000; ++i) {
    if (rng.NextBernoulli(0.8)) {
      log.AddQueryFromIndices(hot[rng.NextUint64(hot.size())]);
    } else {
      log.AddQueryFromIndices(
          rng.SampleWithoutReplacement(schema.size(), rng.NextInt(1, 4)));
    }
  }

  const QueryLogStats stats = ComputeQueryLogStats(log);
  std::printf("%s\n", FormatQueryLogStats(log, stats).c_str());

  // The posting can truthfully claim these tags; the board shows only 4.
  DynamicBitset posting = DynamicBitset::FromIndices(
      schema.size(), {0, 2, 3, 4, 5, 9, 14, 15});
  const int m = 4;

  // Collapsed-log pipeline.
  const BnbSocSolver solver;
  WallTimer collapsed_timer;
  const CollapsedLog collapsed = CollapseDuplicateQueries(log);
  auto folded = solver.SolveCollapsed(collapsed, posting, m);
  SOC_CHECK(folded.ok());
  const double collapsed_ms = collapsed_timer.ElapsedMillis();

  // Raw-log reference: the same selection.
  WallTimer raw_timer;
  auto raw = solver.Solve(log, posting, m);
  SOC_CHECK(raw.ok());
  const double raw_ms = raw_timer.ElapsedMillis();
  SOC_CHECK(folded->selected == raw->selected);

  std::printf(
      "collapsed log: %d/%d searches reached in %.2f ms "
      "(%d distinct queries)\n",
      folded->satisfied_queries, log.size(), collapsed_ms,
      collapsed.queries.size());
  std::printf("raw log:       %d/%d searches reached in %.2f ms\n",
              raw->satisfied_queries, log.size(), raw_ms);
  std::printf("chosen tags: ");
  folded->selected.ForEachSetBit(
      [&schema](int attr) { std::printf("%s ", schema.name(attr).c_str()); });
  std::printf("\n\n");

  // Which tags actually buy visibility?
  auto values = AnalyzeAttributeValues(solver, log, posting, m);
  SOC_CHECK(values.ok());
  std::printf("tag value (forced-in vs forced-out optimum at m=%d):\n", m);
  for (const AttributeValue& value : *values) {
    if (value.marginal == 0) continue;
    std::printf("  %-12s %+6d\n", schema.name(value.attribute).c_str(),
                value.marginal);
  }
  return 0;
}
