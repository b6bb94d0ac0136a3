// soc_lint rule tests: each rule gets a passing and a failing crafted
// snippet, so the CI gate's behavior is pinned without depending on the
// (changing) real tree.

#include "soc_lint/lint.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "soc_lint/lock_graph.h"

namespace soc::lint {
namespace {

std::vector<Finding> RunAll(const std::vector<SourceFile>& files) {
  return LintTree(files);
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&rule](const Finding& f) { return f.rule == rule; });
}

// ---------------------------------------------------------------- guards

TEST(SocLintTest, CanonicalGuardDropsSrcAndUppercases) {
  EXPECT_EQ(CanonicalGuard("src/serve/metrics.h"), "SOC_SERVE_METRICS_H_");
  EXPECT_EQ(CanonicalGuard("src/common/thread_pool.h"),
            "SOC_COMMON_THREAD_POOL_H_");
  EXPECT_EQ(CanonicalGuard("tools/soc_lint/lint.h"),
            "SOC_TOOLS_SOC_LINT_LINT_H_");
}

TEST(SocLintTest, AcceptsCanonicalGuardAndPragmaOnce) {
  std::vector<Finding> findings;
  CheckIncludeGuard({"src/core/foo.h",
                     "#ifndef SOC_CORE_FOO_H_\n#define SOC_CORE_FOO_H_\n"
                     "#endif\n"},
                    &findings);
  CheckIncludeGuard({"tools/bar.h", "#pragma once\nint x;\n"}, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(SocLintTest, FlagsMissingAndNonCanonicalGuards) {
  std::vector<Finding> findings;
  CheckIncludeGuard({"src/core/foo.h", "int x;\n"}, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-guard");

  findings.clear();
  CheckIncludeGuard({"src/core/foo.h",
                     "#ifndef WRONG_NAME_H\n#define WRONG_NAME_H\n#endif\n"},
                    &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("SOC_CORE_FOO_H_"), std::string::npos);

  // #ifndef without the matching #define is a broken guard.
  findings.clear();
  CheckIncludeGuard({"src/core/foo.h",
                     "#ifndef SOC_CORE_FOO_H_\n#define OTHER_H_\n#endif\n"},
                    &findings);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(SocLintTest, GuardRuleIgnoresNonHeadersAndComments) {
  std::vector<Finding> findings;
  CheckIncludeGuard({"src/core/foo.cc", "int x;\n"}, &findings);
  // A commented-out pragma does not count as a guard.
  CheckIncludeGuard({"src/core/bar.h", "// #pragma once\nint x;\n"},
                    &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/core/bar.h");
}

// --------------------------------------------------------------- threads

TEST(SocLintTest, FlagsNakedThreadInSrc) {
  std::vector<Finding> findings;
  CheckNakedThread({"src/serve/foo.cc",
                    "#include <thread>\nvoid F() { std::thread t([]{}); }\n"},
                   &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "naked-thread");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(SocLintTest, ThreadRuleExemptsPoolTestsAndHardwareConcurrency) {
  std::vector<Finding> findings;
  // The pool implementation itself may own raw threads.
  CheckNakedThread({"src/common/thread_pool.cc",
                    "std::thread worker;\n"},
                   &findings);
  // Tests and bench are out of scope.
  CheckNakedThread({"tests/foo_test.cc", "std::thread t;\n"}, &findings);
  // Reading the parallelism hint is fine anywhere.
  CheckNakedThread({"src/serve/foo.cc",
                    "int n = std::thread::hardware_concurrency();\n"},
                   &findings);
  // Mentions in comments and strings do not count.
  CheckNakedThread({"src/serve/bar.cc",
                    "// std::thread is banned here\n"
                    "const char* s = \"std::thread\";\n"},
                   &findings);
  EXPECT_TRUE(findings.empty());
}

// -------------------------------------------------------------- layering

TEST(SocLintTest, FlagsServeIncludeFromLowerLayer) {
  std::vector<Finding> findings;
  CheckLayering({"src/core/foo.cc", "#include \"serve/metrics.h\"\n"},
                &findings);
  CheckLayering({"src/lp/bar.cc", "#include \"serve/protocol.h\"\n"},
                &findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "layering");
}

TEST(SocLintTest, LayeringAllowsServeAndToolsToUseServe) {
  std::vector<Finding> findings;
  CheckLayering({"src/serve/foo.cc", "#include \"serve/metrics.h\"\n"},
                &findings);
  CheckLayering({"tools/socvis_serve.cc",
                 "#include \"serve/visibility_service.h\"\n"},
                &findings);
  CheckLayering({"src/core/foo.cc", "#include \"core/solver.h\"\n"},
                &findings);
  EXPECT_TRUE(findings.empty());
}

// ----------------------------------------------------------- stop cadence

TEST(SocLintTest, FlagsModuloCadence) {
  std::vector<Finding> findings;
  CheckStopCadence({"src/lp/foo.cc",
                    "void F(long i) { if (i % kStopCheckInterval == 0) {} }\n"},
                   &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stop-cadence");

  findings.clear();
  CheckStopCadence({"src/lp/foo.cc",
                    "void F(long i) { if ((i & kStopCheckMask) == 0) {} }\n"},
                   &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(SocLintTest, FlagsSolverFunctionThatIgnoresItsContext) {
  const char* bad =
      "Status Solve(const Log& log, SolveContext* context) {\n"
      "  for (int i = 0; i < 100; ++i) DoWork(i);\n"
      "  return Status::OK();\n"
      "}\n";
  std::vector<Finding> findings;
  CheckStopCadence({"src/core/foo.cc", bad}, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "stop-cadence");
  EXPECT_NE(findings[0].message.find("'context'"), std::string::npos);
}

TEST(SocLintTest, AcceptsCheckpointingAndForwardingFunctions) {
  const char* checkpointing =
      "Status Solve(const Log& log, SolveContext* context) {\n"
      "  for (int i = 0; i < 100; ++i) {\n"
      "    if (context != nullptr && context->Checkpoint()) break;\n"
      "  }\n"
      "  return Status::OK();\n"
      "}\n";
  const char* forwarding =
      "Status Outer(SolveContext* ctx) { return Inner(1, ctx); }\n";
  // A constructor may forward via its member-initializer list.
  const char* initializer_list =
      "Miner::Miner(const Db& db, SolveContext* context)\n"
      "    : db_(db), context_(context) {}\n";
  // Declarations and defaulted-out-of-scope signatures are not checked.
  const char* declaration =
      "Status Solve(const Log& log, SolveContext* context);\n"
      "virtual Status Go(SolveContext* context) = 0;\n";
  std::vector<Finding> findings;
  CheckStopCadence({"src/core/a.cc", checkpointing}, &findings);
  CheckStopCadence({"src/core/b.cc", forwarding}, &findings);
  CheckStopCadence({"src/core/c.cc", initializer_list}, &findings);
  CheckStopCadence({"src/core/d.cc", declaration}, &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, CadenceRuleSkipsNonSolverLayers) {
  // The function-use half only applies to solver layers (core/lp/
  // itemsets); serve composes contexts without ticking them itself.
  const char* ignoring =
      "void F(SolveContext* context) { DoWork(); }\n";
  std::vector<Finding> findings;
  CheckStopCadence({"src/serve/foo.cc", ignoring}, &findings);
  EXPECT_TRUE(findings.empty());
}

// -------------------------------------------------------- registry parity

constexpr char kRegistrySnippet[] =
    "constexpr RegistryEntry kRegistry[] = {\n"
    "    {\"Alpha\", &MakeAlpha},\n"
    "    {\"Beta\", &MakeBeta},\n"
    "};\n";

TEST(SocLintTest, RegistryParityPassesWhenTestCoversAllNames) {
  std::vector<Finding> findings;
  CheckRegistryTestParity(
      {{"src/core/solver_registry.cc", kRegistrySnippet},
       {"tests/solver_registry_test.cc",
        "for (auto n : {\"Alpha\", \"Beta\"}) Check(n);\n"}},
      &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, RegistryParityFlagsUncoveredSolver) {
  std::vector<Finding> findings;
  CheckRegistryTestParity(
      {{"src/core/solver_registry.cc", kRegistrySnippet},
       {"tests/solver_registry_test.cc", "Check(\"Alpha\");\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "registry-parity");
  EXPECT_NE(findings[0].message.find("\"Beta\""), std::string::npos);
}

TEST(SocLintTest, RegistryParityFlagsMissingTestFile) {
  std::vector<Finding> findings;
  CheckRegistryTestParity({{"src/core/solver_registry.cc", kRegistrySnippet}},
                          &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "registry-parity");
}

// -------------------------------------------------------- property parity

constexpr char kPropertyListSnippet[] =
    "constexpr const char* kPropertyCheckedSolvers[] = {\n"
    "    \"Alpha\", \"Beta\",\n"
    "};\n";

TEST(SocLintTest, PropertyParityPassesWhenListMatchesRegistry) {
  std::vector<Finding> findings;
  CheckPropertyParity(
      {{"src/core/solver_registry.cc", kRegistrySnippet},
       {"src/check/properties.cc", kPropertyListSnippet}},
      &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, PropertyParityFlagsUncheckedSolver) {
  std::vector<Finding> findings;
  CheckPropertyParity(
      {{"src/core/solver_registry.cc", kRegistrySnippet},
       {"src/check/properties.cc",
        "constexpr const char* kPropertyCheckedSolvers[] = {\n"
        "    \"Alpha\",\n"
        "};\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "property-parity");
  EXPECT_NE(findings[0].message.find("\"Beta\""), std::string::npos);
  EXPECT_NE(findings[0].message.find("property suite"), std::string::npos);
}

TEST(SocLintTest, PropertyParityFlagsStaleListEntry) {
  std::vector<Finding> findings;
  CheckPropertyParity(
      {{"src/core/solver_registry.cc", kRegistrySnippet},
       {"src/check/properties.cc",
        "constexpr const char* kPropertyCheckedSolvers[] = {\n"
        "    \"Alpha\", \"Beta\", \"Retired\",\n"
        "};\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "property-parity");
  EXPECT_NE(findings[0].message.find("\"Retired\""), std::string::npos);
}

TEST(SocLintTest, PropertyParityFlagsMissingPropertiesFile) {
  std::vector<Finding> findings;
  CheckPropertyParity({{"src/core/solver_registry.cc", kRegistrySnippet}},
                      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "property-parity");
}

TEST(SocLintTest, PropertyParityFlagsBrokenList) {
  std::vector<Finding> findings;
  CheckPropertyParity(
      {{"src/core/solver_registry.cc", kRegistrySnippet},
       {"src/check/properties.cc", "int unrelated = 0;\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("kPropertyCheckedSolvers"),
            std::string::npos);
}

// ------------------------------------------------------------ span names

constexpr char kSpanTableSnippet[] =
    "inline constexpr const char* kSpanNames[] = {\n"
    "    \"solve\", \"mining\", \"degraded\",\n"
    "};\n";

TEST(SocLintTest, SpanNamePassesForCanonicalNames) {
  std::vector<Finding> findings;
  CheckSpanNameParity(
      {{"src/obs/span_names.h", kSpanTableSnippet},
       {"src/core/foo.cc",
        "void F(SolveContext* c) {\n"
        "  const PhaseScope phase(c, \"mining\");\n"
        "}\n"},
       {"src/serve/bar.cc",
        "void G(obs::TraceRecorder* r) {\n"
        "  obs::TraceSpan span(r, \"solve\", \"serve\");\n"
        "  r->RecordInstant(\"degraded\", \"serve\");\n"
        "}\n"}},
      &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, SpanNameFlagsOffTableName) {
  std::vector<Finding> findings;
  CheckSpanNameParity(
      {{"src/obs/span_names.h", kSpanTableSnippet},
       {"src/lp/foo.cc",
        "void F(SolveContext* c) {\n"
        "  const PhaseScope phase(c, \"my_cool_phase\");\n"
        "}\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "span-name");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("\"my_cool_phase\""), std::string::npos);
}

TEST(SocLintTest, SpanNameSkipsCommentsVariablesAndOtherLayers) {
  std::vector<Finding> findings;
  CheckSpanNameParity(
      {{"src/obs/span_names.h", kSpanTableSnippet},
       // A mention in a comment is not a construction.
       {"src/core/a.cc", "// PhaseScope phase(c, \"bogus\");\n"},
       // A non-literal name cannot be checked statically.
       {"src/core/b.cc",
        "void F(SolveContext* c, const char* n) {\n"
        "  const PhaseScope phase(c, n);\n"
        "}\n"},
       // Layers outside core/lp/itemsets/serve are out of scope.
       {"tools/x.cc", "obs::TraceSpan span(r, \"bogus\", \"cli\");\n"},
       // The obs implementation itself is free to name parameters.
       {"src/obs/trace_recorder.h",
        "void RecordInstant(const char* name, const char* category);\n"}},
      &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, SpanNameSkipsTreesWithoutTableButFlagsBrokenTable) {
  std::vector<Finding> findings;
  // No span_names.h at all: nothing to check against.
  CheckSpanNameParity(
      {{"src/core/foo.cc", "const PhaseScope phase(c, \"bogus\");\n"}},
      &findings);
  EXPECT_TRUE(findings.empty());

  // Present but unparseable table is itself a finding.
  CheckSpanNameParity({{"src/obs/span_names.h", "int x;\n"}}, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "span-name");
}

// ------------------------------------------------------- kernel dispatch

constexpr char kFencedAvxTu[] =
    "#include \"kernels/kernels.h\"\n"
    "#if defined(__AVX2__)\n"
    "#include <immintrin.h>\n"
    "namespace soc::kernels {\n"
    "std::uint64_t SubsetMask(const std::uint64_t* b) {\n"
    "  __m256i v = _mm256_load_si256((const __m256i*)b);\n"
    "  return 0;\n"
    "}\n"
    "}\n"
    "#else\n"
    "namespace soc::kernels {\n"
    "const KernelOps* Avx2Ops() { return nullptr; }\n"
    "}\n"
    "#endif\n";

constexpr char kGoodDispatchTu[] =
    "#include \"kernels/kernels.h\"\n"
    "namespace soc::kernels {\n"
    "Tier DetectTier() { return Tier::kScalar; }\n"
    "const KernelOps* GetOps(Tier tier) {\n"
    "  return internal::ScalarOps();\n"
    "}\n"
    "}\n";

TEST(SocLintTest, KernelDispatchPassesForFencedTuAndScalarDispatch) {
  std::vector<Finding> findings;
  CheckKernelDispatch({{"src/kernels/kernels_avx2.cc", kFencedAvxTu},
                       {"src/kernels/dispatch.cc", kGoodDispatchTu},
                       // Comment mentions of intrinsics do not count.
                       {"src/core/greedy.cc",
                        "// The batch path beats _mm256_ era hand loops.\n"
                        "int x;\n"}},
                      &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, KernelDispatchFlagsUnfencedIntrinsics) {
  std::vector<Finding> findings;
  CheckKernelDispatch(
      {{"src/kernels/kernels_avx2.cc",
        "#include <immintrin.h>\n"
        "__m256i Load(const void* p) { return _mm256_loadu_si256(p); }\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "kernel-dispatch");
  EXPECT_NE(findings[0].message.find("fenced"), std::string::npos);
}

TEST(SocLintTest, KernelDispatchFlagsIntrinsicsOutsideKernels) {
  std::vector<Finding> findings;
  CheckKernelDispatch(
      {{"src/core/greedy.cc",
        "#if defined(__AVX2__)\n"
        "#include <immintrin.h>\n"
        "#endif\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "kernel-dispatch");
  EXPECT_NE(findings[0].message.find("outside src/kernels"),
            std::string::npos);
}

TEST(SocLintTest, KernelDispatchFlagsMissingElseAndScalarlessDispatch) {
  std::vector<Finding> findings;
  // Fence without an #else: nothing registers the fallback.
  CheckKernelDispatch(
      {{"src/kernels/kernels_avx512.cc",
        "#if defined(__AVX512F__)\n"
        "#include <immintrin.h>\n"
        "int Use() { return (int)_mm512_reduce_add_epi64(__m512i{}); }\n"
        "#endif\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("#else"), std::string::npos);

  // A dispatch TU that never touches ScalarOps cannot be total.
  findings.clear();
  CheckKernelDispatch(
      {{"src/kernels/dispatch.cc",
        "Tier DetectTier() { return Tier::kAvx2; }\n"
        "const KernelOps* GetOps(Tier tier) { return Avx2Ops(); }\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("ScalarOps"), std::string::npos);
}

// ---------------------------------------------------------- cache metrics

constexpr char kCacheHeaderSnippet[] =
    "inline constexpr char kResultCacheHits[] = \"result_cache.hits\";\n"
    "inline constexpr char kResultCacheEvictions[] = "
    "\"result_cache.evictions\";\n";

TEST(SocLintTest, CacheMetricsPassesWhenEveryPathCounts) {
  std::vector<Finding> findings;
  CheckCacheMetrics(
      {{"src/tenant/result_cache.h", kCacheHeaderSnippet},
       {"src/tenant/result_cache.cc",
        "CachedResultPtr ResultCache::Probe(const Key& key) {\n"
        "  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);\n"
        "  Count(kResultCacheHits);\n"
        "  return it->second.result;\n"
        "}\n"
        "void ResultCache::Evict() {\n"
        "  lru_.pop_back();\n"
        "  Count(kResultCacheEvictions);\n"
        "}\n"}},
      &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, CacheMetricsFlagsNeverIncrementedConstant) {
  std::vector<Finding> findings;
  CheckCacheMetrics(
      {{"src/tenant/result_cache.h", kCacheHeaderSnippet},
       {"src/tenant/result_cache.cc",
        "CachedResultPtr ResultCache::Probe(const Key& key) {\n"
        "  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);\n"
        "  Count(kResultCacheHits);\n"
        "  return it->second.result;\n"
        "}\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "cache-metrics");
  EXPECT_NE(findings[0].message.find("kResultCacheEvictions"),
            std::string::npos);
}

TEST(SocLintTest, CacheMetricsFlagsUncountedEvictionPath) {
  std::vector<Finding> findings;
  CheckCacheMetrics(
      {{"src/tenant/result_cache.h", kCacheHeaderSnippet},
       {"src/tenant/result_cache.cc",
        // Constants referenced so the parity half passes; the pop_back
        // sits alone in a window with no Count/Increment.
        "const char* used[] = {kResultCacheHits, kResultCacheEvictions};\n" +
            std::string(500, '\n') +
            "void ResultCache::Evict() {\n"
            "  lru_.pop_back();\n"
            "  entries_.erase(*victim);\n"
            "}\n" +
            std::string(500, '\n')}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "cache-metrics");
  EXPECT_NE(findings[0].message.find("eviction"), std::string::npos);
}

TEST(SocLintTest, CacheMetricsFlagsOrphanedPairAndSkipsAbsentTree) {
  std::vector<Finding> findings;
  CheckCacheMetrics({{"src/core/foo.cc", "int x;\n"}}, &findings);
  EXPECT_TRUE(findings.empty());

  CheckCacheMetrics({{"src/tenant/result_cache.h", kCacheHeaderSnippet}},
                    &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "cache-metrics");
  EXPECT_NE(findings[0].message.find("travel together"), std::string::npos);
}

TEST(SocLintTest, SpanNameCoversTenantLayer) {
  std::vector<Finding> findings;
  CheckSpanNameParity(
      {{"src/obs/span_names.h", kSpanTableSnippet},
       {"src/tenant/shard.cc",
        "void F(obs::TraceRecorder* r) {\n"
        "  obs::TraceSpan span(r, \"made_up_span\", \"tenant\");\n"
        "}\n"}},
      &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "span-name");
  EXPECT_NE(findings[0].message.find("\"made_up_span\""), std::string::npos);
}

// ------------------------------------------------------------- aggregate

TEST(SocLintTest, LintTreeAggregatesSortedFindingsAndJson) {
  const std::vector<SourceFile> files = {
      {"src/core/zeta.cc", "#include \"serve/metrics.h\"\n"},
      {"src/core/alpha.h", "int x;\n"},
  };
  const std::vector<Finding> findings = RunAll(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].path, "src/core/alpha.h");  // Sorted by path.
  EXPECT_TRUE(HasRule(findings, "layering"));
  EXPECT_TRUE(HasRule(findings, "include-guard"));

  const std::string json = FindingsToJson(findings);
  EXPECT_NE(json.find("\"rule\":\"layering\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"src/core/alpha.h\""), std::string::npos);

  EXPECT_EQ(FindingsToJson({}), "{\"schema_version\":2,\"findings\":[]}");
}

TEST(SocLintTest, JsonOrdersFindingsByRuleForStableArtifacts) {
  // Input deliberately out of rule order; the artifact must not care.
  std::vector<Finding> findings;
  findings.push_back({"span-name", "src/b.cc", 3, "zzz"});
  findings.push_back({"layering", "src/a.cc", 9, "aaa"});
  const std::string json = FindingsToJson(findings);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_LT(json.find("\"rule\":\"layering\""),
            json.find("\"rule\":\"span-name\""));
}

TEST(SocLintTest, SarifCarriesRulesResultsAndLocations) {
  std::vector<Finding> findings;
  findings.push_back({"lock-order", "src/tenant/shard.cc", 42, "inversion"});
  const std::string sarif = FindingsToSarif(findings);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"soc_lint\""), std::string::npos);
  // The rule table lists every registered rule, found or not.
  EXPECT_NE(sarif.find("\"id\":\"condvar-wait-loop\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"lock-order\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"src/tenant/shard.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":42"), std::string::npos);
  // File-level findings (line 0) still emit a valid 1-based region.
  findings.clear();
  findings.push_back({"registry-parity", "src/core/solver_registry.cc", 0,
                      "missing"});
  EXPECT_NE(FindingsToSarif(findings).find("\"startLine\":1"),
            std::string::npos);
}

TEST(SocLintTest, CleanTreeSnippetsProduceNoFindings) {
  const std::vector<SourceFile> files = {
      {"src/core/ok.h",
       "#ifndef SOC_CORE_OK_H_\n#define SOC_CORE_OK_H_\n#endif\n"},
      {"src/core/ok.cc",
       "Status Solve(SolveContext* context) {\n"
       "  while (!context->Checkpoint()) {}\n"
       "  return Status::OK();\n"
       "}\n"},
  };
  EXPECT_TRUE(RunAll(files).empty());
}

// ------------------------------------------------- naked-thread variants

TEST(SocLintTest, NakedThreadBansAsync) {
  std::vector<Finding> findings;
  CheckNakedThread({"src/serve/bad.cc",
                    "auto f = std::async(std::launch::async, Work);\n"},
                   &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "naked-thread");
  EXPECT_NE(findings[0].message.find("std::async"), std::string::npos);
}

TEST(SocLintTest, NakedThreadBansJthread) {
  std::vector<Finding> findings;
  CheckNakedThread({"src/serve/bad.cc", "std::jthread t(Work);\n"},
                   &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("std::jthread"), std::string::npos);
}

TEST(SocLintTest, NakedThreadBansDetachedTemporaries) {
  std::vector<Finding> findings;
  CheckNakedThread({"src/serve/bad.cc", "std::thread(Work).detach();\n"},
                   &findings);
  // Both the construction and the detach are findings.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[1].message.find("detach"), std::string::npos);

  findings.clear();
  CheckNakedThread({"src/serve/bad2.cc", "worker->detach();\n"}, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("join point"), std::string::npos);
}

TEST(SocLintTest, NakedThreadStillAllowsHardwareConcurrencyAndComments) {
  std::vector<Finding> findings;
  CheckNakedThread(
      {"src/serve/ok.cc",
       "int n = std::thread::hardware_concurrency();\n"
       "// std::async in a comment is fine; detach() too.\n"},
      &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

// ------------------------------------------------------------ fix mode

TEST(SocLintTest, FixIncludeGuardRewritesNonCanonicalGuard) {
  const SourceFile file{
      "src/serve/widget.h",
      "// Header comment.\n"
      "#ifndef WIDGET_H\n#define WIDGET_H\n"
      "int x;\n"
      "#endif  // WIDGET_H\n"};
  std::string fixed;
  ASSERT_TRUE(FixIncludeGuard(file, &fixed));
  EXPECT_EQ(fixed,
            "// Header comment.\n"
            "#ifndef SOC_SERVE_WIDGET_H_\n#define SOC_SERVE_WIDGET_H_\n"
            "int x;\n"
            "#endif  // SOC_SERVE_WIDGET_H_\n");

  // The fixed header lints clean...
  std::vector<Finding> findings;
  CheckIncludeGuard({file.path, fixed}, &findings);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);

  // ...and the rewrite is idempotent.
  std::string again;
  EXPECT_FALSE(FixIncludeGuard({file.path, fixed}, &again));
}

TEST(SocLintTest, FixIncludeGuardLeavesUnfixableHeadersAlone) {
  std::string fixed;
  // No guard at all: nothing mechanical to do.
  EXPECT_FALSE(FixIncludeGuard({"src/serve/a.h", "int x;\n"}, &fixed));
  // Guard whose #define does not match: broken, not just misnamed.
  EXPECT_FALSE(FixIncludeGuard(
      {"src/serve/b.h", "#ifndef B_H\n#define OTHER_H\n#endif\n"}, &fixed));
  // #pragma once headers have no guard name to canonicalize.
  EXPECT_FALSE(
      FixIncludeGuard({"src/serve/c.h", "#pragma once\nint x;\n"}, &fixed));
}

// --------------------------------------------------- baseline engine

TEST(SocLintTest, BaselineRoundTripsAndSuppresses) {
  std::vector<Finding> findings;
  findings.push_back({"layering", "src/core/a.cc", 7, "no serve includes"});
  findings.push_back({"span-name", "src/core/b.cc", 9, "bad span"});

  const std::string text = WriteBaseline(findings);
  const std::set<std::string> baseline = ParseBaseline(text);
  EXPECT_EQ(baseline.size(), 2u);
  // Everything pinned: nothing survives.
  EXPECT_TRUE(ApplyBaseline(findings, baseline).empty());

  // A new finding in a pinned file still reports: the message is part
  // of the key.
  findings.push_back({"layering", "src/core/a.cc", 8, "another include"});
  const std::vector<Finding> kept = ApplyBaseline(findings, baseline);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].message, "another include");

  // Line numbers are not part of the key: drifting code keeps the pin.
  std::vector<Finding> drifted;
  drifted.push_back({"layering", "src/core/a.cc", 99, "no serve includes"});
  EXPECT_TRUE(ApplyBaseline(drifted, baseline).empty());
}

TEST(SocLintTest, BaselineParserSkipsCommentsAndBlanks) {
  const std::set<std::string> baseline =
      ParseBaseline("# comment\n\nlayering\tsrc/a.cc\tmsg\n");
  EXPECT_EQ(baseline.size(), 1u);
  EXPECT_EQ(baseline.count("layering\tsrc/a.cc\tmsg"), 1u);
}

TEST(SocLintTest, InlineSuppressionDropsFindingOnSameOrPreviousLine) {
  // Same line.
  std::vector<Finding> findings = RunAll(
      {{"src/core/sup.cc",
        "void F() { std::thread t(Work); }  "
        "// soc-lint-suppress(naked-thread)\n"}});
  EXPECT_FALSE(HasRule(findings, "naked-thread"))
      << FindingsToJson(findings);

  // Previous line (statement wraps).
  findings = RunAll({{"src/core/sup2.cc",
                      "// soc-lint-suppress(naked-thread)\n"
                      "std::thread t(Work);\n"}});
  EXPECT_FALSE(HasRule(findings, "naked-thread"))
      << FindingsToJson(findings);

  // The wrong rule id suppresses nothing.
  findings = RunAll({{"src/core/sup3.cc",
                      "std::thread t(Work);  "
                      "// soc-lint-suppress(layering)\n"}});
  EXPECT_TRUE(HasRule(findings, "naked-thread"));
}

TEST(SocLintTest, PassTableListsLockHierarchyRules) {
  bool found = false;
  for (const PassInfo& pass : Passes()) {
    if (std::string(pass.name) == "lock-hierarchy") {
      found = true;
      EXPECT_EQ(pass.rules.size(), 5u);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------ lock-hierarchy pass

// A fake rank table snippet the pass parses in place of the real
// src/common/lock_rank.h.
const char kRankTable[] =
    "#ifndef SOC_COMMON_LOCK_RANK_H_\n#define SOC_COMMON_LOCK_RANK_H_\n"
    "struct LockRank { int rank; const char* name; };\n"
    "inline constexpr LockRank kLow{10, \"low\"};\n"
    "inline constexpr LockRank kHigh{20, \"high\"};\n"
    "#endif\n";

std::vector<Finding> RunLockPass(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  CheckLockHierarchy(files, &findings);
  return findings;
}

TEST(SocLintTest, HarvestBuildsRegistryWithRanksGuardsAndRequires) {
  const LockRegistry registry = HarvestLocks(
      {{"src/common/lock_rank.h", kRankTable},
       {"src/core/store.h",
        "class Store {\n"
        " public:\n"
        "  void Touch() SOC_REQUIRES(mu_);\n"
        " private:\n"
        "  Mutex mu_{kLow};\n"
        "  mutable SharedMutex map_mu_{kHigh};\n"
        "  int value_ SOC_GUARDED_BY(mu_);\n"
        "};\n"}});
  ASSERT_EQ(registry.locks.size(), 2u);

  const LockDecl* mu = registry.Find("Store::mu_");
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(mu->rank, 10);
  EXPECT_EQ(mu->rank_label, "low");
  EXPECT_FALSE(mu->shared);

  const LockDecl* map_mu = registry.Find("Store::map_mu_");
  ASSERT_NE(map_mu, nullptr);
  EXPECT_EQ(map_mu->rank, 20);
  EXPECT_TRUE(map_mu->shared);

  const auto guard = registry.guarded_by.find("Store::value_");
  ASSERT_NE(guard, registry.guarded_by.end());
  EXPECT_EQ(guard->second, "Store::mu_");

  const auto req = registry.requires_locks.find("Store::Touch");
  ASSERT_NE(req, registry.requires_locks.end());
  ASSERT_EQ(req->second.size(), 1u);
  EXPECT_EQ(req->second[0], "Store::mu_");
}

TEST(SocLintTest, SeededTwoMutexInversionIsALockOrderFinding) {
  // The canonical seeded defect: AB() nests a_ -> b_, BA() nests
  // b_ -> a_. Two threads running one each deadlock.
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/pair.h",
        "class Pair {\n"
        " public:\n"
        "  void AB() {\n"
        "    MutexLock a(a_);\n"
        "    MutexLock b(b_);\n"
        "  }\n"
        "  void BA() {\n"
        "    MutexLock b(b_);\n"
        "    MutexLock a(a_);\n"
        "  }\n"
        " private:\n"
        "  Mutex a_;\n"
        "  Mutex b_;\n"
        "};\n"}});
  ASSERT_TRUE(HasRule(findings, "lock-order")) << FindingsToJson(findings);
  std::string message;
  for (const Finding& f : findings) {
    if (f.rule == "lock-order") message = f.message;
  }
  EXPECT_NE(message.find("Pair::a_"), std::string::npos) << message;
  EXPECT_NE(message.find("Pair::b_"), std::string::npos) << message;
}

TEST(SocLintTest, ConsistentNestingOrderIsClean) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/pair.h",
        "class Pair {\n"
        " public:\n"
        "  void AB() { MutexLock a(a_); MutexLock b(b_); }\n"
        "  void AlsoAB() { MutexLock a(a_); MutexLock b(b_); }\n"
        " private:\n"
        "  Mutex a_;\n"
        "  Mutex b_;\n"
        "};\n"}});
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, CrossTuCallChainInversionIsFound) {
  // Alpha::Step holds Alpha::mu_ and calls Beta::Compute (resolved
  // project-wide), which takes Beta::mu_. Beta::Reverse holds
  // Beta::mu_ and calls Alpha::Grab, which takes Alpha::mu_. The cycle
  // only exists through the cross-TU call graph.
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/alpha.h",
        "class Alpha {\n"
        " public:\n"
        "  void Step() {\n"
        "    MutexLock lock(mu_);\n"
        "    Compute();\n"
        "  }\n"
        "  void Grab() { MutexLock lock(mu_); }\n"
        " private:\n"
        "  Mutex mu_;\n"
        "};\n"},
       {"src/serve_less/beta.h",  // Different TU, non-ranked dir.
        "class Beta {\n"
        " public:\n"
        "  void Compute() { MutexLock lock(mu_); }\n"
        "  void Reverse() {\n"
        "    MutexLock lock(mu_);\n"
        "    Grab();\n"
        "  }\n"
        " private:\n"
        "  Mutex mu_;\n"
        "};\n"}});
  ASSERT_TRUE(HasRule(findings, "lock-order")) << FindingsToJson(findings);
  std::string message;
  for (const Finding& f : findings) {
    if (f.rule == "lock-order") message = f.message;
  }
  // The witness names the call chain, not just the endpoints.
  EXPECT_NE(message.find("via"), std::string::npos) << message;
}

TEST(SocLintTest, RequiresAnnotationSeedsHeldSetAtEntry) {
  // Helper() never takes a_ itself — SOC_REQUIRES says the caller
  // already holds it — so the a_ -> b_ edge exists only through the
  // annotation; Mixed() supplies the b_ -> a_ edge to close the cycle.
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/store.h",
        "class Store {\n"
        " public:\n"
        "  void Helper() SOC_REQUIRES(a_) { MutexLock lock(b_); }\n"
        "  void Mixed() {\n"
        "    MutexLock b(b_);\n"
        "    MutexLock a(a_);\n"
        "  }\n"
        " private:\n"
        "  Mutex a_;\n"
        "  Mutex b_;\n"
        "};\n"}});
  EXPECT_TRUE(HasRule(findings, "lock-order")) << FindingsToJson(findings);
}

TEST(SocLintTest, DescendingRankAcquisitionIsARankOrderFinding) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/common/lock_rank.h", kRankTable},
       {"src/core/ranked.h",
        "class Ranked {\n"
        " public:\n"
        "  void Down() {\n"
        "    MutexLock h(high_);\n"
        "    MutexLock l(low_);\n"
        "  }\n"
        " private:\n"
        "  Mutex low_{kLow};\n"
        "  Mutex high_{kHigh};\n"
        "};\n"}});
  ASSERT_TRUE(HasRule(findings, "lock-rank-order"))
      << FindingsToJson(findings);
  std::string message;
  for (const Finding& f : findings) {
    if (f.rule == "lock-rank-order") message = f.message;
  }
  EXPECT_NE(message.find("strictly increase"), std::string::npos) << message;
}

TEST(SocLintTest, AscendingRankAcquisitionIsClean) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/common/lock_rank.h", kRankTable},
       {"src/core/ranked.h",
        "class Ranked {\n"
        " public:\n"
        "  void Up() {\n"
        "    MutexLock l(low_);\n"
        "    MutexLock h(high_);\n"
        "  }\n"
        " private:\n"
        "  Mutex low_{kLow};\n"
        "  Mutex high_{kHigh};\n"
        "};\n"}});
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, UnrankedServingMutexIsAMissingRankFinding) {
  // serve/ requires ranks...
  std::vector<Finding> findings = RunLockPass(
      {{"src/serve/thing.h", "class Thing { Mutex mu_; };\n"}});
  ASSERT_EQ(findings.size(), 1u) << FindingsToJson(findings);
  EXPECT_EQ(findings[0].rule, "lock-rank-missing");

  // ...core/ does not...
  findings = RunLockPass(
      {{"src/core/thing.h", "class Thing { Mutex mu_; };\n"}});
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);

  // ...and a ranked serving mutex is clean.
  findings = RunLockPass(
      {{"src/common/lock_rank.h", kRankTable},
       {"src/serve/thing.h", "class Thing { Mutex mu_{kLow}; };\n"}});
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, UnknownRankNameIsAMissingRankFinding) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/common/lock_rank.h", kRankTable},
       {"src/serve/thing.h", "class Thing { Mutex mu_{kBogus}; };\n"}});
  ASSERT_EQ(findings.size(), 1u) << FindingsToJson(findings);
  EXPECT_EQ(findings[0].rule, "lock-rank-missing");
  EXPECT_NE(findings[0].message.find("kBogus"), std::string::npos);
}

TEST(SocLintTest, BlockingCallUnderHeldLockIsFlagged) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/runner.cc",
        "class Runner {\n"
        " public:\n"
        "  void Bad() {\n"
        "    MutexLock lock(mu_);\n"
        "    solver.Solve(context);\n"
        "  }\n"
        " private:\n"
        "  Mutex mu_;\n"
        "};\n"}});
  ASSERT_TRUE(HasRule(findings, "blocking-under-lock"))
      << FindingsToJson(findings);
}

TEST(SocLintTest, BlockingCallAfterScopeCloseIsClean) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/runner.cc",
        "class Runner {\n"
        " public:\n"
        "  void Good() {\n"
        "    {\n"
        "      MutexLock lock(mu_);\n"
        "      state = Snapshot();\n"
        "    }\n"
        "    solver.Solve(context);\n"
        "  }\n"
        " private:\n"
        "  Mutex mu_;\n"
        "};\n"}});
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, BareCondVarWaitOutsideWhileIsFlagged) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/waiter.cc",
        "class Waiter {\n"
        " public:\n"
        "  void Bad() {\n"
        "    MutexLock lock(mu_);\n"
        "    cv_.Wait(&mu_);\n"
        "  }\n"
        " private:\n"
        "  Mutex mu_;\n"
        "  CondVar cv_;\n"
        "};\n"}});
  ASSERT_EQ(findings.size(), 1u) << FindingsToJson(findings);
  EXPECT_EQ(findings[0].rule, "condvar-wait-loop");
}

TEST(SocLintTest, WhileWrappedWaitAndTimedWaitForAreClean) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/waiter.cc",
        "class Waiter {\n"
        " public:\n"
        "  void Braced() {\n"
        "    MutexLock lock(mu_);\n"
        "    while (!ready_) {\n"
        "      cv_.Wait(&mu_);\n"
        "    }\n"
        "  }\n"
        "  void Unbraced() {\n"
        "    MutexLock lock(mu_);\n"
        "    while (!ready_) cv_.Wait(&mu_);\n"
        "  }\n"
        "  void Timed() {\n"
        "    MutexLock lock(mu_);\n"
        "    cv_.WaitFor(&mu_, timeout);\n"
        "  }\n"
        " private:\n"
        "  Mutex mu_;\n"
        "  CondVar cv_;\n"
        "};\n"}});
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(SocLintTest, DirectSameLockReentryIsFlagged) {
  const std::vector<Finding> findings = RunLockPass(
      {{"src/core/reenter.cc",
        "class Reenter {\n"
        " public:\n"
        "  void Twice() {\n"
        "    MutexLock a(mu_);\n"
        "    MutexLock b(mu_);\n"
        "  }\n"
        " private:\n"
        "  Mutex mu_;\n"
        "};\n"}});
  ASSERT_TRUE(HasRule(findings, "lock-order")) << FindingsToJson(findings);
}

TEST(SocLintTest, LockPassIgnoresNonSrcFiles) {
  const std::vector<Finding> findings = RunLockPass(
      {{"tests/fixture.cc",
        "class Pair {\n"
        " public:\n"
        "  void AB() { MutexLock a(a_); MutexLock b(b_); }\n"
        "  void BA() { MutexLock b(b_); MutexLock a(a_); }\n"
        " private:\n"
        "  Mutex a_;\n"
        "  Mutex b_;\n"
        "};\n"}});
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

}  // namespace
}  // namespace soc::lint
