// soc_lint: project-invariant checks the compiler cannot see.
//
// A standalone multi-pass static analysis framework (no libclang). Two
// kinds of passes share one finding engine: line/regex rules below, and
// parse-based passes built on the token lexer (soc_lint/lexer.h) — the
// lock-hierarchy pass in soc_lint/lock_graph.h being the flagship. The
// engine gives every pass stable rule ids, a checked-in baseline /
// inline-suppression mechanism, JSON (schema-versioned), SARIF 2.1.0
// and text output, and a --diff-base mode for fast per-PR runs.
//
// Rules enforced:
//
//   stop-cadence     — solver code under src/core, src/lp, src/itemsets
//                      that accepts a SolveContext* must actually consult
//                      it (Checkpoint() or forwarding); manual cadence
//                      arithmetic must use kStopCheckMask, never
//                      `% kStopCheckInterval` or a hard-coded 64.
//   registry-parity  — every solver name registered in
//                      src/core/solver_registry.cc appears in
//                      tests/solver_registry_test.cc.
//   property-parity  — the kPropertyCheckedSolvers[] list in
//                      src/check/properties.cc names exactly the solvers
//                      registered in src/core/solver_registry.cc, so a
//                      newly registered solver cannot dodge the
//                      metamorphic property suite.
//   naked-thread     — no std::thread / std::jthread / std::async /
//                      pthread_create in src/ outside
//                      common/thread_pool.*, and no .detach() anywhere
//                      (a detached thread outlives every join point);
//                      concurrency goes through ThreadPool.
//   layering         — no src layer below serve/ may #include "serve/..."
//                      headers.
//   cache-metrics    — every result-cache counter constant declared in
//                      src/tenant/result_cache.h (kResultCache*) is
//                      actually bumped in result_cache.cc, and every
//                      structural hit/insert/evict site (LRU splice /
//                      pop_back) has a counter bump nearby — so cache
//                      behavior stays visible in the serving metrics.
//   kernel-dispatch  — x86 vector intrinsics (immintrin.h, _mm*/__m*)
//                      appear only under src/kernels; every
//                      intrinsic-bearing kernel TU fences them behind an
//                      ISA preprocessor guard (#if defined(__AVX...))
//                      with an #else branch registering the fallback,
//                      and the dispatch TU always references ScalarOps
//                      so a host failing every CPUID probe still
//                      resolves to working ops.
//   span-name        — every trace span or phase constructed in src/core,
//                      src/lp, src/itemsets, src/serve or src/tenant
//                      (PhaseScope, TraceSpan, RecordComplete,
//                      RecordInstant) uses a name from the canonical
//                      kSpanNames[] table in src/obs/span_names.h.
//   include-guard    — every header carries #pragma once or a proper
//                      #ifndef/#define pair; under src/ the guard name is
//                      canonical (SOC_<PATH>_H_). Canonicality findings
//                      are auto-fixable (soc_lint --fix).
//   lock-order, lock-rank-order, lock-rank-missing,
//   blocking-under-lock, condvar-wait-loop
//                    — the lock-hierarchy pass; see soc_lint/lock_graph.h.
//
// The library operates on in-memory (path, content) pairs so tests can
// feed crafted snippets; the soc_lint binary walks the real tree and
// exits non-zero on unsuppressed findings (the CI gate). Findings
// serialize to JSON and SARIF for machine consumption.
//
// Suppression happens at the engine, not in individual passes: a
// finding is dropped when its source line carries a
// `soc-lint-suppress(rule)` comment, or when the baseline file
// (tools/soc_lint/baseline.txt by default) lists its
// rule<TAB>path<TAB>message triple. Baselines pin pre-existing debt
// without letting new findings ride in on it.

#ifndef SOC_TOOLS_SOC_LINT_LINT_H_
#define SOC_TOOLS_SOC_LINT_LINT_H_

#include <set>
#include <string>
#include <vector>

namespace soc::lint {

struct SourceFile {
  std::string path;  // Repository-relative, '/'-separated.
  std::string content;
};

struct Finding {
  std::string rule;     // Stable rule id, e.g. "naked-thread".
  std::string path;
  int line = 0;         // 1-based; 0 = file-level finding.
  std::string message;
};

// Per-file rules, exposed individually so tests can target them.
void CheckIncludeGuard(const SourceFile& file, std::vector<Finding>* findings);
void CheckNakedThread(const SourceFile& file, std::vector<Finding>* findings);
void CheckLayering(const SourceFile& file, std::vector<Finding>* findings);
void CheckStopCadence(const SourceFile& file, std::vector<Finding>* findings);

// Cross-file rule: kResultCache* counter constants declared in
// src/tenant/result_cache.h vs. their bump sites in result_cache.cc,
// plus windowed bump checks on the structural LRU paths.
void CheckCacheMetrics(const std::vector<SourceFile>& files,
                       std::vector<Finding>* findings);

// Cross-file rule: registry names vs. registry test coverage.
void CheckRegistryTestParity(const std::vector<SourceFile>& files,
                             std::vector<Finding>* findings);

// Cross-file rule: registry names vs. the property suite's
// kPropertyCheckedSolvers[] list (both directions: unchecked registrations
// and stale list entries are findings).
void CheckPropertyParity(const std::vector<SourceFile>& files,
                         std::vector<Finding>* findings);

// Cross-file rule: span names used by solver/serve layers vs. the
// canonical table in src/obs/span_names.h.
void CheckSpanNameParity(const std::vector<SourceFile>& files,
                         std::vector<Finding>* findings);

// Cross-file rule: vector intrinsics stay inside src/kernels, every
// intrinsic-bearing kernel TU is fenced by an ISA preprocessor guard
// with an #else fallback branch, and the dispatch TU (DetectTier)
// always registers the scalar tier.
void CheckKernelDispatch(const std::vector<SourceFile>& files,
                         std::vector<Finding>* findings);

// The pass table: every registered pass with its stable rule ids, so
// output formats and docs enumerate rules from one place.
struct PassInfo {
  const char* name;                   // Pass name, e.g. "lock-hierarchy".
  std::vector<const char*> rules;     // Rule ids the pass may emit.
};
const std::vector<PassInfo>& Passes();

// Runs every registered pass over `files`, drops findings whose source
// line carries a `soc-lint-suppress(rule)` comment, and returns the
// rest sorted by (path, line, rule).
std::vector<Finding> LintTree(const std::vector<SourceFile>& files);

// The canonical include guard for a header path:
// "src/serve/metrics.h" -> "SOC_SERVE_METRICS_H_" (the leading source
// root is dropped; every other non-alphanumeric becomes '_').
std::string CanonicalGuard(const std::string& path);

// --fix support: rewrites a header whose include guard exists but is
// not canonical. Returns true and fills `fixed` when a rewrite applies;
// idempotent (a canonical header returns false). Missing guards are not
// invented — only naming is mechanical.
bool FixIncludeGuard(const SourceFile& file, std::string* fixed);

// Baseline file: one finding per line as rule<TAB>path<TAB>message
// ('#' comments and blank lines skipped). Line numbers are deliberately
// not part of the key so unrelated edits above a pinned finding do not
// unpin it.
std::set<std::string> ParseBaseline(const std::string& text);
std::string BaselineKey(const Finding& finding);
std::string WriteBaseline(const std::vector<Finding>& findings);
std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::set<std::string>& baseline);

// {"schema_version":2,"findings":[...]} — findings ordered by
// (rule, path, line, message) so CI artifacts diff cleanly across runs.
std::string FindingsToJson(const std::vector<Finding>& findings);

// SARIF 2.1.0 (minimal static-analysis profile: one run, one driver,
// rules[] from the pass table, one result per finding).
std::string FindingsToSarif(const std::vector<Finding>& findings);

}  // namespace soc::lint

#endif  // SOC_TOOLS_SOC_LINT_LINT_H_
