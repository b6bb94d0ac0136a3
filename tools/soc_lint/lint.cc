#include "soc_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>

#include "common/json_writer.h"
#include "soc_lint/lock_graph.h"

namespace soc::lint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeader(const std::string& path) { return EndsWith(path, ".h"); }
bool IsSource(const std::string& path) { return EndsWith(path, ".cc"); }

// 1-based line number of byte offset `pos`.
int LineOf(const std::string& content, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(content.begin(),
                            content.begin() +
                                static_cast<std::ptrdiff_t>(
                                    std::min(pos, content.size())),
                            '\n'));
}

// Replaces // and /* */ comments and string/char literals with spaces
// (newlines preserved), so token searches cannot match inside them.
std::string StripCommentsAndStrings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLine, kBlock, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

// Blanks comments only (newlines preserved, string literals kept), for
// rules that must read literal contents. Offsets line up with the input
// and with StripCommentsAndStrings, so a token found in the fully
// stripped text can have its argument literals read from this one.
std::string StripComments(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLine, kBlock, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Finds whole-identifier occurrences of `token` (no identifier chars on
// either side; `token` may contain "::").
std::vector<std::size_t> FindTokens(const std::string& text,
                                    const std::string& token) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

void Add(std::vector<Finding>* findings, std::string rule, std::string path,
         int line, std::string message) {
  Finding finding;
  finding.rule = std::move(rule);
  finding.path = std::move(path);
  finding.line = line;
  finding.message = std::move(message);
  findings->push_back(std::move(finding));
}

// The layers below serve/, in include-prefix form.
constexpr const char* kLayersBelowServe[] = {
    "src/common/",  "src/boolean/",     "src/lp/",      "src/itemsets/",
    "src/core/",    "src/categorical/", "src/numeric/", "src/text/",
    "src/datagen/", "src/obs/"};

// Files that may use raw threads: the pool itself and the annotated
// primitives it is built from.
constexpr const char* kThreadExempt[] = {"src/common/thread_pool.h",
                                         "src/common/thread_pool.cc",
                                         "src/common/mutex.h"};

}  // namespace

std::string CanonicalGuard(const std::string& path) {
  std::string trimmed = path;
  if (StartsWith(trimmed, "src/")) trimmed = trimmed.substr(4);
  std::string guard = "SOC_";
  for (char c : trimmed) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

void CheckIncludeGuard(const SourceFile& file,
                       std::vector<Finding>* findings) {
  if (!IsHeader(file.path)) return;
  const std::string code = StripCommentsAndStrings(file.content);

  if (code.find("#pragma once") != std::string::npos) return;

  const std::size_t ifndef_pos = code.find("#ifndef ");
  if (ifndef_pos == std::string::npos) {
    Add(findings, "include-guard", file.path, 0,
        "header has neither #pragma once nor an #ifndef include guard");
    return;
  }
  std::size_t name_start = ifndef_pos + 8;
  while (name_start < code.size() && code[name_start] == ' ') ++name_start;
  std::size_t name_end = name_start;
  while (name_end < code.size() && IsIdentChar(code[name_end])) ++name_end;
  const std::string guard = code.substr(name_start, name_end - name_start);
  if (guard.empty()) {
    Add(findings, "include-guard", file.path, LineOf(code, ifndef_pos),
        "#ifndef include guard has no name");
    return;
  }
  if (code.find("#define " + guard) == std::string::npos) {
    Add(findings, "include-guard", file.path, LineOf(code, ifndef_pos),
        "include guard '" + guard + "' is never #defined");
    return;
  }
  if (StartsWith(file.path, "src/")) {
    const std::string expected = CanonicalGuard(file.path);
    if (guard != expected) {
      Add(findings, "include-guard", file.path, LineOf(code, ifndef_pos),
          "include guard '" + guard + "' should be the canonical '" +
              expected + "'");
    }
  }
}

void CheckNakedThread(const SourceFile& file,
                      std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) return;
  for (const char* exempt : kThreadExempt) {
    if (file.path == exempt) return;
  }
  const std::string code = StripCommentsAndStrings(file.content);
  for (const char* token :
       {"std::thread", "std::jthread", "std::async", "pthread_create"}) {
    for (std::size_t pos : FindTokens(code, token)) {
      // Reading the parallelism hint is not spawning a thread.
      if (code.compare(pos, 33, "std::thread::hardware_concurrency") == 0) {
        continue;
      }
      Add(findings, "naked-thread", file.path, LineOf(code, pos),
          std::string(token) +
              " outside common/thread_pool.*; use soc::ThreadPool");
    }
  }
  // Detached threads escape every join point — banned even in the
  // exempted pool files (which never reach here anyway). ".detach()" on
  // anything thread-like is the tell; other detach() members do not
  // exist in this codebase.
  for (std::size_t pos : FindTokens(code, "detach")) {
    const bool member = pos > 0 && (code[pos - 1] == '.' ||
                                    (pos > 1 && code[pos - 2] == '-' &&
                                     code[pos - 1] == '>'));
    const std::size_t after = pos + 6;
    const bool call = after < code.size() && code[after] == '(';
    if (member && call) {
      Add(findings, "naked-thread", file.path, LineOf(code, pos),
          "detached thread: .detach() abandons the join point; use "
          "soc::ThreadPool (workers join in Shutdown)");
    }
  }
}

void CheckLayering(const SourceFile& file, std::vector<Finding>* findings) {
  bool below_serve = false;
  for (const char* layer : kLayersBelowServe) {
    if (StartsWith(file.path, layer)) {
      below_serve = true;
      break;
    }
  }
  if (!below_serve) return;
  // #include lines survive comment stripping; the quoted path does not,
  // so search the raw text but anchor on the directive.
  std::size_t pos = 0;
  while ((pos = file.content.find("#include \"serve/", pos)) !=
         std::string::npos) {
    Add(findings, "layering", file.path, LineOf(file.content, pos),
        "layer below serve/ must not include serve/ headers");
    pos += 1;
  }
}

namespace {

// Implements the function-body half of stop-cadence: every function
// *definition* with a SolveContext* parameter must mention that parameter
// again in its body (a Checkpoint() call or forwarding to a callee).
void CheckSolveContextUse(const SourceFile& file, const std::string& code,
                          std::vector<Finding>* findings) {
  const std::string needle = "SolveContext";
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string::npos) {
    const std::size_t token_pos = pos;
    pos += needle.size();
    if (token_pos > 0 && IsIdentChar(code[token_pos - 1])) continue;
    // Expect "* name" next.
    std::size_t i = pos;
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])))
      ++i;
    if (i >= code.size() || code[i] != '*') continue;
    ++i;
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])))
      ++i;
    std::size_t name_start = i;
    while (i < code.size() && IsIdentChar(code[i])) ++i;
    const std::string name = code.substr(name_start, i - name_start);
    if (name.empty()) continue;
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])))
      ++i;
    // Allow a "= nullptr" default argument.
    if (i < code.size() && code[i] == '=') {
      std::size_t j = i + 1;
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j])))
        ++j;
      if (code.compare(j, 7, "nullptr") != 0) continue;  // Local variable.
      i = j + 7;
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
    }
    // A parameter is followed by ',' or the ')' closing the list.
    if (i >= code.size() || (code[i] != ',' && code[i] != ')')) continue;

    // Close the parameter list: the token sits at depth >= 1, so walk
    // until the running depth goes negative.
    int depth = 0;
    std::size_t k = i;
    for (; k < code.size(); ++k) {
      if (code[k] == '(') ++depth;
      if (code[k] == ')') {
        if (depth == 0) break;
        --depth;
      }
    }
    if (k >= code.size()) continue;
    // Definition if the next ';' / '{' / '=' at brace level is '{'
    // (qualifiers like const/noexcept/override/annotations may
    // intervene; '=' covers "= 0;" and "= default;").
    std::size_t b = k + 1;
    int paren = 0;
    for (; b < code.size(); ++b) {
      const char c = code[b];
      if (c == '(') ++paren;  // e.g. noexcept(...) or macro(...).
      if (c == ')') --paren;
      if (paren > 0) continue;
      if (c == '{' || c == ';' || c == '=') break;
    }
    if (b >= code.size() || code[b] != '{') continue;  // Declaration only.
    // Brace-match the body.
    int braces = 0;
    std::size_t body_end = b;
    for (; body_end < code.size(); ++body_end) {
      if (code[body_end] == '{') ++braces;
      if (code[body_end] == '}') {
        --braces;
        if (braces == 0) break;
      }
    }
    // Include the region between ')' and '{': a constructor stashing the
    // context via its member-initializer list counts as forwarding.
    const std::string body = code.substr(k, body_end - k);
    if (FindTokens(body, name).empty()) {
      Add(findings, "stop-cadence", file.path, LineOf(code, token_pos),
          "function takes SolveContext* '" + name +
              "' but never checkpoints or forwards it; solver loops must "
              "consult the context on the kStopCheckInterval cadence");
    }
    pos = b;  // Nested definitions (lambdas) are scanned in turn.
  }
}

}  // namespace

void CheckStopCadence(const SourceFile& file,
                      std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) return;
  const std::string code = StripCommentsAndStrings(file.content);

  // Manual cadence arithmetic must match SolveContext::Checkpoint: a
  // power-of-two mask, tuned in one place.
  for (std::size_t pos : FindTokens(code, "kStopCheckInterval")) {
    std::size_t i = pos;
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(code[i - 1]))) {
      --i;
    }
    if (i > 0 && code[i - 1] == '%') {
      Add(findings, "stop-cadence", file.path, LineOf(code, pos),
          "use '& kStopCheckMask' for the stop-check cadence, not "
          "'% kStopCheckInterval'");
    }
  }

  const bool solver_layer = StartsWith(file.path, "src/core/") ||
                            StartsWith(file.path, "src/lp/") ||
                            StartsWith(file.path, "src/itemsets/");
  if (solver_layer && IsSource(file.path)) {
    CheckSolveContextUse(file, code, findings);
  }
}

void CheckRejectMetrics(const SourceFile& file,
                        std::vector<Finding>* findings) {
  const bool pipeline_layer = StartsWith(file.path, "src/serve/") ||
                              StartsWith(file.path, "src/tenant/");
  if (!pipeline_layer || !IsSource(file.path)) return;
  const std::string code = StripCommentsAndStrings(file.content);
  // A rejection and its counter bump live in the same short block; the
  // window is generous enough for an interleaved trace event but too
  // small to be satisfied by an unrelated counter in another function.
  constexpr std::size_t kWindow = 1200;
  for (std::size_t pos : FindTokens(code, "OverloadedError")) {
    const std::size_t window_start = pos > kWindow ? pos - kWindow : 0;
    const std::string before = code.substr(window_start, pos - window_start);
    if (FindTokens(before, "Increment").empty()) {
      Add(findings, "reject-metrics", file.path, LineOf(code, pos),
          "OverloadedError rejection with no ServeMetrics Increment in the "
          "preceding lines; every shed/reject path must bump a named "
          "counter so the overload ledger stays balanced");
    }
  }
}

void CheckCacheMetrics(const std::vector<SourceFile>& files,
                       std::vector<Finding>* findings) {
  const SourceFile* header = nullptr;
  const SourceFile* source = nullptr;
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, "tenant/result_cache.h")) header = &file;
    if (EndsWith(file.path, "tenant/result_cache.cc")) source = &file;
  }
  if (header == nullptr && source == nullptr) return;
  if (header == nullptr || source == nullptr) {
    Add(findings, "cache-metrics",
        (header != nullptr ? header : source)->path, 0,
        "result_cache.h and result_cache.cc must travel together");
    return;
  }

  // Every counter constant the header declares must be bumped somewhere
  // in the implementation: a declared-but-never-incremented counter is a
  // dashboard lie.
  const std::string header_code = StripCommentsAndStrings(header->content);
  const std::string code = StripCommentsAndStrings(source->content);
  std::set<std::string> constants;
  const std::string prefix = "kResultCache";
  std::size_t pos = 0;
  while ((pos = header_code.find(prefix, pos)) != std::string::npos) {
    // Qualified references (lock_rank::kResultCacheLru) are another
    // namespace's constants — only unqualified declarations are counter
    // names.
    std::size_t before = pos;
    while (before > 0 && header_code[before - 1] == ' ') --before;
    if (before >= 2 && header_code.compare(before - 2, 2, "::") == 0) {
      pos += prefix.size();
      continue;
    }
    std::size_t end = pos + prefix.size();
    while (end < header_code.size() &&
           (std::isalnum(static_cast<unsigned char>(header_code[end])) ||
            header_code[end] == '_')) {
      ++end;
    }
    if (end > pos + prefix.size()) {
      constants.insert(header_code.substr(pos, end - pos));
    }
    pos = end;
  }
  if (constants.empty()) {
    Add(findings, "cache-metrics", header->path, 0,
        "no kResultCache* counter constants found in result_cache.h");
    return;
  }
  for (const std::string& name : constants) {
    if (FindTokens(code, name).empty()) {
      Add(findings, "cache-metrics", source->path, 0,
          "counter constant " + name +
              " is declared in result_cache.h but never incremented in "
              "result_cache.cc; every cache hit/miss/evict path must bump "
              "its named ServeMetrics counter");
    }
  }

  // The structural LRU paths must count nearby: a recency splice is a
  // hit or (re)insert, a pop_back is an eviction. Same windowed shape as
  // the reject-metrics rule.
  constexpr std::size_t kWindow = 400;
  const auto check_window = [&](const char* token, const char* what) {
    for (std::size_t hit : FindTokens(code, token)) {
      const std::size_t window_end = std::min(code.size(), hit + kWindow);
      const std::size_t window_start = hit > kWindow ? hit - kWindow : 0;
      const std::string around =
          code.substr(window_start, window_end - window_start);
      if (FindTokens(around, "Count").empty() &&
          FindTokens(around, "Increment").empty()) {
        Add(findings, "cache-metrics", source->path, LineOf(code, hit),
            std::string(what) +
                " with no counter bump nearby; every cache "
                "hit/insert/evict path must increment a named "
                "ServeMetrics counter");
      }
    }
  };
  check_window("splice", "LRU recency bump (hit/insert path)");
  check_window("pop_back", "LRU eviction");
}

void CheckRegistryTestParity(const std::vector<SourceFile>& files,
                             std::vector<Finding>* findings) {
  const SourceFile* registry = nullptr;
  const SourceFile* test = nullptr;
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, "core/solver_registry.cc")) registry = &file;
    if (EndsWith(file.path, "tests/solver_registry_test.cc")) test = &file;
  }
  if (registry == nullptr) return;  // Nothing to check against.
  if (test == nullptr) {
    Add(findings, "registry-parity", registry->path, 0,
        "solver_registry.cc present but tests/solver_registry_test.cc is "
        "missing");
    return;
  }

  // Registered names: string literals opening an entry of the kRegistry
  // table ('{"Name", ...').
  const std::size_t table = registry->content.find("kRegistry[]");
  const std::size_t table_end =
      table == std::string::npos ? std::string::npos
                                 : registry->content.find("};", table);
  if (table == std::string::npos || table_end == std::string::npos) {
    Add(findings, "registry-parity", registry->path, 0,
        "could not locate the kRegistry[] table");
    return;
  }
  std::set<std::string> names;
  std::size_t pos = table;
  while ((pos = registry->content.find("{\"", pos)) != std::string::npos &&
         pos < table_end) {
    const std::size_t name_start = pos + 2;
    const std::size_t name_end = registry->content.find('"', name_start);
    if (name_end == std::string::npos) break;
    names.insert(
        registry->content.substr(name_start, name_end - name_start));
    pos = name_end;
  }
  if (names.empty()) {
    Add(findings, "registry-parity", registry->path, 0,
        "no registered solver names found in the kRegistry[] table");
    return;
  }
  for (const std::string& name : names) {
    if (test->content.find("\"" + name + "\"") == std::string::npos) {
      Add(findings, "registry-parity", test->path, 0,
          "registered solver \"" + name +
              "\" has no entry in solver_registry_test.cc");
    }
  }
}

void CheckPropertyParity(const std::vector<SourceFile>& files,
                         std::vector<Finding>* findings) {
  const SourceFile* registry = nullptr;
  const SourceFile* properties = nullptr;
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, "core/solver_registry.cc")) registry = &file;
    if (EndsWith(file.path, "check/properties.cc")) properties = &file;
  }
  if (registry == nullptr) return;  // Nothing to check against.
  if (properties == nullptr) {
    Add(findings, "property-parity", registry->path, 0,
        "solver_registry.cc present but src/check/properties.cc is "
        "missing");
    return;
  }

  // Registered names: string literals opening an entry of the kRegistry
  // table ('{"Name", ...').
  const std::size_t table = registry->content.find("kRegistry[]");
  const std::size_t table_end =
      table == std::string::npos ? std::string::npos
                                 : registry->content.find("};", table);
  if (table == std::string::npos || table_end == std::string::npos) {
    Add(findings, "property-parity", registry->path, 0,
        "could not locate the kRegistry[] table");
    return;
  }
  std::set<std::string> registered;
  std::size_t pos = table;
  while ((pos = registry->content.find("{\"", pos)) != std::string::npos &&
         pos < table_end) {
    const std::size_t name_start = pos + 2;
    const std::size_t name_end = registry->content.find('"', name_start);
    if (name_end == std::string::npos) break;
    registered.insert(
        registry->content.substr(name_start, name_end - name_start));
    pos = name_end;
  }

  // Property-checked names: every string literal of the
  // kPropertyCheckedSolvers[] list.
  const std::size_t list =
      properties->content.find("kPropertyCheckedSolvers[]");
  const std::size_t list_end =
      list == std::string::npos ? std::string::npos
                                : properties->content.find("};", list);
  if (list == std::string::npos || list_end == std::string::npos) {
    Add(findings, "property-parity", properties->path, 0,
        "could not locate the kPropertyCheckedSolvers[] list");
    return;
  }
  std::set<std::string> checked;
  pos = list;
  while ((pos = properties->content.find('"', pos)) != std::string::npos &&
         pos < list_end) {
    const std::size_t name_start = pos + 1;
    const std::size_t name_end = properties->content.find('"', name_start);
    if (name_end == std::string::npos || name_end >= list_end) break;
    checked.insert(
        properties->content.substr(name_start, name_end - name_start));
    pos = name_end + 1;
  }

  for (const std::string& name : registered) {
    if (checked.count(name) == 0) {
      Add(findings, "property-parity", properties->path, 0,
          "registered solver \"" + name +
              "\" is not in kPropertyCheckedSolvers[], so the property "
              "suite never exercises it");
    }
  }
  for (const std::string& name : checked) {
    if (registered.count(name) == 0) {
      Add(findings, "property-parity", properties->path, 0,
          "kPropertyCheckedSolvers[] lists \"" + name +
              "\" which is not registered in solver_registry.cc");
    }
  }
}

void CheckSpanNameParity(const std::vector<SourceFile>& files,
                         std::vector<Finding>* findings) {
  const SourceFile* table_file = nullptr;
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, "obs/span_names.h")) table_file = &file;
  }
  if (table_file == nullptr) return;  // Nothing to check against.

  // Canonical names: string literals of the kSpanNames[] table.
  const std::size_t table = table_file->content.find("kSpanNames[]");
  const std::size_t table_end =
      table == std::string::npos ? std::string::npos
                                 : table_file->content.find("};", table);
  if (table == std::string::npos || table_end == std::string::npos) {
    Add(findings, "span-name", table_file->path, 0,
        "could not locate the kSpanNames[] table");
    return;
  }
  std::set<std::string> names;
  std::size_t pos = table;
  while ((pos = table_file->content.find('"', pos)) != std::string::npos &&
         pos < table_end) {
    const std::size_t name_start = pos + 1;
    const std::size_t name_end = table_file->content.find('"', name_start);
    if (name_end == std::string::npos) break;
    names.insert(
        table_file->content.substr(name_start, name_end - name_start));
    pos = name_end + 1;
  }
  if (names.empty()) {
    Add(findings, "span-name", table_file->path, 0,
        "no canonical span names found in the kSpanNames[] table");
    return;
  }

  // Every span construction / recording call in the instrumented layers
  // must use a name from the table. The name is the first string-literal
  // argument; a non-literal name (a variable) cannot be checked here.
  constexpr const char* kInstrumentedLayers[] = {
      "src/core/", "src/lp/", "src/itemsets/", "src/serve/", "src/tenant/"};
  constexpr const char* kSpanTokens[] = {"PhaseScope", "TraceSpan",
                                         "RecordComplete", "RecordInstant"};
  for (const SourceFile& file : files) {
    bool instrumented = false;
    for (const char* layer : kInstrumentedLayers) {
      if (StartsWith(file.path, layer)) {
        instrumented = true;
        break;
      }
    }
    if (!instrumented) continue;
    // Tokens are located in the fully stripped text (no comments, no
    // strings); the literal itself is read from the comments-only copy.
    // Both strippers preserve offsets, so positions transfer.
    const std::string blanked = StripCommentsAndStrings(file.content);
    const std::string text = StripComments(file.content);
    for (const char* token : kSpanTokens) {
      for (std::size_t hit : FindTokens(blanked, token)) {
        const std::size_t open = blanked.find('(', hit + 1);
        if (open == std::string::npos) continue;  // Declaration, not a call.
        int depth = 1;
        std::size_t close = open + 1;
        for (; close < blanked.size() && depth > 0; ++close) {
          if (blanked[close] == '(') ++depth;
          if (blanked[close] == ')') --depth;
        }
        const std::size_t quote = text.find('"', open + 1);
        if (quote == std::string::npos || quote >= close) continue;
        const std::size_t quote_end = text.find('"', quote + 1);
        if (quote_end == std::string::npos) continue;
        const std::string name = text.substr(quote + 1, quote_end - quote - 1);
        if (names.count(name) == 0) {
          Add(findings, "span-name", file.path, LineOf(text, hit),
              std::string(token) + " name \"" + name +
                  "\" is not in the canonical kSpanNames[] table "
                  "(src/obs/span_names.h); add it there or reuse an "
                  "existing name");
        }
      }
    }
  }
}

void CheckEventFieldParity(const std::vector<SourceFile>& files,
                           std::vector<Finding>* findings) {
  const SourceFile* serve_header = nullptr;
  const SourceFile* event_header = nullptr;
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, "serve/request.h")) serve_header = &file;
    if (EndsWith(file.path, "obs/wide_event.h")) event_header = &file;
  }
  if (event_header == nullptr) return;  // Nothing to check against.
  if (serve_header == nullptr) {
    Add(findings, "event-field-parity", event_header->path, 0,
        "obs/wide_event.h present but src/serve/request.h is missing");
    return;
  }

  // Serve-side vocabulary: the value assigned to every kShedReason*
  // constant. Identifiers are located in the fully stripped copy (no
  // comments, so prose mentions of kShedReason* do not count) and the
  // literal is read from the comments-only copy; both strippers
  // preserve offsets.
  const std::string blanked = StripCommentsAndStrings(serve_header->content);
  const std::string text = StripComments(serve_header->content);
  std::set<std::string> serve_reasons;
  std::size_t pos = 0;
  while ((pos = blanked.find("kShedReason", pos)) != std::string::npos) {
    const std::size_t stmt_end = blanked.find(';', pos);
    const std::size_t assign = blanked.find('=', pos);
    if (assign != std::string::npos && stmt_end != std::string::npos &&
        assign < stmt_end) {
      const std::size_t quote = text.find('"', assign + 1);
      const std::size_t quote_end =
          quote == std::string::npos ? std::string::npos
                                     : text.find('"', quote + 1);
      if (quote != std::string::npos && quote_end != std::string::npos &&
          quote < stmt_end) {
        serve_reasons.insert(text.substr(quote + 1, quote_end - quote - 1));
      }
    }
    pos += 1;
  }
  if (serve_reasons.empty()) {
    Add(findings, "event-field-parity", serve_header->path, 0,
        "no kShedReason* constants found in request.h");
    return;
  }

  // Schema-side vocabulary: the kWideEventShedReasons[] table entries.
  const std::size_t table =
      event_header->content.find("kWideEventShedReasons[]");
  const std::size_t table_end =
      table == std::string::npos ? std::string::npos
                                 : event_header->content.find("};", table);
  if (table == std::string::npos || table_end == std::string::npos) {
    Add(findings, "event-field-parity", event_header->path, 0,
        "could not locate the kWideEventShedReasons[] table");
    return;
  }
  std::set<std::string> event_reasons;
  pos = table;
  while ((pos = event_header->content.find('"', pos)) != std::string::npos &&
         pos < table_end) {
    const std::size_t name_start = pos + 1;
    const std::size_t name_end =
        event_header->content.find('"', name_start);
    if (name_end == std::string::npos || name_end >= table_end) break;
    event_reasons.insert(
        event_header->content.substr(name_start, name_end - name_start));
    pos = name_end + 1;
  }

  for (const std::string& reason : serve_reasons) {
    if (event_reasons.count(reason) == 0) {
      Add(findings, "event-field-parity", event_header->path, 0,
          "serve shed reason \"" + reason +
              "\" is missing from kWideEventShedReasons[], so a wide "
              "event carrying it would fail its own schema");
    }
  }
  for (const std::string& reason : event_reasons) {
    if (serve_reasons.count(reason) == 0) {
      Add(findings, "event-field-parity", event_header->path, 0,
          "kWideEventShedReasons[] lists \"" + reason +
              "\" which no kShedReason* constant in "
              "request.h produces");
    }
  }
}

namespace {

// A '#'-directive line mentioning an AVX ISA macro anywhere in
// code[0, limit): the fence that keeps intrinsics out of non-x86 builds.
bool HasIsaFenceBefore(const std::string& code, std::size_t limit) {
  std::size_t start = 0;
  while (start < limit && start < code.size()) {
    std::size_t end = code.find('\n', start);
    if (end == std::string::npos) end = code.size();
    std::size_t i = start;
    while (i < end && (code[i] == ' ' || code[i] == '\t')) ++i;
    if (i < end && code[i] == '#' &&
        code.find("__AVX", i) != std::string::npos &&
        code.find("__AVX", i) < end) {
      return true;
    }
    start = end + 1;
  }
  return false;
}

}  // namespace

void CheckKernelDispatch(const std::vector<SourceFile>& files,
                         std::vector<Finding>* findings) {
  // Substring markers, not tokens: every x86 vector intrinsic and vector
  // type embeds one of these prefixes.
  static const char* const kIntrinsicMarkers[] = {
      "immintrin.h", "_mm_", "_mm256_", "_mm512_",
      "__m128",      "__m256", "__m512"};

  const SourceFile* dispatch_tu = nullptr;
  for (const SourceFile& file : files) {
    if (!StartsWith(file.path, "src/")) continue;
    if (!EndsWith(file.path, ".cc") && !EndsWith(file.path, ".h")) continue;
    const std::string code = StripCommentsAndStrings(file.content);
    if (StartsWith(file.path, "src/kernels/") && EndsWith(file.path, ".cc") &&
        !FindTokens(code, "DetectTier").empty()) {
      dispatch_tu = &file;
    }
    std::size_t first = std::string::npos;
    for (const char* marker : kIntrinsicMarkers) {
      const std::size_t pos = code.find(marker);
      if (pos != std::string::npos && pos < first) first = pos;
    }
    if (first == std::string::npos) continue;
    if (!StartsWith(file.path, "src/kernels/")) {
      Add(findings, "kernel-dispatch", file.path, LineOf(code, first),
          "vector intrinsics outside src/kernels; SIMD lives behind the "
          "kernels dispatch table so every call site keeps a scalar path");
      continue;
    }
    if (!HasIsaFenceBefore(code, first)) {
      Add(findings, "kernel-dispatch", file.path, LineOf(code, first),
          "intrinsics are not fenced by an ISA preprocessor guard "
          "(#if defined(__AVX...)); non-x86 builds would not compile");
      continue;
    }
    if (code.find("#else") == std::string::npos) {
      Add(findings, "kernel-dispatch", file.path, LineOf(code, first),
          "ISA-fenced kernel TU has no #else branch; the dispatch table "
          "needs a registered fallback (nullptr ops) on hosts without "
          "the ISA");
    }
  }

  // The dispatch TU must always register the scalar tier: a host failing
  // every CPUID probe still has to resolve to working ops.
  if (dispatch_tu != nullptr) {
    const std::string code = StripCommentsAndStrings(dispatch_tu->content);
    if (FindTokens(code, "ScalarOps").empty()) {
      Add(findings, "kernel-dispatch", dispatch_tu->path, 0,
          "kernel dispatch (DetectTier) never references ScalarOps; the "
          "scalar tier must be the unconditional fallback");
    }
  }
}

const std::vector<PassInfo>& Passes() {
  static const std::vector<PassInfo> kPasses = {
      {"include-guard", {"include-guard"}},
      {"naked-thread", {"naked-thread"}},
      {"layering", {"layering"}},
      {"stop-cadence", {"stop-cadence"}},
      {"reject-metrics", {"reject-metrics"}},
      {"cache-metrics", {"cache-metrics"}},
      {"registry-parity", {"registry-parity"}},
      {"property-parity", {"property-parity"}},
      {"span-name", {"span-name"}},
      {"event-field-parity", {"event-field-parity"}},
      {"kernel-dispatch", {"kernel-dispatch"}},
      {"lock-hierarchy",
       {"lock-order", "lock-rank-order", "lock-rank-missing",
        "blocking-under-lock", "condvar-wait-loop"}},
  };
  return kPasses;
}

namespace {

// Inline suppression: the finding's source line (or the line above it,
// for statements that wrap) carries `soc-lint-suppress(rule)`.
bool IsSuppressedInline(const std::vector<SourceFile>& files,
                        const Finding& finding) {
  if (finding.line <= 0) return false;
  const SourceFile* file = nullptr;
  for (const SourceFile& candidate : files) {
    if (candidate.path == finding.path) {
      file = &candidate;
      break;
    }
  }
  if (file == nullptr) return false;
  const std::string needle = "soc-lint-suppress(" + finding.rule + ")";
  int line = 1;
  std::size_t start = 0;
  while (start <= file->content.size()) {
    std::size_t end = file->content.find('\n', start);
    if (end == std::string::npos) end = file->content.size();
    if (line == finding.line || line == finding.line - 1) {
      if (file->content.substr(start, end - start).find(needle) !=
          std::string::npos) {
        return true;
      }
    }
    if (line > finding.line) break;
    line += 1;
    start = end + 1;
  }
  return false;
}

}  // namespace

std::vector<Finding> LintTree(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    CheckIncludeGuard(file, &findings);
    CheckNakedThread(file, &findings);
    CheckLayering(file, &findings);
    CheckStopCadence(file, &findings);
    CheckRejectMetrics(file, &findings);
  }
  CheckCacheMetrics(files, &findings);
  CheckRegistryTestParity(files, &findings);
  CheckPropertyParity(files, &findings);
  CheckSpanNameParity(files, &findings);
  CheckEventFieldParity(files, &findings);
  CheckKernelDispatch(files, &findings);
  CheckLockHierarchy(files, &findings);

  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& finding : findings) {
    if (!IsSuppressedInline(files, finding)) {
      kept.push_back(std::move(finding));
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return kept;
}

bool FixIncludeGuard(const SourceFile& file, std::string* fixed) {
  if (!EndsWith(file.path, ".h") || !StartsWith(file.path, "src/")) {
    return false;
  }
  const std::string code = StripCommentsAndStrings(file.content);
  if (code.find("#pragma once") != std::string::npos) return false;
  const std::size_t ifndef_pos = code.find("#ifndef ");
  if (ifndef_pos == std::string::npos) return false;
  std::size_t name_start = ifndef_pos + 8;
  while (name_start < code.size() && code[name_start] == ' ') ++name_start;
  std::size_t name_end = name_start;
  while (name_end < code.size() && IsIdentChar(code[name_end])) ++name_end;
  const std::string guard = code.substr(name_start, name_end - name_start);
  if (guard.empty()) return false;
  if (code.find("#define " + guard) == std::string::npos) return false;
  const std::string expected = CanonicalGuard(file.path);
  if (guard == expected) return false;  // Idempotence: nothing to do.

  // Rewrite every whole-identifier occurrence in the raw text: the
  // #ifndef/#define pair plus the conventional trailing
  // `#endif  // GUARD` comment.
  std::string out;
  out.reserve(file.content.size());
  std::size_t pos = 0;
  for (std::size_t hit : FindTokens(file.content, guard)) {
    out.append(file.content, pos, hit - pos);
    out += expected;
    pos = hit + guard.size();
  }
  out.append(file.content, pos, std::string::npos);
  *fixed = std::move(out);
  return true;
}

std::string BaselineKey(const Finding& finding) {
  return finding.rule + "\t" + finding.path + "\t" + finding.message;
}

std::set<std::string> ParseBaseline(const std::string& text) {
  std::set<std::string> baseline;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    baseline.insert(line);
  }
  return baseline;
}

std::string WriteBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& finding : findings) keys.insert(BaselineKey(finding));
  std::string out =
      "# soc_lint baseline: pinned pre-existing findings, one per line as\n"
      "# rule<TAB>path<TAB>message. Regenerate with --write-baseline; "
      "shrink it,\n"
      "# never grow it.\n";
  for (const std::string& key : keys) {
    out += key;
    out += '\n';
  }
  return out;
}

std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::set<std::string>& baseline) {
  std::vector<Finding> kept;
  for (const Finding& finding : findings) {
    if (baseline.count(BaselineKey(finding)) == 0) kept.push_back(finding);
  }
  return kept;
}

namespace {

// Stable artifact ordering: primary key is the rule id, so adding a
// file never reshuffles another rule's block in the diff.
std::vector<Finding> SortedForArtifact(std::vector<Finding> findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.rule != b.rule) return a.rule < b.rule;
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::vector<JsonValue> entries;
  entries.reserve(findings.size());
  for (const Finding& finding : SortedForArtifact(findings)) {
    JsonValue entry = JsonValue::Object();
    entry.Set("rule", JsonValue::String(finding.rule))
        .Set("path", JsonValue::String(finding.path))
        .Set("line", JsonValue::Int(finding.line))
        .Set("message", JsonValue::String(finding.message));
    entries.push_back(std::move(entry));
  }
  JsonValue root = JsonValue::Object();
  root.Set("schema_version", JsonValue::Int(2))
      .Set("findings", JsonValue::Array(std::move(entries)));
  return root.ToString();
}

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  std::vector<JsonValue> rules;
  for (const PassInfo& pass : Passes()) {
    for (const char* rule : pass.rules) {
      JsonValue entry = JsonValue::Object();
      entry.Set("id", JsonValue::String(rule));
      rules.push_back(std::move(entry));
    }
  }

  std::vector<JsonValue> results;
  results.reserve(findings.size());
  for (const Finding& finding : SortedForArtifact(findings)) {
    JsonValue message = JsonValue::Object();
    message.Set("text", JsonValue::String(finding.message));

    JsonValue artifact = JsonValue::Object();
    artifact.Set("uri", JsonValue::String(finding.path));
    JsonValue region = JsonValue::Object();
    region.Set("startLine",
               JsonValue::Int(finding.line > 0 ? finding.line : 1));
    JsonValue physical = JsonValue::Object();
    physical.Set("artifactLocation", std::move(artifact))
        .Set("region", std::move(region));
    JsonValue location = JsonValue::Object();
    location.Set("physicalLocation", std::move(physical));

    JsonValue result = JsonValue::Object();
    result.Set("ruleId", JsonValue::String(finding.rule))
        .Set("level", JsonValue::String("error"))
        .Set("message", std::move(message))
        .Set("locations",
             JsonValue::Array(std::vector<JsonValue>{std::move(location)}));
    results.push_back(std::move(result));
  }

  JsonValue driver = JsonValue::Object();
  driver.Set("name", JsonValue::String("soc_lint"))
      .Set("informationUri",
           JsonValue::String("tools/soc_lint"))
      .Set("rules", JsonValue::Array(std::move(rules)));
  JsonValue tool = JsonValue::Object();
  tool.Set("driver", std::move(driver));
  JsonValue run = JsonValue::Object();
  run.Set("tool", std::move(tool))
      .Set("results", JsonValue::Array(std::move(results)));

  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::String("2.1.0"))
      .Set("$schema",
           JsonValue::String("https://json.schemastore.org/sarif-2.1.0.json"))
      .Set("runs", JsonValue::Array(std::vector<JsonValue>{std::move(run)}));
  return root.ToString();
}

}  // namespace soc::lint
