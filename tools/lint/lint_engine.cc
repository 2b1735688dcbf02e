#include "lint/lint_engine.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "lint/source_scan.h"

namespace shadoop::lint {
namespace {

/// One file, preprocessed for rule matching.
struct FileView {
  std::string path;  // Normalized to forward slashes.
  std::vector<std::string> raw;
  std::vector<std::string> code;  // BlankCommentsAndLiterals(raw).
};

bool LineIncludesHeader(const std::string& code_line,
                        std::string_view header) {
  std::string squeezed;
  for (char c : code_line) {
    if (!std::isspace(static_cast<unsigned char>(c))) squeezed.push_back(c);
  }
  return squeezed.rfind(std::string("#include<") + std::string(header) + ">",
                        0) == 0;
}

/// `// lint:allow(rule-a, rule-b)` — rules suppressed on this line only.
constexpr std::string_view kAllowMarkers[] = {"lint:allow("};

void AddFinding(const FileView& view, size_t line_idx, const RuleInfo& rule,
                std::vector<Finding>* findings) {
  findings->push_back(Finding{view.path, static_cast<int>(line_idx) + 1,
                              rule.id, rule.summary});
}

// ---------------------------------------------------------------------------
// Rule registry. To add a rule: append an entry here, cover it in
// tests/lint_test.cc (fires + stays quiet + lint:allow), and document it
// in the DESIGN.md §11 rule table.

using RuleFn = void (*)(const FileView&, const RuleInfo&,
                        std::vector<Finding>*);

struct RuleImpl {
  RuleInfo info;
  /// Paths where the rule does not apply (PathMatches: "bench/" exempts
  /// the whole bench harness, "_main.cc" every CLI main).
  std::vector<std::string> exempt_paths;
  RuleFn fn;
};

/// Flags every line naming one of `tokens` or calling one of `calls`.
void FlagBannedNames(const FileView& view, const RuleInfo& rule,
                     std::span<const std::string_view> tokens,
                     std::span<const std::string_view> calls,
                     std::vector<Finding>* findings) {
  for (size_t i = 0; i < view.code.size(); ++i) {
    if (!FirstBannedName(view.code[i], tokens, calls).empty()) {
      AddFinding(view, i, rule, findings);
    }
  }
}

void BannedClockRule(const FileView& view, const RuleInfo& rule,
                     std::vector<Finding>* findings) {
  FlagBannedNames(view, rule, kClockTokens, kClockCalls, findings);
}

void BannedRandomRule(const FileView& view, const RuleInfo& rule,
                      std::vector<Finding>* findings) {
  FlagBannedNames(view, rule, kRandomTokens, kRandomCalls, findings);
}

/// `.end()` counts too: it also catches a walk that starts at `find()`.
constexpr std::string_view kIteratorMembers[] = {"begin", "end", "cbegin",
                                                 "cend"};

void UnorderedIterationRule(const FileView& view, const RuleInfo& rule,
                            std::vector<Finding>* findings) {
  const std::vector<std::string> names = UnorderedNames(view.code);
  if (names.empty()) return;
  for (size_t i = 0; i < view.code.size(); ++i) {
    if (IteratesUnordered(view.code[i], names, kIteratorMembers)) {
      AddFinding(view, i, rule, findings);
    }
  }
}

void NakedMutexRule(const FileView& view, const RuleInfo& rule,
                    std::vector<Finding>* findings) {
  static const char* kTokens[] = {"std::mutex", "std::shared_mutex",
                                  "std::recursive_mutex", "std::timed_mutex",
                                  "std::shared_timed_mutex"};
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& line = view.code[i];
    for (const char* token : kTokens) {
      if (!TokenHits(line, token).empty()) AddFinding(view, i, rule, findings);
    }
    if (LineIncludesHeader(line, "mutex") ||
        LineIncludesHeader(line, "shared_mutex")) {
      AddFinding(view, i, rule, findings);
    }
  }
}

void IostreamIncludeRule(const FileView& view, const RuleInfo& rule,
                         std::vector<Finding>* findings) {
  for (size_t i = 0; i < view.code.size(); ++i) {
    if (LineIncludesHeader(view.code[i], "iostream")) {
      AddFinding(view, i, rule, findings);
    }
  }
}

void BannedFloatAccumRule(const FileView& view, const RuleInfo& rule,
                          std::vector<Finding>* findings) {
  for (size_t i = 0; i < view.code.size(); ++i) {
    // `float` as a whole token covers declarations, casts and template
    // arguments alike; float32_t-style names don't match.
    if (!TokenHits(view.code[i], "float").empty()) {
      AddFinding(view, i, rule, findings);
    }
  }
}

/// `name(` occurrences including member calls (`ctx.Emit(`): the rule
/// cares that records flow out, not through which receiver.
bool HasCallToken(const std::string& line, std::string_view name) {
  for (size_t pos : TokenHits(line, name)) {
    size_t i = pos + name.size();
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') return true;
  }
  return false;
}

void UnstableSortBeforeEmitRule(const FileView& view, const RuleInfo& rule,
                                std::vector<Finding>* findings) {
  constexpr size_t kWindow = 12;
  for (size_t i = 0; i < view.code.size(); ++i) {
    bool is_std_sort = false;
    for (size_t pos : TokenHits(view.code[i], "sort")) {
      if (pos >= 5 && view.code[i].compare(pos - 5, 5, "std::") == 0) {
        is_std_sort = true;
      }
    }
    if (!is_std_sort) continue;
    const size_t last = std::min(view.code.size(), i + 1 + kWindow);
    for (size_t j = i; j < last; ++j) {
      if (HasCallToken(view.code[j], "Emit") ||
          HasCallToken(view.code[j], "WriteOutput")) {
        AddFinding(view, i, rule, findings);
        break;
      }
    }
  }
}

/// Positions of member `.size()` / `->size()` calls on a line.
std::vector<size_t> SizeCallHits(const std::string& line) {
  std::vector<size_t> hits;
  for (size_t pos : TokenHits(line, "size")) {
    if (pos == 0) continue;
    const bool member =
        line[pos - 1] == '.' ||
        (line[pos - 1] == '>' && pos > 1 && line[pos - 2] == '-');
    if (!member) continue;
    size_t i = pos + 4;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') hits.push_back(pos);
  }
  return hits;
}

/// True when the line mentions an identifier whose name contains "seed"
/// (any case): `seed`, `kSeed`, `hash_seed`, `SeedFor`, ...
bool MentionsSeedIdentifier(const std::string& line) {
  for (size_t i = 0; i < line.size(); ++i) {
    if (IsIdentChar(line[i]) && (i == 0 || !IsIdentChar(line[i - 1]))) {
      size_t end = i;
      while (end < line.size() && IsIdentChar(line[end])) ++end;
      std::string ident = line.substr(i, end - i);
      std::transform(ident.begin(), ident.end(), ident.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (ident.find("seed") != std::string::npos) return true;
      i = end;
    }
  }
  return false;
}

void SizeDependentSeedRule(const FileView& view, const RuleInfo& rule,
                           std::vector<Finding>* findings) {
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& line = view.code[i];
    if (SizeCallHits(line).empty()) continue;
    // A `.size()` feeding a Random construction or any seed-named value
    // collapses distinct inputs of equal cardinality onto one stream and
    // silently reseeds whenever the data grows. One line of lookback
    // covers a seed expression wrapped before the `.size()` call — but
    // only when the previous line is visibly mid-expression (ends in an
    // opener or operator), so a complete `Random rng(kSeed);` statement
    // followed by an ordinary `.size()` loop stays quiet.
    bool prev_opens_seed = false;
    if (i > 0 && (!TokenHits(view.code[i - 1], "Random").empty() ||
                  MentionsSeedIdentifier(view.code[i - 1]))) {
      const std::string& prev = view.code[i - 1];
      size_t last = prev.find_last_not_of(' ');
      if (last != std::string::npos) {
        const char c = prev[last];
        prev_opens_seed = c == '(' || c == '=' || c == ',' || c == '+' ||
                          c == '^' || c == '&' || c == '|' || c == '*';
      }
    }
    if (!TokenHits(line, "Random").empty() || MentionsSeedIdentifier(line) ||
        prev_opens_seed) {
      AddFinding(view, i, rule, findings);
    }
  }
}

const std::vector<RuleImpl>& RuleRegistry() {
  static const std::vector<RuleImpl>* kRules = new std::vector<RuleImpl>{
      {{"banned-clock",
        "wall-clock read in library code; Stopwatch (common/stopwatch.h) "
        "and simulated time are the only clocks — real time breaks "
        "run-to-run determinism"},
       {"common/stopwatch.h", "bench/"},
       &BannedClockRule},
      {{"banned-random",
        "nondeterministic randomness; draw from an explicitly seeded "
        "shadoop::Random (common/random.h) so runs reproduce"},
       {"common/random.h", "common/random.cc"},
       &BannedRandomRule},
      {{"unordered-iteration",
        "iteration over a hash container; its order feeds emits and "
        "counters — use an ordered container or a sorted snapshot"},
       {},
       &UnorderedIterationRule},
      {{"naked-mutex",
        "naked std::mutex; declare shadoop::Mutex and lock via MutexLock "
        "(common/thread_annotations.h) so Clang thread-safety analysis "
        "sees the lock"},
       {},
       &NakedMutexRule},
      {{"iostream-include",
        "<iostream> in library code; log through common/logging.h "
        "(CLI mains and the bench harness print by design)"},
       {"_main.cc", "bench/"},
       &IostreamIncludeRule},
      {{"banned-float-accum",
        "float in library code; geometry accumulation is double-only — "
        "float rounding shifts MBRs, cell boundaries and dedup reference "
        "points between runs and platforms"},
       {},
       &BannedFloatAccumRule},
      {{"unstable-sort-before-emit",
        "std::sort feeding emitted output; equal-key order is "
        "unspecified and varies across libc++ versions — use "
        "std::stable_sort (or a total tie-breaking comparator) before "
        "Emit/WriteOutput"},
       {},
       &UnstableSortBeforeEmitRule},
      {{"size-dependent-seed",
        ".size() feeding a Random seed; a size-derived seed gives equal-"
        "cardinality inputs the same stream and silently reseeds when "
        "the data grows — seed from an explicit constant or a stable "
        "identity"},
       {},
       &SizeDependentSeedRule},
  };
  return *kRules;
}

}  // namespace

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": " << finding.rule << ": "
      << finding.message;
  return out.str();
}

Linter::Linter() {
  for (const RuleImpl& rule : RuleRegistry()) rules_.push_back(rule.info);
}

std::vector<Finding> Linter::LintFile(std::string_view path,
                                      std::string_view contents) const {
  FileView view;
  view.path = NormalizePath(path);
  view.raw = SplitLines(contents);
  view.code = BlankCommentsAndLiterals(view.raw);

  std::vector<Finding> findings;
  for (const RuleImpl& rule : RuleRegistry()) {
    if (PathMatches(view.path, rule.exempt_paths)) continue;
    rule.fn(view, rule.info, &findings);
  }

  // Apply per-line `lint:allow(rule)` escapes, then order by position so
  // output is stable regardless of rule registration order.
  std::vector<Finding> kept;
  for (Finding& finding : findings) {
    const std::string& raw_line = view.raw[static_cast<size_t>(finding.line) - 1];
    if (AllowedIds(raw_line, kAllowMarkers).count(finding.rule) > 0) continue;
    kept.push_back(std::move(finding));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  // One finding per (line, rule): several banned tokens on one line are
  // one problem to fix.
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.line == b.line && a.rule == b.rule;
                         }),
             kept.end());
  return kept;
}

std::vector<Finding> Linter::LintTree(const std::string& root) const {
  std::vector<std::string> paths;
  if (const std::error_code ec = ListSourceFiles(root, &paths)) {
    return {Finding{root, 0, "io-error", "cannot walk tree: " + ec.message()}};
  }
  std::vector<Finding> findings;
  for (const std::string& path : paths) {
    std::string contents;
    if (!ReadFile(path, &contents)) {
      findings.push_back(Finding{NormalizePath(path), 0, "io-error",
                                 "cannot read file"});
      continue;
    }
    std::vector<Finding> file_findings = LintFile(path, contents);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

}  // namespace shadoop::lint
