#include "analyze/analyzer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "lint/source_scan.h"

namespace shadoop::analyze {
namespace {

using lint::Finding;

/// `// lint:allow(a, b)` and `// analyze:allow(a, b)` both cut a sink.
constexpr std::string_view kAllowMarkers[] = {"lint:allow(", "analyze:allow("};

/// Hash-order leaks only: a range-for or an explicit `.begin()` /
/// `.cbegin()` walk. Point lookups (`find`, `count`, `.end()`
/// comparisons) are order-independent.
constexpr std::string_view kIteratorMembers[] = {"begin", "cbegin"};

// ---------------------------------------------------------------------------
// Taint configuration (DESIGN.md §16.2)

/// Modules whose functions are the query path: everything a Pigeon
/// statement, a server request, or a direct op call executes. Any
/// function defined here is a taint root; anything those reach by call
/// is on the query path transitively.
const char* const kEntryModules[] = {"core", "catalog", "optimizer",
                                     "pigeon", "server"};

struct SinkSpec {
  const char* kind;        // Stable half of the baseline key.
  const char* lint_alias;  // Legacy lint rule id honored in escapes.
  std::span<const std::string_view> tokens;
  std::span<const std::string_view> calls;
  /// Paths where this sink class is legal (lint::PathMatches). The
  /// wall-clock sinks are legal inside the Stopwatch wrapper itself and
  /// in the bench harness (whose whole point is wall time); the seeded
  /// RNG engine is legal inside common/random and the bench harness.
  std::vector<std::string> allowed_paths;
};

/// The Stopwatch wrapper and its `wall_ms` results, then the lint's clock
/// tokens. The first match names the sink in findings and baseline keys,
/// so the order is part of the output.
const std::vector<std::string_view>& WallClockTokens() {
  static const std::vector<std::string_view>* kTokens = [] {
    auto* tokens = new std::vector<std::string_view>{"Stopwatch", "wall_ms"};
    tokens->insert(tokens->end(), std::begin(lint::kClockTokens),
                   std::end(lint::kClockTokens));
    return tokens;
  }();
  return *kTokens;
}

const std::vector<SinkSpec>& SinkSpecs() {
  static const std::vector<SinkSpec>* kSpecs = new std::vector<SinkSpec>{
      {"wall-clock",
       "banned-clock",
       WallClockTokens(),
       lint::kClockCalls,
       {"common/stopwatch.h", "bench/"}},
      {"nondet-seed",
       "banned-random",
       lint::kRandomTokens,
       lint::kRandomCalls,
       {"common/random.h", "common/random.cc", "bench/"}},
      {"unordered-iteration",
       "unordered-iteration",
       {},  // Structural detection: lint::IteratesUnordered.
       {},
       {}},
  };
  return *kSpecs;
}

struct SinkHit {
  std::string kind;
  std::string token;
  int line = 0;
};

/// All sink hits on lines [begin, end] (1-based, inclusive) of `file`,
/// after per-line escapes and per-path allowlists.
std::vector<SinkHit> ScanRange(const FileInfo& file,
                               const std::vector<std::string>& unordered_names,
                               int begin, int end) {
  std::vector<SinkHit> hits;
  begin = std::max(begin, 1);
  end = std::min(end, static_cast<int>(file.code.size()));
  for (int lineno = begin; lineno <= end; ++lineno) {
    const std::string& line = file.code[static_cast<size_t>(lineno) - 1];
    const std::string& raw = file.raw[static_cast<size_t>(lineno) - 1];
    const std::set<std::string> allowed = lint::AllowedIds(raw, kAllowMarkers);
    for (const SinkSpec& spec : SinkSpecs()) {
      if (lint::PathMatches(file.repo_path, spec.allowed_paths)) continue;
      if (allowed.count(spec.kind) > 0 || allowed.count(spec.lint_alias) > 0 ||
          allowed.count("determinism-taint") > 0) {
        continue;
      }
      std::string token = lint::FirstBannedName(line, spec.tokens, spec.calls);
      if (token.empty() && std::string_view(spec.kind) == "unordered-iteration" &&
          lint::IteratesUnordered(line, unordered_names, kIteratorMembers)) {
        token = "hash-order iteration";
      }
      if (!token.empty()) hits.push_back({spec.kind, token, lineno});
    }
  }
  return hits;
}

// ---------------------------------------------------------------------------
// Layer DAG (DESIGN.md §16.3). A module may include itself and strictly
// lower layers; peer (same-rank) and upward includes invert the
// architecture and are findings. Files outside src/ (tools, bench,
// tests, examples) sit on the implicit application layer above
// everything: they may include any src module, and no src module may
// include them.

const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int>* kRanks =
      new std::map<std::string, int>{
          {"common", 0},    {"fault", 0},   {"simd", 0}, {"geometry", 1},
          {"hdfs", 1},      {"mapreduce", 2}, {"index", 3}, {"core", 4},
          {"workload", 4},  {"catalog", 5}, {"viz", 5},  {"optimizer", 6},
          {"pigeon", 7},    {"server", 8},
      };
  return *kRanks;
}

constexpr int kAppRank = 100;

std::string ChainName(const FunctionInfo& fn) {
  return fn.qualified.empty() ? fn.name : fn.qualified;
}

}  // namespace

Analyzer::Analyzer() {
  rules_ = {
      {"determinism-taint",
       "a query-path function transitively reaches a wall-clock read, "
       "nondeterministic seed, or unordered-container iteration outside "
       "the allowlisted modules; the message prints the full call chain "
       "— fix the sink, or baseline it with the printed key"},
      {"layer-violation",
       "an #include crosses the declared layer DAG upward or sideways "
       "(e.g. src/core including src/server); lower layers must not "
       "depend on higher or peer layers"},
      {"layer-undeclared",
       "a src/ module is missing from the declared layer DAG; rank it in "
       "tools/analyze/analyzer.cc and the DESIGN.md §16.3 table"},
      {"include-cycle",
       "project headers include each other in a cycle; break the cycle "
       "with a forward declaration or an interface split"},
      {"stale-baseline",
       "a baseline entry matches no current finding; delete the entry so "
       "the baseline stays an exact inventory of real exceptions"},
  };
}

void Analyzer::LoadBaseline(std::string_view path, std::string_view contents) {
  baseline_path_ = RepoRelative(path);
  int lineno = 0;
  for (std::string line : lint::SplitLines(contents)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream in(line);
    BaselineEntry entry;
    entry.line = lineno;
    if (!(in >> entry.rule)) continue;  // Blank / comment-only line.
    in >> entry.key;                    // Empty key => malformed, kept.
    baseline_.push_back(std::move(entry));
  }
}

std::vector<lint::Finding> Analyzer::Run() const {
  const std::vector<FileInfo>& files = index_.files();
  const std::vector<FunctionInfo>& functions = index_.functions();

  // Keyed findings: the key is what the baseline file matches against.
  std::vector<std::pair<Finding, std::string>> keyed;

  // -- 1. Sink collection ---------------------------------------------------

  std::vector<std::vector<SinkHit>> fn_sinks(functions.size());
  std::vector<std::vector<SinkHit>> file_scope_sinks(files.size());
  std::set<std::string> entry_modules;
  for (const char* m : kEntryModules) entry_modules.insert(m);

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const FileInfo& file = files[fi];
    const std::vector<std::string> unordered_names =
        lint::UnorderedNames(file.code);
    std::vector<bool> covered(file.code.size() + 1, false);
    for (int fid : file.functions) {
      const FunctionInfo& fn = functions[static_cast<size_t>(fid)];
      fn_sinks[static_cast<size_t>(fid)] =
          ScanRange(file, unordered_names, fn.line, fn.body_end);
      for (int l = fn.line; l <= fn.body_end &&
                            l <= static_cast<int>(file.code.size());
           ++l) {
        covered[static_cast<size_t>(l)] = true;
      }
    }
    // File-scope lines (field declarations, globals) have no caller, so
    // reachability cannot see them; flag them directly — but only in
    // query-path modules, mirroring the taint roots.
    if (file.in_src && entry_modules.count(file.module) > 0) {
      for (int l = 1; l <= static_cast<int>(file.code.size()); ++l) {
        if (covered[static_cast<size_t>(l)]) continue;
        std::vector<SinkHit> hits = ScanRange(file, unordered_names, l, l);
        file_scope_sinks[fi].insert(file_scope_sinks[fi].end(), hits.begin(),
                                    hits.end());
      }
    }
  }

  // -- 2. Call graph + reachability from the query-path entries -------------

  std::map<std::string, std::vector<int>> by_name;
  std::map<std::string, std::vector<int>> by_qualified;
  for (size_t i = 0; i < functions.size(); ++i) {
    by_name[functions[i].name].push_back(static_cast<int>(i));
    if (!functions[i].qualified.empty()) {
      by_qualified[functions[i].qualified].push_back(static_cast<int>(i));
    }
  }

  std::vector<std::vector<int>> callees(functions.size());
  for (size_t i = 0; i < functions.size(); ++i) {
    std::set<int> out;
    for (const CallSite& call : functions[i].calls) {
      const std::vector<int>* targets = nullptr;
      if (!call.qualified.empty()) {
        auto it = by_qualified.find(call.qualified);
        if (it != by_qualified.end()) targets = &it->second;
      }
      if (targets == nullptr) {
        auto it = by_name.find(call.name);
        if (it != by_name.end()) targets = &it->second;
      }
      if (targets == nullptr) continue;
      for (int t : *targets) {
        if (t != static_cast<int>(i)) out.insert(t);
      }
    }
    callees[i].assign(out.begin(), out.end());
  }

  std::vector<int> dist(functions.size(), -1);
  std::vector<int> parent(functions.size(), -1);
  std::deque<int> queue;
  for (size_t i = 0; i < functions.size(); ++i) {
    const FileInfo& file = files[static_cast<size_t>(functions[i].file)];
    if (file.in_src && entry_modules.count(file.module) > 0) {
      dist[i] = 0;
      queue.push_back(static_cast<int>(i));
    }
  }
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    for (int next : callees[static_cast<size_t>(cur)]) {
      if (dist[static_cast<size_t>(next)] >= 0) continue;
      dist[static_cast<size_t>(next)] = dist[static_cast<size_t>(cur)] + 1;
      parent[static_cast<size_t>(next)] = cur;
      queue.push_back(next);
    }
  }

  // -- 3. Taint findings ----------------------------------------------------

  for (size_t i = 0; i < functions.size(); ++i) {
    if (dist[i] < 0 || fn_sinks[i].empty()) continue;
    const FunctionInfo& fn = functions[i];
    const FileInfo& file = files[static_cast<size_t>(fn.file)];
    // One finding per sink kind in this function.
    std::map<std::string, std::vector<const SinkHit*>> by_kind;
    for (const SinkHit& hit : fn_sinks[i]) by_kind[hit.kind].push_back(&hit);
    for (const auto& [kind, hits] : by_kind) {
      std::vector<std::string> chain;
      for (int cur = static_cast<int>(i); cur >= 0;
           cur = parent[static_cast<size_t>(cur)]) {
        chain.push_back(ChainName(functions[static_cast<size_t>(cur)]));
      }
      std::reverse(chain.begin(), chain.end());
      std::ostringstream msg;
      msg << kind << " sink '" << hits.front()->token << "' ("
          << hits.size() << " site" << (hits.size() == 1 ? "" : "s")
          << ") reachable from the query path; call chain: ";
      const FunctionInfo& entry_fn =
          functions[static_cast<size_t>([&] {
            int cur = static_cast<int>(i);
            while (parent[static_cast<size_t>(cur)] >= 0) {
              cur = parent[static_cast<size_t>(cur)];
            }
            return cur;
          }())];
      const FileInfo& entry_file =
          files[static_cast<size_t>(entry_fn.file)];
      for (size_t c = 0; c < chain.size(); ++c) {
        if (c > 0) msg << " -> ";
        msg << chain[c];
      }
      msg << " [entry " << entry_file.repo_path << ":" << entry_fn.line
          << ", sink " << file.repo_path << ":" << hits.front()->line << "]";
      const std::string key = kind + (":" + fn.qualified);
      msg << "; baseline key '" << key << "'";
      keyed.push_back({Finding{file.repo_path, hits.front()->line,
                               "determinism-taint", msg.str()},
                       key});
    }
  }

  for (size_t fi = 0; fi < files.size(); ++fi) {
    if (file_scope_sinks[fi].empty()) continue;
    const FileInfo& file = files[fi];
    std::map<std::string, std::vector<const SinkHit*>> by_kind;
    for (const SinkHit& hit : file_scope_sinks[fi]) {
      by_kind[hit.kind].push_back(&hit);
    }
    for (const auto& [kind, hits] : by_kind) {
      std::ostringstream msg;
      msg << kind << " sink '" << hits.front()->token << "' (" << hits.size()
          << " site" << (hits.size() == 1 ? "" : "s")
          << ") at file scope in query-path module '" << file.module << "'";
      const std::string key = kind + ":file:" + file.repo_path;
      msg << "; baseline key '" << key << "'";
      keyed.push_back({Finding{file.repo_path, hits.front()->line,
                               "determinism-taint", msg.str()},
                       key});
    }
  }

  // -- 4. Layering ----------------------------------------------------------

  const std::map<std::string, int>& ranks = LayerRanks();
  std::set<std::string> undeclared_reported;
  std::vector<std::vector<int>> include_graph(files.size());
  std::vector<std::vector<int>> include_lines(files.size());

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const FileInfo& file = files[fi];
    for (const IncludeEdge& edge : file.includes) {
      const int target = index_.ResolveInclude(static_cast<int>(fi), edge);
      if (target < 0) continue;
      include_graph[fi].push_back(target);
      include_lines[fi].push_back(edge.line);
      if (!file.in_src) continue;  // Apps may include anything.
      const FileInfo& dst = files[static_cast<size_t>(target)];
      if (dst.module == file.module && dst.in_src == file.in_src) continue;
      auto src_rank = ranks.find(file.module);
      if (src_rank == ranks.end()) {
        if (undeclared_reported.insert(file.module).second) {
          keyed.push_back(
              {Finding{file.repo_path, edge.line, "layer-undeclared",
                       "src module '" + file.module +
                           "' is not ranked in the layer DAG (DESIGN.md "
                           "§16.3); declare it in tools/analyze/analyzer.cc"},
               "module:" + file.module});
        }
        continue;
      }
      int dst_rank = kAppRank;
      std::string dst_layer = "application layer";
      if (dst.in_src) {
        auto it = ranks.find(dst.module);
        if (it == ranks.end()) {
          if (undeclared_reported.insert(dst.module).second) {
            keyed.push_back(
                {Finding{dst.repo_path, 1, "layer-undeclared",
                         "src module '" + dst.module +
                             "' is not ranked in the layer DAG (DESIGN.md "
                             "§16.3); declare it in tools/analyze/analyzer.cc"},
                 "module:" + dst.module});
          }
          continue;
        }
        dst_rank = it->second;
        dst_layer = "layer " + std::to_string(dst_rank);
      }
      if (dst_rank < src_rank->second) continue;
      std::ostringstream msg;
      msg << "layer order violated: " << file.module << " (layer "
          << src_rank->second << ") -> " << dst.module << " (" << dst_layer
          << ") via include \"" << edge.spec << "\" of " << dst.repo_path
          << "; a module may include only strictly lower layers";
      const std::string key = file.module + "->" + dst.module;
      msg << "; baseline key '" << key << "'";
      keyed.push_back(
          {Finding{file.repo_path, edge.line, "layer-violation", msg.str()},
           key});
    }
  }

  // -- 5. Include cycles ----------------------------------------------------

  {
    std::vector<int> color(files.size(), 0);  // 0 white, 1 gray, 2 black.
    std::vector<int> path;
    std::set<std::string> seen_cycles;
    // Recursive DFS via explicit stack of (node, next-child-index).
    for (size_t start = 0; start < files.size(); ++start) {
      if (color[start] != 0) continue;
      std::vector<std::pair<int, size_t>> stack{{static_cast<int>(start), 0}};
      color[start] = 1;
      path.push_back(static_cast<int>(start));
      while (!stack.empty()) {
        auto& [node, child] = stack.back();
        if (child >= include_graph[static_cast<size_t>(node)].size()) {
          color[static_cast<size_t>(node)] = 2;
          path.pop_back();
          stack.pop_back();
          continue;
        }
        const int next = include_graph[static_cast<size_t>(node)][child++];
        if (color[static_cast<size_t>(next)] == 1) {
          // Found a cycle: path from `next` to `node`, then back.
          std::vector<int> cycle;
          bool in_cycle = false;
          for (int p : path) {
            if (p == next) in_cycle = true;
            if (in_cycle) cycle.push_back(p);
          }
          // Canonicalize: rotate so the lexicographically smallest
          // repo path leads, so the finding is stable.
          size_t min_at = 0;
          for (size_t c = 1; c < cycle.size(); ++c) {
            if (files[static_cast<size_t>(cycle[c])].repo_path <
                files[static_cast<size_t>(cycle[min_at])].repo_path) {
              min_at = c;
            }
          }
          std::rotate(cycle.begin(), cycle.begin() + static_cast<long>(min_at),
                      cycle.end());
          std::ostringstream chain;
          for (int c : cycle) {
            chain << files[static_cast<size_t>(c)].repo_path << " -> ";
          }
          chain << files[static_cast<size_t>(cycle.front())].repo_path;
          const std::string key =
              "cycle:" + files[static_cast<size_t>(cycle.front())].repo_path;
          if (seen_cycles.insert(chain.str()).second) {
            // Anchor the finding on the first edge of the canonical
            // cycle so it is clickable.
            const int head = cycle.front();
            const int second =
                cycle.size() > 1 ? cycle[1] : cycle.front();
            int line = 1;
            const auto& outs = include_graph[static_cast<size_t>(head)];
            for (size_t e = 0; e < outs.size(); ++e) {
              if (outs[e] == second) {
                line = include_lines[static_cast<size_t>(head)][e];
                break;
              }
            }
            keyed.push_back(
                {Finding{files[static_cast<size_t>(head)].repo_path, line,
                         "include-cycle",
                         "include cycle: " + chain.str() +
                             "; baseline key '" + key + "'"},
                 key});
          }
        } else if (color[static_cast<size_t>(next)] == 0) {
          color[static_cast<size_t>(next)] = 1;
          path.push_back(next);
          stack.push_back({next, 0});
        }
      }
    }
  }

  // -- 6. Baseline subtraction + stale entries ------------------------------

  std::vector<bool> used(baseline_.size(), false);
  std::vector<Finding> findings;
  for (auto& [finding, key] : keyed) {
    bool suppressed = false;
    for (size_t b = 0; b < baseline_.size(); ++b) {
      if (baseline_[b].rule == finding.rule && baseline_[b].key == key &&
          !key.empty()) {
        used[b] = true;
        suppressed = true;
      }
    }
    if (!suppressed) findings.push_back(std::move(finding));
  }
  for (size_t b = 0; b < baseline_.size(); ++b) {
    if (used[b]) continue;
    const BaselineEntry& entry = baseline_[b];
    const std::string what =
        entry.key.empty()
            ? "malformed baseline line (want: rule-id key)"
            : "baseline entry '" + entry.rule + " " + entry.key +
                  "' matches no current finding; delete it (the exception "
                  "it excused is gone)";
    findings.push_back(
        Finding{baseline_path_.empty() ? "<baseline>" : baseline_path_,
                entry.line, "stale-baseline", what});
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

}  // namespace shadoop::analyze
