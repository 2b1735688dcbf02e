// CLI over the cross-TU analyzer (DESIGN.md §16).
//
//   spatial_analyze [--baseline FILE] [--report FILE] [path...]
//       index trees/files and run the determinism-taint + layering
//       analyses (default paths: src tools bench)
//   spatial_analyze --rules    list the rule registry
//
// Exit codes: 0 clean, 1 findings, 2 usage error. Findings print as
// "file:line: rule-id: message" — the same contract as spatial_lint —
// so CI annotations and editors can jump to them. --report duplicates
// the findings (plus their call chains) into a file that the CI job
// uploads as an artifact on failure.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "lint/lint_engine.h"
#include "lint/source_scan.h"

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string baseline_path;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rules") {
      shadoop::analyze::Analyzer analyzer;
      for (const shadoop::lint::RuleInfo& rule : analyzer.rules()) {
        std::cout << rule.id << ": " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: spatial_analyze [--rules] [--baseline FILE] "
             "[--report FILE] [path...]\n"
             "cross-TU determinism-taint and layering analysis over "
             ".h/.hpp/.cc/.cpp trees (default paths: src tools bench)\n";
      return 0;
    }
    if (arg == "--baseline" || arg == "--report") {
      if (i + 1 >= argc) {
        std::cerr << "spatial_analyze: " << arg << " needs a file argument\n";
        return 2;
      }
      (arg == "--baseline" ? baseline_path : report_path) = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "spatial_analyze: unknown flag '" << arg << "'\n";
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) paths = {"src", "tools", "bench"};

  shadoop::analyze::Analyzer analyzer;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      if (!analyzer.AddTree(path)) {
        std::cerr << "spatial_analyze: cannot walk tree: " << path << "\n";
        return 2;
      }
    } else if (std::filesystem::is_regular_file(path, ec)) {
      std::string contents;
      shadoop::lint::ReadFile(path, &contents);
      analyzer.AddFile(path, contents);
    } else {
      std::cerr << "spatial_analyze: no such file or directory: " << path
                << "\n";
      return 2;
    }
  }
  if (!baseline_path.empty()) {
    std::string contents;
    if (!shadoop::lint::ReadFile(baseline_path, &contents)) {
      std::cerr << "spatial_analyze: cannot read baseline: " << baseline_path
                << "\n";
      return 2;
    }
    analyzer.LoadBaseline(baseline_path, contents);
  }

  const std::vector<shadoop::lint::Finding> findings = analyzer.Run();
  std::ostringstream report;
  for (const shadoop::lint::Finding& finding : findings) {
    const std::string line = shadoop::lint::FormatFinding(finding);
    std::cout << line << "\n";
    report << line << "\n";
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
    out << (findings.empty() ? std::string("spatial_analyze: clean\n")
                             : report.str());
  }
  if (findings.empty()) {
    std::cout << "spatial_analyze: clean\n";
    return 0;
  }
  std::cerr << "spatial_analyze: " << findings.size() << " finding(s)\n";
  return 1;
}
