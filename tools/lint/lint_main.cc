// CLI over the determinism lint engine (DESIGN.md §11).
//
//   spatial_lint [path...]     lint trees/files (default: src tools bench)
//   spatial_lint --rules       list the rule registry
//
// Exit codes: 0 clean, 1 findings, 2 usage error. Findings print as
// "file:line: rule-id: message", one per line, so CI annotations and
// editors can jump to them.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint_engine.h"
#include "lint/source_scan.h"

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rules") {
      shadoop::lint::Linter linter;
      for (const shadoop::lint::RuleInfo& rule : linter.rules()) {
        std::cout << rule.id << ": " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: spatial_lint [--rules] [path...]\n"
                   "lints .h/.hpp/.cc/.cpp files for determinism and "
                   "lock-discipline violations (default paths: src tools "
                   "bench)\n";
      return 0;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "spatial_lint: unknown flag '" << arg << "'\n";
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) paths = {"src", "tools", "bench"};

  shadoop::lint::Linter linter;
  std::vector<shadoop::lint::Finding> findings;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<shadoop::lint::Finding> tree = linter.LintTree(path);
      findings.insert(findings.end(), tree.begin(), tree.end());
    } else if (std::filesystem::is_regular_file(path, ec)) {
      std::string contents;
      shadoop::lint::ReadFile(path, &contents);
      std::vector<shadoop::lint::Finding> file =
          linter.LintFile(path, contents);
      findings.insert(findings.end(), file.begin(), file.end());
    } else {
      std::cerr << "spatial_lint: no such file or directory: " << path
                << "\n";
      return 2;
    }
  }

  for (const shadoop::lint::Finding& finding : findings) {
    std::cout << shadoop::lint::FormatFinding(finding) << "\n";
  }
  if (findings.empty()) {
    std::cout << "spatial_lint: clean\n";
    return 0;
  }
  std::cerr << "spatial_lint: " << findings.size() << " finding(s)\n";
  return 1;
}
