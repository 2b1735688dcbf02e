#include "lint/source_scan.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace shadoop::lint {
namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// When the '"' at `quote` opens a raw string literal — `R"delim(` with an
/// optional u8/u/U/L prefix starting a token — the sequence that closes
/// it, `)delim"`; otherwise "".
std::string RawStringCloser(const std::string& line, size_t quote) {
  if (quote == 0 || line[quote - 1] != 'R') return "";
  size_t start = quote - 1;
  if (start >= 2 && line.compare(start - 2, 2, "u8") == 0) {
    start -= 2;
  } else if (start >= 1 && (line[start - 1] == 'u' || line[start - 1] == 'U' ||
                            line[start - 1] == 'L')) {
    start -= 1;
  }
  if (start > 0 && IsIdentChar(line[start - 1])) return "";
  const size_t open = line.find('(', quote + 1);
  constexpr size_t kMaxDelimiter = 16;
  if (open == std::string::npos || open - quote - 1 > kMaxDelimiter) return "";
  const std::string delimiter = line.substr(quote + 1, open - quote - 1);
  if (delimiter.find_first_of(" \t\\)\"") != std::string::npos) return "";
  return ")" + delimiter + "\"";
}

/// `name(` not preceded by `.` or `->`.
bool HasFreeCall(const std::string& line, std::string_view name) {
  for (size_t pos : TokenHits(line, name)) {
    const bool member =
        pos > 0 && (line[pos - 1] == '.' ||
                    (line[pos - 1] == '>' && pos > 1 && line[pos - 2] == '-'));
    if (member) continue;
    size_t i = pos + name.size();
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') return true;
  }
  return false;
}

}  // namespace

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string NormalizePath(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

std::vector<std::string> SplitLines(std::string_view contents) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= contents.size()) {
    size_t end = contents.find('\n', start);
    if (end == std::string_view::npos) {
      if (start < contents.size()) lines.emplace_back(contents.substr(start));
      break;
    }
    lines.emplace_back(contents.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> BlankCommentsAndLiterals(
    const std::vector<std::string>& raw) {
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_closer;  // `)delim"` while in kRawString.
  std::vector<std::string> out;
  out.reserve(raw.size());
  for (const std::string& line : raw) {
    std::string code = line;
    for (size_t i = 0; i < code.size(); ++i) {
      switch (state) {
        case State::kCode:
          if (code[i] == '/' && i + 1 < code.size() && code[i + 1] == '/') {
            for (size_t j = i; j < code.size(); ++j) code[j] = ' ';
            i = code.size();
          } else if (code[i] == '/' && i + 1 < code.size() &&
                     code[i + 1] == '*') {
            code[i] = code[i + 1] = ' ';
            ++i;
            state = State::kBlockComment;
          } else if (code[i] == '"') {
            raw_closer = RawStringCloser(code, i);
            code[i] = ' ';
            state = raw_closer.empty() ? State::kString : State::kRawString;
          } else if (code[i] == '\'') {
            code[i] = ' ';
            state = State::kChar;
          }
          break;
        case State::kBlockComment:
          if (code[i] == '*' && i + 1 < code.size() && code[i + 1] == '/') {
            code[i] = code[i + 1] = ' ';
            ++i;
            state = State::kCode;
          } else {
            code[i] = ' ';
          }
          break;
        case State::kRawString:
          // No escapes inside a raw string: only `)delim"` ends it.
          if (code.compare(i, raw_closer.size(), raw_closer) == 0) {
            std::fill_n(code.begin() + static_cast<long>(i), raw_closer.size(),
                        ' ');
            i += raw_closer.size() - 1;
            state = State::kCode;
          } else {
            code[i] = ' ';
          }
          break;
        case State::kString:
        case State::kChar: {
          const char quote = state == State::kString ? '"' : '\'';
          if (code[i] == '\\' && i + 1 < code.size()) {
            code[i] = code[i + 1] = ' ';
            ++i;
          } else {
            const bool closes = code[i] == quote;
            code[i] = ' ';
            if (closes) state = State::kCode;
          }
          break;
        }
      }
    }
    // An ordinary string or char literal never spans a line break in this
    // codebase; reset so a stray quote cannot blank the rest of the file.
    if (state == State::kString || state == State::kChar) state = State::kCode;
    out.push_back(std::move(code));
  }
  return out;
}

std::vector<size_t> TokenHits(const std::string& line,
                              std::string_view token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

std::string FirstBannedName(const std::string& line,
                            std::span<const std::string_view> tokens,
                            std::span<const std::string_view> calls) {
  for (std::string_view token : tokens) {
    if (!TokenHits(line, token).empty()) return std::string(token);
  }
  for (std::string_view call : calls) {
    if (HasFreeCall(line, call)) return std::string(call) + "()";
  }
  return "";
}

std::set<std::string> AllowedIds(const std::string& raw_line,
                                 std::span<const std::string_view> markers) {
  std::set<std::string> allowed;
  for (std::string_view marker : markers) {
    size_t pos = 0;
    while ((pos = raw_line.find(marker, pos)) != std::string::npos) {
      size_t i = pos + marker.size();
      std::string id;
      for (; i < raw_line.size() && raw_line[i] != ')'; ++i) {
        const char c = raw_line[i];
        if (c == ',') {
          if (!id.empty()) allowed.insert(id);
          id.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          id.push_back(c);
        }
      }
      if (!id.empty()) allowed.insert(id);
      pos = i;
    }
  }
  return allowed;
}

bool PathMatches(std::string_view path,
                 const std::vector<std::string>& entries) {
  for (const std::string& entry : entries) {
    const bool match = !entry.empty() && entry.back() == '/'
                           ? path.find(entry) != std::string_view::npos
                           : EndsWith(path, entry);
    if (match) return true;
  }
  return false;
}

std::vector<std::string> UnorderedNames(const std::vector<std::string>& code) {
  std::string text;
  for (const std::string& line : code) {
    text += line;
    text += '\n';
  }
  std::vector<std::string> names;
  for (std::string_view token : {"unordered_map", "unordered_set",
                                 "unordered_multimap", "unordered_multiset"}) {
    size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
      const size_t start = pos;
      pos += token.size();
      if (start > 0 && IsIdentChar(text[start - 1])) continue;
      size_t i = pos;
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      if (i >= text.size() || text[i] != '<') continue;
      int depth = 0;
      for (; i < text.size(); ++i) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      // Skip refs/pointers/whitespace between the type and the name.
      while (i < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[i])) ||
              text[i] == '&' || text[i] == '*')) {
        ++i;
      }
      std::string name;
      while (i < text.size() && IsIdentChar(text[i])) name.push_back(text[i++]);
      if (!name.empty()) names.push_back(name);
    }
  }
  return names;
}

bool IteratesUnordered(const std::string& line,
                       const std::vector<std::string>& names,
                       std::span<const std::string_view> members) {
  for (const std::string& name : names) {
    for (size_t pos : TokenHits(line, name)) {
      // name.member(
      size_t j = pos + name.size();
      while (j < line.size() && line[j] == ' ') ++j;
      if (j < line.size() && line[j] == '.') {
        ++j;
        while (j < line.size() && line[j] == ' ') ++j;
        for (std::string_view member : members) {
          if (line.compare(j, member.size(), member) == 0) {
            size_t k = j + member.size();
            while (k < line.size() && line[k] == ' ') ++k;
            if (k < line.size() && line[k] == '(') return true;
            break;
          }
        }
      }
      // Range-for: `for (... : name)` — ':' before, ')' after.
      size_t before = pos;
      while (before > 0 && line[before - 1] == ' ') --before;
      const bool colon_before = before > 0 && line[before - 1] == ':' &&
                                (before < 2 || line[before - 2] != ':');
      size_t after = pos + name.size();
      while (after < line.size() && line[after] == ' ') ++after;
      const bool paren_after = after < line.size() && line[after] == ')';
      if (colon_before && paren_after && !TokenHits(line, "for").empty()) {
        return true;
      }
    }
  }
  return false;
}

std::error_code ListSourceFiles(const std::string& root,
                                std::vector<std::string>* paths) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
      paths->push_back(it->path().string());
    }
  }
  std::sort(paths->begin(), paths->end());
  return ec;
}

bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *contents = buffer.str();
  return true;
}

}  // namespace shadoop::lint
