#ifndef SHADOOP_TOOLS_LINT_SOURCE_SCAN_H_
#define SHADOOP_TOOLS_LINT_SOURCE_SCAN_H_

#include <set>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

/// The source scanner shared by the determinism lint (tools/lint) and the
/// cross-TU analyzer (tools/analyze), DESIGN.md §11.2 and §16.1.
///
/// It owns the contract both tools apply to a source line: what is
/// blanked, what counts as a whole token or a free call, how an escape is
/// spelled, and which files a path list matches. Where the tools differ on
/// purpose (escape markers, iterator members, sink and exemption lists),
/// the difference is an argument, never a branch on the caller.
namespace shadoop::lint {

/// Wall-clock reads: whole tokens, then free calls `name(`.
inline constexpr std::string_view kClockTokens[] = {
    "system_clock",  "steady_clock", "high_resolution_clock", "gettimeofday",
    "clock_gettime", "localtime",    "gmtime"};
inline constexpr std::string_view kClockCalls[] = {"time", "clock"};

/// Nondeterministic randomness: whole tokens, then free calls `name(`.
inline constexpr std::string_view kRandomTokens[] = {
    "random_device", "mt19937",      "mt19937_64", "default_random_engine",
    "minstd_rand",   "minstd_rand0", "ranlux24",   "ranlux48"};
inline constexpr std::string_view kRandomCalls[] = {"rand", "srand",
                                                    "drand48", "random"};

bool IsIdentChar(char c);

/// Forward slashes only, so fixture paths and real paths key alike.
std::string NormalizePath(std::string_view path);

/// Lines without their '\n'; a trailing newline adds no empty line.
std::vector<std::string> SplitLines(std::string_view contents);

/// `raw` with comment bodies and string/char-literal contents blanked to
/// spaces, so no rule fires on prose or literals. Block comments and raw
/// strings (`R"delim(...)delim"`, with any u8/u/U/L prefix) carry state
/// across lines; an ordinary string or char literal ends at the line.
std::vector<std::string> BlankCommentsAndLiterals(
    const std::vector<std::string>& raw);

/// Whole-token occurrences of `token` in `line`: a character before or
/// after that would extend the identifier rejects the match; a leading
/// "::" does not, so qualified names still count.
std::vector<size_t> TokenHits(const std::string& line, std::string_view token);

/// The first of `tokens` on `line` as a whole token, else the first of
/// `calls` as a free call `name(` (rendered "name()"), else "". A member
/// call (`sw.time()`, `p->clock()`) is some other API and does not count.
std::string FirstBannedName(const std::string& line,
                            std::span<const std::string_view> tokens,
                            std::span<const std::string_view> calls);

/// Ids named by `marker(a, b)` escapes on one raw line, for every marker
/// in `markers` (e.g. "lint:allow(").
std::set<std::string> AllowedIds(const std::string& raw_line,
                                 std::span<const std::string_view> markers);

/// True when `path` matches an entry of `entries`. An entry ending in '/'
/// is a directory and matches anywhere in the path ("bench/"); any other
/// entry matches as a path suffix ("common/stopwatch.h", "_main.cc").
bool PathMatches(std::string_view path,
                 const std::vector<std::string>& entries);

/// Names declared with an unordered container type in blanked `code` —
/// members, locals and parameters alike. Template arguments may span
/// lines; the scan runs over the joined text.
std::vector<std::string> UnorderedNames(const std::vector<std::string>& code);

/// True when blanked `line` walks one of `names` in hash order: a
/// range-for over it, or a `name.member(` call for one of `members`
/// (e.g. "begin", "cbegin").
bool IteratesUnordered(const std::string& line,
                       const std::vector<std::string>& names,
                       std::span<const std::string_view> members);

/// Fills `paths` with every .h/.hpp/.cc/.cpp file under `root`
/// (recursively, in sorted order, so output is deterministic). Returns the
/// error that stopped the walk, if any.
std::error_code ListSourceFiles(const std::string& root,
                                std::vector<std::string>* paths);

/// Reads the whole file at `path` into `contents`; false, leaving
/// `contents` untouched, when it cannot be opened.
bool ReadFile(const std::string& path, std::string* contents);

}  // namespace shadoop::lint

#endif  // SHADOOP_TOOLS_LINT_SOURCE_SCAN_H_
