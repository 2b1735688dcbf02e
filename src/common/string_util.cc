#include "common/string_util.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>

namespace shadoop {

std::vector<std::string_view> SplitString(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsAsciiSpace(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && !IsAsciiSpace(text[i])) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsAsciiSpace(text[begin])) ++begin;
  size_t end = text.size();
  while (end > begin && IsAsciiSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return Status::ParseError("empty numeric field");
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("invalid double: '" + std::string(text) + "'");
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return Status::ParseError("empty numeric field");
  int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("invalid integer: '" + std::string(text) + "'");
  }
  return value;
}

namespace {

/// The shortest precision from 15 to 17 whose text round-trips exactly,
/// printed in general format: what printf's "%.*g" prints, without the
/// locale and format-string machinery.
std::string FormatDoubleByRoundTrip(double value) {
  char buf[40];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, precision)
              .ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed == value) break;
  }
  return std::string(buf, end);
}

}  // namespace

std::string FormatDouble(double value) {
  // The round trip's answer for a normal double, from one shortest
  // conversion. Let k be the shortest round-trip text's digit count and
  // P = max(15, k). That text is the correctly rounded P-digit decimal:
  // for k <= 15 its error is below half a 15-digit step, and for k >= 16
  // the nearest P-digit decimal lies inside the rounding interval too.
  // So the loop stops at P, printing those digits as "%.{P}g" lays them
  // out. The exception is k = 16 at an exact power of two, whose rounding
  // interval is narrower below than above: there the nearest 16-digit
  // decimal may not round-trip, so the loop decides. Zeros, subnormals,
  // infinities and NaNs take the loop as well.
  if (!std::isnormal(value)) return FormatDoubleByRoundTrip(value);
  // "[-]d[.ddd]e(+|-)dd[d]": at most 17 digits and a 3-digit exponent.
  char sci[32] = {};
  char* const sci_end =
      std::to_chars(sci, sci + sizeof(sci), value,
                    std::chars_format::scientific)
          .ptr;
  const char* p = sci + (value < 0 ? 1 : 0);
  char digits[17] = {};
  int k = 0;
  for (; *p != 'e'; ++p) {
    if (*p != '.') digits[k++] = *p;
  }
  int exponent = 0;
  std::from_chars(p + (p[1] == '+' ? 2 : 1), sci_end, exponent);
  constexpr uint64_t kSignificand = (uint64_t{1} << 52) - 1;
  if (k == 16 && (std::bit_cast<uint64_t>(value) & kSignificand) == 0) {
    return FormatDoubleByRoundTrip(value);
  }
  // %g prints scientific notation when the exponent is below -4 or at
  // least the precision, with trailing zeros dropped, as to_chars did.
  if (exponent < -4 || exponent >= std::max(15, k)) {
    return std::string(sci, sci_end);
  }
  std::string out;
  out.reserve(static_cast<size_t>(k) + 24);
  if (value < 0) out.push_back('-');
  if (exponent < 0) {
    out.append("0.");
    out.append(static_cast<size_t>(-exponent - 1), '0');
    out.append(digits, static_cast<size_t>(k));
  } else if (k <= exponent + 1) {
    out.append(digits, static_cast<size_t>(k));
    out.append(static_cast<size_t>(exponent + 1 - k), '0');
  } else {
    out.append(digits, static_cast<size_t>(exponent + 1));
    out.push_back('.');
    out.append(digits + exponent + 1, static_cast<size_t>(k - exponent - 1));
  }
  return out;
}

bool StartsWithIgnoreCase(std::string_view text, std::string_view prefix) {
  if (text.size() < prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(text[i])) !=
        std::toupper(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

std::string AsciiToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = std::toupper(static_cast<unsigned char>(c));
  return out;
}

}  // namespace shadoop
