#include "mapreduce/shuffle_sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

namespace shadoop::mapreduce {
namespace {

/// Up to 8 bytes of `text` from `pos` as a big-endian word, padded with
/// zero bytes, so unsigned word order is the bytes' order.
uint64_t PrefixWord(std::string_view text, size_t pos) {
  if (pos >= text.size()) return 0;
  const size_t n = text.size() - pos;
  if (n < 8) {
    uint64_t word = 0;
    for (size_t i = 0; i < n; ++i) {
      const unsigned char byte = static_cast<unsigned char>(text[pos + i]);
      word |= uint64_t{byte} << (56 - 8 * i);
    }
    return word;
  }
  uint64_t word = 0;
  std::memcpy(&word, text.data() + pos, 8);
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// The entry's words from least to most significant.
constexpr uint64_t SortEntry::*kWords[3] = {
    &SortEntry::value_hi, &SortEntry::key_lo, &SortEntry::key_hi};

/// Stable LSD radix sort of `entries` by (key_hi, key_lo, value_hi), one
/// byte per pass. A byte that every entry shares cannot reorder anything,
/// so the OR and AND of each word over all entries pick the passes.
void RadixSortByWords(std::vector<SortEntry>* entries) {
  uint64_t any[3] = {0, 0, 0};
  uint64_t all[3] = {~0ULL, ~0ULL, ~0ULL};
  for (const SortEntry& e : *entries) {
    for (int w = 0; w < 3; ++w) {
      any[w] |= e.*kWords[w];
      all[w] &= e.*kWords[w];
    }
  }
  struct Digit {
    uint64_t SortEntry::*word;
    int shift;
  };
  std::array<Digit, 24> digits{};
  size_t num_digits = 0;
  for (int w = 0; w < 3; ++w) {
    for (int shift = 0; shift < 64; shift += 8) {
      if (((any[w] ^ all[w]) >> shift) & 0xff) {
        digits[num_digits++] = {kWords[w], shift};
      }
    }
  }
  if (num_digits == 0) return;

  // Every varying digit's histogram in one pass, then one scatter each.
  std::vector<std::array<size_t, 256>> counts(num_digits);
  for (auto& c : counts) c.fill(0);
  for (const SortEntry& e : *entries) {
    for (size_t d = 0; d < num_digits; ++d) {
      ++counts[d][(e.*digits[d].word >> digits[d].shift) & 0xff];
    }
  }
  const size_t n = entries->size();
  std::vector<SortEntry> spare(n);
  SortEntry* from = entries->data();
  SortEntry* to = spare.data();
  for (size_t d = 0; d < num_digits; ++d) {
    size_t* next = counts[d].data();
    size_t offset = 0;
    for (size_t b = 0; b < 256; ++b) offset += std::exchange(next[b], offset);
    const Digit digit = digits[d];
    for (size_t i = 0; i < n; ++i) {
      to[next[(from[i].*digit.word >> digit.shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != entries->data()) entries->swap(spare);
}

/// Finishes the word order into SortEntryLess order. Pairs that the words
/// order are already in place; only runs of equal words can be out of
/// order. In a run of equal key words, keys of unequal lengths or longer
/// than 16 bytes may still differ, so the whole run is sorted; otherwise
/// the keys are equal and each run of equal value words is sorted.
void SortTies(std::vector<SortEntry>* entries) {
  const auto begin = entries->begin();
  const size_t n = entries->size();
  for (size_t i = 0, j = 0; i < n; i = j) {
    const SortEntry& first = (*entries)[i];
    bool whole = first.ref.key_len > 16;
    for (j = i + 1; j < n && (*entries)[j].key_hi == first.key_hi &&
                    (*entries)[j].key_lo == first.key_lo;
         ++j) {
      whole = whole || (*entries)[j].ref.key_len != first.ref.key_len;
    }
    if (j - i < 2) continue;
    if (whole) {
      std::sort(begin + i, begin + j, SortEntryLess);
      continue;
    }
    for (size_t a = i, b = i; a < j; a = b) {
      for (b = a + 1; b < j && (*entries)[b].value_hi == (*entries)[a].value_hi;
           ++b) {
      }
      if (b - a > 1) std::sort(begin + a, begin + b, SortEntryLess);
    }
  }
}

}  // namespace

SortEntry::SortEntry(const ShuffleRef& r)
    : ref(r),
      key_hi(PrefixWord(r.key(), 0)),
      key_lo(PrefixWord(r.key(), 8)),
      value_hi(PrefixWord(r.value(), 0)) {}

bool SortEntryLess(const SortEntry& a, const SortEntry& b) {
  if (a.key_hi != b.key_hi) return a.key_hi < b.key_hi;
  if (a.key_lo != b.key_lo) return a.key_lo < b.key_lo;
  if (a.ref.key_len != b.ref.key_len || a.ref.key_len > 16) {
    const int order = a.ref.key().compare(b.ref.key());
    if (order != 0) return order < 0;
  }
  if (a.value_hi != b.value_hi) return a.value_hi < b.value_hi;
  return a.ref.value() < b.ref.value();
}

void SortRun(std::vector<ShuffleRef>* run) {
  std::vector<SortEntry> entries(run->begin(), run->end());
  if (entries.size() < kRadixMinRun) {
    std::sort(entries.begin(), entries.end(), SortEntryLess);
  } else {
    RadixSortByWords(&entries);
    SortTies(&entries);
  }
  for (size_t i = 0; i < entries.size(); ++i) (*run)[i] = entries[i].ref;
}

}  // namespace shadoop::mapreduce
