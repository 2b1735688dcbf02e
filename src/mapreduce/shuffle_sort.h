#ifndef SHADOOP_MAPREDUCE_SHUFFLE_SORT_H_
#define SHADOOP_MAPREDUCE_SHUFFLE_SORT_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace shadoop::mapreduce {

/// Reference to one shuffled pair: `data` points at the key bytes inside
/// the emitting map task's buffer, with the value bytes right after them,
/// then the attachment's one-byte length and bytes. The buffers stay alive
/// and unchanged for the whole job, so the shuffle moves 16-byte
/// references instead of copying key/value strings.
struct ShuffleRef {
  const char* data = nullptr;
  uint32_t key_len = 0;
  uint32_t value_len = 0;

  std::string_view key() const { return {data, key_len}; }
  std::string_view value() const { return {data + key_len, value_len}; }
  /// Valid only for references into a map task's buffer.
  std::string_view attachment() const {
    const char* length = data + key_len + value_len;
    return {length + 1, static_cast<unsigned char>(*length)};
  }
};

/// A reference with its sort key, computed once per pair: the first 16
/// key bytes and the first 8 value bytes as big-endian words, zero padded,
/// so unsigned word order is the bytes' order.
struct SortEntry {
  SortEntry() = default;
  explicit SortEntry(const ShuffleRef& r);

  ShuffleRef ref;
  uint64_t key_hi = 0;
  uint64_t key_lo = 0;
  uint64_t value_hi = 0;
};

/// Byte order by key, then by value: std::string_view's order, exactly.
/// Unequal prefix words decide it alone, since a zero pad sorts a proper
/// prefix first. The text is read only when the words tie and a key is
/// longer than 16 bytes, the key lengths differ, or the keys are equal.
bool SortEntryLess(const SortEntry& a, const SortEntry& b);

/// Sorts `run` into SortEntryLess order: by key, then value. A run of at
/// least kRadixMinRun pairs is radix sorted over the three words, skipping
/// every byte all pairs share, and then each run of tied words that the
/// words cannot order is finished with SortEntryLess; a shorter run is
/// sorted with SortEntryLess alone. The sort keys exist only during the
/// call, so a sorted run keeps 16 bytes per pair.
void SortRun(std::vector<ShuffleRef>* run);

/// Runs shorter than this skip the radix sort. Set by measurement: on
/// index-build, kNN-merge and word-count shaped runs the two sorts broke
/// even at 256-512 pairs, and from 1,024 pairs the radix sort took
/// 0.5-0.8 of std::sort's time.
inline constexpr size_t kRadixMinRun = 384;

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_SHUFFLE_SORT_H_
