#ifndef SHADOOP_HDFS_BLOCK_ARENA_H_
#define SHADOOP_HDFS_BLOCK_ARENA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace shadoop::hdfs {

/// True for a metadata line: one that begins with '#', like the local
/// index a spatial partition can persist as its block's first line. The
/// one definition of the convention (index::IsMetadataRecord reads it).
inline bool IsMetadataLine(std::string_view line) {
  return !line.empty() && line.front() == '#';
}

/// The record boundaries of one block payload: one 32-bit end offset per
/// record, and the positions of its metadata lines. Records are the
/// payload's lines; an empty line is a record, and so is an unterminated
/// final line. The index holds no view into the payload, so caching it
/// never pins block bytes — the job runner keeps one per block in its
/// artifact cache and reads it back against the payload it was built
/// from.
class RecordIndex {
 public:
  /// InvalidArgument when `payload` is larger than 32-bit offsets
  /// address (4 GiB), which Build() requires it not to be.
  static Status CheckIndexable(std::string_view payload);

  /// Scans an indexable `payload` once for line ends and metadata lines.
  static RecordIndex Build(std::string_view payload);

  size_t size() const { return ends_.size(); }

  /// Bytes the records span with one newline each, Σ(len + 1): the
  /// payload size, plus one when the final line is unterminated.
  uint64_t bytes() const { return bytes_; }

  /// Positions of the metadata lines (IsMetadataLine), ascending.
  const std::vector<uint32_t>& metadata() const { return metadata_; }

  /// Record `i` of `payload`, which must be the bytes this index was
  /// built from; so for every payload argument below.
  std::string_view View(std::string_view payload, size_t i) const {
    const size_t start = i == 0 ? 0 : size_t{ends_[i - 1]} + 1;
    return payload.substr(start, ends_[i] - start);
  }

  /// Appends the views of records [first, last) to `out`. Nothing is
  /// scanned or copied.
  void AppendViews(std::string_view payload, size_t first, size_t last,
                   std::vector<std::string_view>* out) const;

 private:
  std::vector<uint32_t> ends_;  // Offset of each record's '\n' or the end.
  std::vector<uint32_t> metadata_;
  uint64_t bytes_ = 0;
};

/// Process-wide count of RecordIndex::Build calls. Pure observability,
/// like index::GeometryParseCount: tests snapshot it around a job to prove
/// that a warm read scans no block for line ends.
uint64_t RecordIndexBuildCount();

/// The records of one block: a payload cut at its record index. A view —
/// the payload and the index must outlive it. The map runner hands one to
/// Mapper::MapBlock per block, with the payload pinned by the task
/// attempt's BlockArena.
struct BlockRecords {
  std::string_view payload;
  const RecordIndex* index = nullptr;

  size_t size() const { return index->size(); }
  std::string_view operator[](size_t i) const {
    return index->View(payload, i);
  }
  const std::vector<uint32_t>& metadata() const { return index->metadata(); }
  void AppendViews(size_t first, size_t last,
                   std::vector<std::string_view>* out) const {
    index->AppendViews(payload, first, last, out);
  }
};

/// Owns the bytes behind `std::string_view` records so the data path can
/// stay zero-copy: a block's payload is pinned once (shared with the
/// datanode store, never duplicated) and every record of the block is a
/// slice of it.
///
/// Lifetime contract: every view returned by AddBlock() stays valid until
/// the arena is destroyed, regardless of how much is added afterwards.
class BlockArena {
 public:
  BlockArena() = default;
  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;
  BlockArena(BlockArena&&) = default;
  BlockArena& operator=(BlockArena&&) = default;

  /// Pins a block payload and returns its records, cut where `index`
  /// (built from this payload) says. The payload is shared with the file
  /// system's block store, and no byte of it is scanned or copied.
  BlockRecords AddBlock(std::shared_ptr<const std::string> payload,
                        const RecordIndex& index);

  size_t pinned_blocks() const { return pinned_.size(); }

 private:
  std::vector<std::shared_ptr<const std::string>> pinned_;
};

}  // namespace shadoop::hdfs

#endif  // SHADOOP_HDFS_BLOCK_ARENA_H_
