#ifndef SHADOOP_CORE_SPATIAL_RECORD_READER_H_
#define SHADOOP_CORE_SPATIAL_RECORD_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "hdfs/block_arena.h"
#include "index/record_shape.h"
#include "index/packed_rtree.h"
#include "mapreduce/artifact_cache.h"
#include "mapreduce/job.h"

namespace shadoop::core {

/// The SpatialRecordReader of the MapReduce layer: the one per-partition
/// record view a map function gets. Map functions feed it the raw records
/// of their partition; it exposes typed geometry views and the
/// partition's local index. Malformed records are counted, not fatal
/// (HDFS text files routinely contain stray lines).
///
/// Storage is zero-copy: records are `std::string_view`s borrowed from
/// the caller (AddBlock and AddBorrowed, used on the runner's pinned block
/// bytes). Geometry is parsed at most once per record: the first typed
/// accessor builds a contiguous column (envelopes, point coordinates, or
/// polygon rings) that every later access — including the R-tree bulk
/// load — reads directly.
/// A partition persisted with a `#lidx` header feeds the envelope column
/// without parsing any geometry at all.
///
/// With AttachCache() the decoded header, the columns and the packed
/// local index are shared across map tasks through the runner's
/// ArtifactCache: the reader of a later task over the same immutable
/// block adopts the already-built artifact instead of re-parsing, and
/// the reader of a concurrent task waits for the one being built. Hits
/// change wall-clock time only — bad-record counts, simulated charges and
/// every value are identical by construction (the artifact was built from
/// the same bytes by the same code).
class SpatialRecordReader {
 public:
  explicit SpatialRecordReader(index::ShapeType shape) : shape_(shape) {}

  index::ShapeType shape() const { return shape_; }

  /// Enables artifact sharing for a reader that will hold exactly the
  /// records of the block with this immutable id. Must be called before
  /// any record is fed and at most once; later or repeated attaches
  /// disable caching for this reader (its content is no longer known to
  /// be exactly one block). Null cache / zero id are ignored.
  void AttachCache(mapreduce::ArtifactCache* cache, uint64_t block_id);

  /// Feeds one raw record without copying it: the caller guarantees
  /// `record`'s bytes outlive this reader's use (the map runner pins block
  /// payloads for the whole task attempt, so partition mappers borrow).
  /// '#'-prefixed metadata records (the persisted local-index header) are
  /// consumed here and never appear in records().
  void AddBorrowed(std::string_view record);

  /// Borrows a whole block's records at once (the partition mappers'
  /// Mapper::MapBlock): leaves the reader exactly as AddBorrowed() on
  /// each record in order would. Metadata records, wherever they sit, are
  /// consumed at the positions the block's record index lists, so no
  /// record byte is read; the others are appended in runs, and the
  /// columns are invalidated once.
  void AddBlock(const hdfs::BlockRecords& block);

  /// True when the partition carried a persisted local index, so
  /// Envelopes() needs no geometry parsing. Callers use this to charge the
  /// cost model less CPU.
  bool has_local_index() const {
    return preparsed_envelopes_ != nullptr &&
           preparsed_envelopes_->size() == records_.size() &&
           !records_.empty();
  }

  size_t NumRecords() const { return records_.size(); }
  const std::vector<std::string_view>& records() const { return records_; }
  size_t bad_records() const { return bad_records_; }

  /// Parses all records as points (shape must be kPoint).
  std::vector<Point> Points();

  /// Envelopes of all records, paired with their indices in records().
  std::vector<index::PackedRTree::Entry> Envelopes();

  /// Polygons of all well-formed records (shape must be kPolygon), copied
  /// out of the polygon column.
  std::vector<Polygon> Polygons();

  // ------------------------------------------------------------------
  // Parse-once column access. Unlike the vector accessors above, these
  // do not re-count malformed records into bad_records() — they are pure
  // lookups into the memoized columns (nullptr = record i is malformed).

  /// Envelope of record i, or nullptr when it failed to parse.
  const Envelope* EnvelopeAt(size_t i);

  /// Point geometry of record i (shape must be kPoint).
  const Point* PointAt(size_t i);

  /// Polygon ring of record i (shape must be kPolygon): a view into the
  /// polygon column, valid until records are next fed or cleared. Empty
  /// when the record is malformed.
  RingView PolygonAt(size_t i);

  // ------------------------------------------------------------------
  // Local index.

  /// The memoized local index. The first call bulk-loads it — or adopts
  /// a cached build of the same block — counts malformed records like
  /// Envelopes() does, and charges `ctx` the build cost: a persisted
  /// local index loads linearly, an ad-hoc bulk load pays O(n log n).
  /// Later calls are free. The simulated charge is identical on cache hit
  /// and miss.
  const index::PackedRTree& LocalIndex(mapreduce::MapContext& ctx);

  /// Range search through the memoized local index, charging the cost
  /// model per visited node.
  std::vector<uint32_t> Search(const Envelope& query,
                               mapreduce::MapContext& ctx);

 private:
  // A memoized geometry column (SoA): value + validity per record, plus
  // the parse-failure count each vector accessor call adds to
  // bad_records(). Immutable once built, so shareable across tasks.
  template <typename T>
  struct Column {
    std::vector<T> values;
    std::vector<char> valid;
    size_t bad = 0;
  };

  // The polygon column: every ring's vertices in one buffer, record i's
  // at [starts[i], starts[i + 1]) (empty when it is malformed), and the
  // rings' bounds as an envelope column, which is also the envelope
  // column of a reader without a usable #lidx header.
  struct PolygonColumn {
    std::vector<Point> vertices;
    std::vector<size_t> starts;
    std::shared_ptr<const Column<Envelope>> bounds;
  };

  void AddRecord(std::string_view stable_record);
  void ConsumeHeader(std::string_view record);
  void InvalidateColumns();
  void EnsurePointColumn();
  void EnsureEnvelopeColumn();
  void EnsurePolygonColumn();
  std::vector<index::PackedRTree::Entry> EnvelopeEntries() const;
  void CheckInvariants() const;

  /// The artifact of the given kind for this reader's block: the cached
  /// one when present, else `build()` (null = nothing to share), inserted
  /// so later readers of the block adopt it. Readers of the block that
  /// ask while it is being built wait for that build. Without a cache
  /// attachment it simply builds.
  template <typename T, typename Build>
  std::shared_ptr<const T> Shared(const char* kind, Build build);

  index::ShapeType shape_;
  std::vector<std::string_view> records_;
  // From the #lidx header; shared so a cached decode is adopted, not
  // copied. Null until a header is decoded.
  std::shared_ptr<const std::vector<Envelope>> preparsed_envelopes_;
  size_t headers_ = 0;  // Metadata records consumed so far.
  size_t bad_records_ = 0;

  mapreduce::ArtifactCache* cache_ = nullptr;
  uint64_t cache_block_id_ = 0;

  // Null = not built yet.
  std::shared_ptr<const Column<Point>> point_column_;
  std::shared_ptr<const Column<Envelope>> envelope_column_;
  std::shared_ptr<const PolygonColumn> polygon_column_;
  std::shared_ptr<const index::PackedRTree> local_index_;
};

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_SPATIAL_RECORD_READER_H_
