#include "core/spatial_record_reader.h"

#include <cmath>

#include "common/logging.h"

namespace shadoop::core {
namespace {

/// Builds a column over `n` records: `fill(i, &value)` stores record i's
/// value and returns false when the record is malformed.
template <typename Column, typename Fill>
std::shared_ptr<const Column> FillColumn(size_t n, Fill fill) {
  auto column = std::make_shared<Column>();
  column->values.resize(n);
  column->valid.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (fill(i, &column->values[i])) {
      column->valid[i] = 1;
    } else {
      ++column->bad;
    }
  }
  return column;
}

/// `fill` adapter for the record parsers.
template <typename T>
bool Take(Result<T> parsed, T* out) {
  if (!parsed.ok()) return false;
  *out = std::move(parsed).value();
  return true;
}

}  // namespace

void SpatialRecordReader::AttachCache(mapreduce::ArtifactCache* cache,
                                      uint64_t block_id) {
  if (cache == nullptr || block_id == 0) return;
  if (!records_.empty() || headers_ > 0 || cache_ != nullptr) {
    // Attached too late or twice: this reader's content is not (known to
    // be) exactly one block, so per-block artifacts would be wrong.
    cache_ = nullptr;
    cache_block_id_ = 0;
    return;
  }
  cache_ = cache;
  cache_block_id_ = block_id;
}

template <typename T, typename Build>
std::shared_ptr<const T> SpatialRecordReader::Shared(const char* kind,
                                                     Build build) {
  if (cache_ == nullptr) return build();
  // Keys carry the shape because the envelope column's derivation
  // depends on it.
  const std::string key = std::string(kind) + ':' +
                          std::to_string(static_cast<int>(shape_)) + ':' +
                          std::to_string(cache_block_id_);
  // Single-flight: tasks that read this block at the same time wait for
  // one build. Builds here never submit pool work, and only the envelope
  // column's build waits on another (its point or polygon column), so
  // waits cannot cycle (FifoCache::GetOrBuild).
  return std::static_pointer_cast<const T>(cache_->GetOrBuild(key, build));
}

void SpatialRecordReader::ConsumeHeader(std::string_view record) {
  // Keyed by the header's ordinal among the block's metadata lines: each
  // header that decodes replaces the previous one, cached or not.
  const std::string kind = "lidx" + std::to_string(headers_++);
  auto envelopes = Shared<std::vector<Envelope>>(kind.c_str(), [record] {
    auto decoded = index::DecodeLocalIndexHeader(record);
    return decoded.ok() ? std::make_shared<const std::vector<Envelope>>(
                              std::move(decoded).value())
                        : nullptr;
  });
  if (envelopes == nullptr) return;
  preparsed_envelopes_ = std::move(envelopes);
  InvalidateColumns();
}

void SpatialRecordReader::AddBorrowed(std::string_view record) {
  if (index::IsMetadataRecord(record)) {
    ConsumeHeader(record);
    return;
  }
  AddRecord(record);
}

void SpatialRecordReader::AddBlock(const hdfs::BlockRecords& block) {
  const size_t before = records_.size();
  // Sized exactly for a reader's first block, the common case. Later
  // blocks (a pair split's B side) grow the vector geometrically, since
  // an exact reserve per block would copy every earlier view each time.
  if (before == 0) records_.reserve(block.size() - block.metadata().size());
  size_t run = 0;
  for (const uint32_t header : block.metadata()) {
    block.AppendViews(run, header, &records_);
    ConsumeHeader(block[header]);
    run = size_t{header} + 1;
  }
  block.AppendViews(run, block.size(), &records_);
  // ConsumeHeader invalidates on its own when it adopts a header.
  if (records_.size() != before) InvalidateColumns();
}

void SpatialRecordReader::AddRecord(std::string_view stable_record) {
  records_.push_back(stable_record);
  InvalidateColumns();
}

void SpatialRecordReader::InvalidateColumns() {
  point_column_.reset();
  envelope_column_.reset();
  polygon_column_.reset();
  local_index_.reset();
}

void SpatialRecordReader::CheckInvariants() const {
  // Every built column covers every record, and a cleared reader must
  // hold no stale preparsed envelopes or columns — the states that could
  // otherwise disagree with records_.
  SHADOOP_DCHECK(point_column_ == nullptr ||
                 point_column_->values.size() == records_.size());
  SHADOOP_DCHECK(envelope_column_ == nullptr ||
                 envelope_column_->values.size() == records_.size());
  SHADOOP_DCHECK(polygon_column_ == nullptr ||
                 polygon_column_->starts.size() == records_.size() + 1);
}

void SpatialRecordReader::EnsurePointColumn() {
  if (point_column_ != nullptr) return;
  CheckInvariants();
  point_column_ = Shared<Column<Point>>("pt", [this] {
    return FillColumn<Column<Point>>(
        records_.size(), [this](size_t i, Point* out) {
          return Take(index::RecordPoint(records_[i]), out);
        });
  });
}

void SpatialRecordReader::EnsureEnvelopeColumn() {
  if (envelope_column_ != nullptr) return;
  CheckInvariants();
  envelope_column_ = Shared<Column<Envelope>>("env", [this] {
    const size_t n = records_.size();
    if (has_local_index()) {
      // The persisted header already carries every record's envelope in
      // block order; empty slots mark records that failed to parse at
      // build time. No geometry is parsed here.
      return FillColumn<Column<Envelope>>(n, [this](size_t i, Envelope* out) {
        *out = (*preparsed_envelopes_)[i];
        return !out->IsEmpty();
      });
    }
    if (shape_ == index::ShapeType::kPoint) {
      // A point's envelope is the point itself: share the point column's
      // single parse instead of parsing again.
      EnsurePointColumn();
      return FillColumn<Column<Envelope>>(n, [this](size_t i, Envelope* out) {
        if (!point_column_->valid[i]) return false;
        *out = Envelope::FromPoint(point_column_->values[i]);
        return true;
      });
    }
    if (shape_ == index::ShapeType::kPolygon) {
      // Likewise shared: the polygon column's bounds.
      EnsurePolygonColumn();
      return polygon_column_->bounds;
    }
    return FillColumn<Column<Envelope>>(n, [this](size_t i, Envelope* out) {
      return Take(index::RecordRectangle(records_[i]), out);
    });
  });
}

void SpatialRecordReader::EnsurePolygonColumn() {
  if (polygon_column_ != nullptr) return;
  CheckInvariants();
  polygon_column_ = Shared<PolygonColumn>("poly", [this] {
    auto column = std::make_shared<PolygonColumn>();
    column->starts.reserve(records_.size() + 1);
    column->starts.push_back(0);
    column->bounds = FillColumn<Column<Envelope>>(
        records_.size(), [this, &column](size_t i, Envelope* out) {
          std::vector<Point>& vertices = column->vertices;
          const size_t start = vertices.size();
          const bool ok =
              index::AppendRecordPolygon(records_[i], &vertices).ok();
          column->starts.push_back(vertices.size());
          *out = RingBounds(std::span(vertices).subspan(start));
          return ok;
        });
    return column;
  });
}

std::vector<Point> SpatialRecordReader::Points() {
  EnsurePointColumn();
  bad_records_ += point_column_->bad;
  std::vector<Point> points;
  points.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    if (point_column_->valid[i]) points.push_back(point_column_->values[i]);
  }
  return points;
}

std::vector<index::PackedRTree::Entry> SpatialRecordReader::Envelopes() {
  EnsureEnvelopeColumn();
  bad_records_ += envelope_column_->bad;
  return EnvelopeEntries();
}

std::vector<index::PackedRTree::Entry> SpatialRecordReader::EnvelopeEntries()
    const {
  std::vector<index::PackedRTree::Entry> entries;
  entries.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    if (envelope_column_->valid[i]) {
      entries.push_back(
          {envelope_column_->values[i], static_cast<uint32_t>(i)});
    }
  }
  return entries;
}

std::vector<Polygon> SpatialRecordReader::Polygons() {
  EnsurePolygonColumn();
  bad_records_ += polygon_column_->bounds->bad;
  std::vector<Polygon> polygons;
  polygons.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    const std::span<const Point> ring = PolygonAt(i).ring;
    if (!ring.empty()) {
      polygons.emplace_back(std::vector<Point>(ring.begin(), ring.end()));
    }
  }
  return polygons;
}

const Envelope* SpatialRecordReader::EnvelopeAt(size_t i) {
  EnsureEnvelopeColumn();
  if (i >= records_.size() || !envelope_column_->valid[i]) return nullptr;
  return &envelope_column_->values[i];
}

const Point* SpatialRecordReader::PointAt(size_t i) {
  EnsurePointColumn();
  if (i >= records_.size() || !point_column_->valid[i]) return nullptr;
  return &point_column_->values[i];
}

RingView SpatialRecordReader::PolygonAt(size_t i) {
  EnsurePolygonColumn();
  if (i >= records_.size()) return {};
  const PolygonColumn& column = *polygon_column_;
  const size_t start = column.starts[i];
  const size_t size = column.starts[i + 1] - start;
  return {std::span(column.vertices).subspan(start, size),
          column.bounds->values[i]};
}

const index::PackedRTree& SpatialRecordReader::LocalIndex(
    mapreduce::MapContext& ctx) {
  if (local_index_ == nullptr) {
    // Malformed records count once, as in Envelopes(), whether the tree
    // is built here or adopted from the cache.
    EnsureEnvelopeColumn();
    bad_records_ += envelope_column_->bad;
    local_index_ = Shared<index::PackedRTree>("ptree", [this] {
      return std::make_shared<const index::PackedRTree>(EnvelopeEntries());
    });
    // A persisted local index loads linearly; otherwise the bulk load
    // parses geometry and sorts — O(n log n). The charge is the same
    // whether the packed tree is built here or adopted from the cache:
    // the simulated cluster has no artifact cache, only this process
    // does.
    const size_t n = local_index_->NumEntries();
    ctx.ChargeCpu(has_local_index()
                      ? static_cast<uint64_t>(n)
                      : static_cast<uint64_t>(
                            n > 1 ? n * std::log2(static_cast<double>(n)) * 10
                                  : n));
  }
  return *local_index_;
}

std::vector<uint32_t> SpatialRecordReader::Search(const Envelope& query,
                                                  mapreduce::MapContext& ctx) {
  const index::PackedRTree& tree = LocalIndex(ctx);
  std::vector<uint32_t> hits;
  const size_t visited = tree.Search(query, &hits);
  ctx.ChargeCpu(visited * 50);
  return hits;
}

}  // namespace shadoop::core
