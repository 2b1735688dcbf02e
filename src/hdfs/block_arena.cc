#include "hdfs/block_arena.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace shadoop::hdfs {
namespace {

std::atomic<uint64_t> g_record_index_builds{0};

}  // namespace

Status RecordIndex::CheckIndexable(std::string_view payload) {
  // An unterminated final line ends at payload.size(), so that is the
  // largest offset the index stores.
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "block payload of " + std::to_string(payload.size()) +
        " bytes exceeds the record index's 4 GiB limit");
  }
  return Status::OK();
}

RecordIndex RecordIndex::Build(std::string_view payload) {
  SHADOOP_DCHECK(payload.size() <= std::numeric_limits<uint32_t>::max());
  g_record_index_builds.fetch_add(1, std::memory_order_relaxed);
  const bool unterminated = !payload.empty() && payload.back() != '\n';
  RecordIndex index;
  index.bytes_ = payload.size() + (unterminated ? 1 : 0);
  // Counted first, so the offsets take exactly 4 bytes per record.
  index.ends_.reserve(
      static_cast<size_t>(std::count(payload.begin(), payload.end(), '\n')) +
      (unterminated ? 1 : 0));
  const char* const begin = payload.data();
  const char* const end = begin + payload.size();
  for (const char* p = begin; p < end;) {
    if (IsMetadataLine({p, static_cast<size_t>(end - p)})) {
      index.metadata_.push_back(static_cast<uint32_t>(index.ends_.size()));
    }
    const char* line_end =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (line_end == nullptr) line_end = end;
    index.ends_.push_back(static_cast<uint32_t>(line_end - begin));
    p = line_end + 1;
  }
  return index;
}

void RecordIndex::AppendViews(std::string_view payload, size_t first,
                              size_t last,
                              std::vector<std::string_view>* out) const {
  size_t start = first == 0 ? 0 : size_t{ends_[first - 1]} + 1;
  for (size_t i = first; i < last; ++i) {
    out->emplace_back(payload.data() + start, ends_[i] - start);
    start = size_t{ends_[i]} + 1;
  }
}

uint64_t RecordIndexBuildCount() {
  return g_record_index_builds.load(std::memory_order_relaxed);
}

BlockRecords BlockArena::AddBlock(std::shared_ptr<const std::string> payload,
                                  const RecordIndex& index) {
  const BlockRecords records{*payload, &index};
  pinned_.push_back(std::move(payload));
  return records;
}

}  // namespace shadoop::hdfs
