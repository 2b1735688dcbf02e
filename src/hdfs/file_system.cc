#include "hdfs/file_system.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "hdfs/block_arena.h"

namespace shadoop::hdfs {
namespace {

/// FNV-1a over the payload; never returns 0 (0 means "unrecorded").
uint64_t BlockChecksum(const std::string& payload) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash == 0 ? 1 : hash;
}

}  // namespace

// ---------------------------------------------------------------------------
// FileWriter

FileWriter::FileWriter(FileSystem* fs, std::string path) : fs_(fs) {
  meta_.path = std::move(path);
}

FileWriter::~FileWriter() {
  if (!closed_) {
    SHADOOP_LOG(Warning) << "FileWriter for '" << meta_.path
                         << "' destroyed without Close(); file discarded";
  }
}

void FileWriter::Append(std::string_view line) {
  SHADOOP_DCHECK(!closed_);
  current_block_.append(line);
  current_block_.push_back('\n');
  ++current_records_;
  if (current_block_.size() >= fs_->config().block_size) SealCurrentBlock();
}

void FileWriter::AppendBlock(std::string payload, size_t num_records) {
  SHADOOP_DCHECK(!closed_);
  SealCurrentBlock();
  StoreBlock(std::move(payload), num_records);
}

void FileWriter::SealCurrentBlock() {
  if (current_block_.empty()) return;
  StoreBlock(std::move(current_block_), current_records_);
  current_block_.clear();
  current_records_ = 0;
}

void FileWriter::StoreBlock(std::string payload, size_t num_records) {
  meta_.total_bytes += payload.size();
  meta_.total_records += num_records;
  meta_.blocks.push_back(fs_->StoreBlock(std::move(payload), num_records));
}

Status FileWriter::Close() {
  if (closed_) return Status::OK();
  SealCurrentBlock();
  closed_ = true;
  return appending_ ? fs_->Update(std::move(meta_))
                    : fs_->Register(std::move(meta_));
}

// ---------------------------------------------------------------------------
// FileSystem

FileSystem::FileSystem(HdfsConfig config)
    : config_(config),
      nodes_(static_cast<size_t>(std::max(1, config.num_datanodes))),
      node_alive_(nodes_.size(), true) {
  config_.num_datanodes = static_cast<int>(nodes_.size());
  config_.replication =
      std::clamp(config_.replication, 1, config_.num_datanodes);
}

Result<std::unique_ptr<FileWriter>> FileSystem::Create(
    const std::string& path) {
  {
    MutexLock lock(&mu_);
    if (files_.count(path) > 0) {
      return Status::AlreadyExists("file exists: " + path);
    }
  }
  return std::unique_ptr<FileWriter>(new FileWriter(this, path));
}

Result<std::unique_ptr<FileWriter>> FileSystem::Append(
    const std::string& path) {
  auto writer = std::unique_ptr<FileWriter>(new FileWriter(this, path));
  {
    MutexLock lock(&mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("no such file: " + path);
    // The writer starts from the current meta; existing blocks (shared
    // payloads) stay where they are and keep their indexes.
    writer->meta_ = it->second;
  }
  writer->appending_ = true;
  return writer;
}

Status FileSystem::WriteLines(const std::string& path,
                              const std::vector<std::string>& lines) {
  SHADOOP_ASSIGN_OR_RETURN(std::unique_ptr<FileWriter> writer, Create(path));
  for (const std::string& line : lines) writer->Append(line);
  return writer->Close();
}

bool FileSystem::Exists(const std::string& path) const {
  MutexLock lock(&mu_);
  return files_.count(path) > 0;
}

Result<FileMeta> FileSystem::GetFileMeta(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second;
}

Result<std::vector<BlockId>> FileSystem::GetBlockIds(
    const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  std::vector<BlockId> ids;
  ids.reserve(it->second.blocks.size());
  for (const BlockMeta& block : it->second.blocks) ids.push_back(block.id);
  return ids;
}

Result<std::vector<std::string>> FileSystem::ReadBlock(
    const std::string& path, size_t block_index) const {
  SHADOOP_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> payload,
                           ReadBlockRaw(path, block_index));
  SHADOOP_RETURN_NOT_OK(RecordIndex::CheckIndexable(*payload));
  const RecordIndex index = RecordIndex::Build(*payload);
  std::vector<std::string> records;
  records.reserve(index.size());
  for (size_t i = 0; i < index.size(); ++i) {
    records.emplace_back(index.View(*payload, i));
  }
  return records;
}

Result<std::shared_ptr<const std::string>> FileSystem::ReadBlockRaw(
    const std::string& path, size_t block_index, uint64_t* failovers) const {
  std::shared_ptr<const std::string> payload;
  size_t payload_bytes = 0;
  {
    MutexLock lock(&mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("no such file: " + path);
    if (block_index >= it->second.blocks.size()) {
      return Status::InvalidArgument("block index out of range for " + path);
    }
    const BlockMeta& block = it->second.blocks[block_index];
    std::vector<int> alive;
    alive.reserve(block.replica_nodes.size());
    for (int node : block.replica_nodes) {
      if (node_alive_[node]) alive.push_back(node);
    }
    if (alive.empty()) {
      return Status::IoError("all replicas unavailable for block " +
                             std::to_string(block.id) + " of " + path);
    }
    fault::FaultInjector* injector =
        fault_injector_.load(std::memory_order_acquire);
    for (size_t r = 0; r < alive.size(); ++r) {
      const int node = alive[r];
      // The last alive replica is always allowed to succeed, so injected
      // read faults degrade to failovers, never to data loss.
      const bool last_resort = r + 1 == alive.size();
      if (injector != nullptr && !last_resort) {
        // Injected replica fault: a dead-disk I/O error, or corrupt bytes
        // (modeled as a checksum mismatch). Either way the client skips
        // this replica and fails over to the next one.
        if (injector->FailsReplicaRead(block.id, node)) {
          if (failovers != nullptr) ++*failovers;
          continue;
        }
      }
      auto blk = nodes_[node].find(block.id);
      SHADOOP_DCHECK(blk != nodes_[node].end());
      // End-to-end verification of genuinely corrupt stored bytes, active
      // only for blocks whose checksum was recorded at write time.
      if (block.checksum != 0 && !last_resort &&
          BlockChecksum(*blk->second) != block.checksum) {
        if (failovers != nullptr) ++*failovers;
        continue;
      }
      payload = blk->second;
      break;
    }
    if (payload == nullptr) {
      return Status::IoError("all replicas unavailable for block " +
                             std::to_string(block.id) + " of " + path);
    }
    payload_bytes = block.num_bytes;
  }
  io_stats_.bytes_read += payload_bytes;
  io_stats_.blocks_read += 1;
  return payload;
}

Result<std::vector<std::string>> FileSystem::ReadLines(
    const std::string& path) const {
  SHADOOP_ASSIGN_OR_RETURN(FileMeta meta, GetFileMeta(path));
  std::vector<std::string> lines;
  lines.reserve(meta.total_records);
  for (size_t i = 0; i < meta.blocks.size(); ++i) {
    SHADOOP_ASSIGN_OR_RETURN(std::vector<std::string> block_lines,
                             ReadBlock(path, i));
    for (std::string& line : block_lines) lines.push_back(std::move(line));
  }
  return lines;
}

Status FileSystem::Delete(const std::string& path) {
  MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  DropBlocks(it->second);
  files_.erase(it);
  return Status::OK();
}

Status FileSystem::Replace(const std::string& src, const std::string& dst) {
  MutexLock lock(&mu_);
  auto it = files_.find(src);
  if (it == files_.end()) return Status::NotFound("no such file: " + src);
  auto dst_it = files_.find(dst);
  if (dst_it != files_.end()) {
    DropBlocks(dst_it->second);
    files_.erase(dst_it);
  }
  FileMeta meta = std::move(it->second);
  files_.erase(it);
  meta.path = dst;
  files_.emplace(dst, std::move(meta));
  return Status::OK();
}

std::vector<std::string> FileSystem::ListFiles(
    const std::string& prefix) const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

void FileSystem::SetNodeAlive(int node_id, bool alive) {
  MutexLock lock(&mu_);
  if (node_id >= 0 && node_id < static_cast<int>(node_alive_.size())) {
    node_alive_[node_id] = alive;
  }
}

BlockMeta FileSystem::StoreBlock(std::string payload, size_t num_records) {
  MutexLock lock(&mu_);
  BlockMeta meta;
  meta.id = next_block_id_++;
  meta.num_bytes = payload.size();
  meta.num_records = num_records;
  // Checksums exist to detect (injected) corruption; recording them only
  // under an installed injector keeps the clean write path untouched.
  if (fault_injector_.load(std::memory_order_acquire) != nullptr) {
    meta.checksum = BlockChecksum(payload);
  }
  auto shared = std::make_shared<const std::string>(std::move(payload));
  for (int r = 0; r < config_.replication; ++r) {
    const int node = (next_placement_node_ + r) % config_.num_datanodes;
    nodes_[node][meta.id] = shared;
    meta.replica_nodes.push_back(node);
  }
  next_placement_node_ = (next_placement_node_ + 1) % config_.num_datanodes;
  io_stats_.bytes_written += meta.num_bytes;
  io_stats_.blocks_written += 1;
  return meta;
}

Status FileSystem::Register(FileMeta meta) {
  MutexLock lock(&mu_);
  if (files_.count(meta.path) > 0) {
    // Lost a create/create race: drop our blocks, keep the winner.
    DropBlocks(meta);
    return Status::AlreadyExists("file exists: " + meta.path);
  }
  std::string path = meta.path;
  files_.emplace(std::move(path), std::move(meta));
  return Status::OK();
}

Status FileSystem::Update(FileMeta meta) {
  MutexLock lock(&mu_);
  auto it = files_.find(meta.path);
  if (it == files_.end()) {
    // The file vanished mid-append; publish anyway (the meta owns every
    // block it references, old and new alike).
    std::string path = meta.path;
    files_.emplace(std::move(path), std::move(meta));
    return Status::OK();
  }
  it->second = std::move(meta);
  return Status::OK();
}

void FileSystem::DropBlocks(const FileMeta& meta) {
  for (const BlockMeta& block : meta.blocks) {
    for (int node : block.replica_nodes) {
      nodes_[node].erase(block.id);
    }
  }
}

}  // namespace shadoop::hdfs
