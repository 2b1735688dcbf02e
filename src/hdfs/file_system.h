#ifndef SHADOOP_HDFS_FILE_SYSTEM_H_
#define SHADOOP_HDFS_FILE_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "hdfs/hdfs_config.h"

namespace shadoop::fault {
class FaultInjector;
}  // namespace shadoop::fault

namespace shadoop::hdfs {

/// Globally unique block identifier.
using BlockId = uint64_t;

/// Per-block metadata held by the namenode.
struct BlockMeta {
  BlockId id = 0;
  size_t num_bytes = 0;
  size_t num_records = 0;
  std::vector<int> replica_nodes;  // Datanode ids holding a copy.
  /// FNV-1a of the payload, recorded at write time when a fault injector
  /// is installed; 0 means unrecorded (no verification on read). Lets the
  /// client detect a corrupt replica read and fail over.
  uint64_t checksum = 0;
};

/// Per-file metadata held by the namenode.
struct FileMeta {
  std::string path;
  std::vector<BlockMeta> blocks;
  size_t total_bytes = 0;
  size_t total_records = 0;
};

/// Byte-level I/O accounting; the MapReduce cost model reads these.
struct IoStats {
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> blocks_written{0};
  std::atomic<uint64_t> blocks_read{0};

  void Reset() {
    bytes_written = 0;
    bytes_read = 0;
    blocks_written = 0;
    blocks_read = 0;
  }
};

class FileSystem;

/// Streaming writer that packs records (text lines) into blocks, cutting
/// a new block whenever the current one reaches the configured size.
/// Close() must be called to publish the file to the namenode.
class FileWriter {
 public:
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Appends one record. `line` must not contain '\n'.
  void Append(std::string_view line);

  /// Stores `payload` as the next block, whatever its size: `num_records`
  /// lines, each ending in '\n'. Records appended before it are sealed
  /// first, as their own block. The spatial index builder stores exactly
  /// one partition per block this way, so that the global index can
  /// address partitions as (file, block) pairs.
  void AppendBlock(std::string payload, size_t num_records);

  /// Seals the current block (if non-empty) and registers the file.
  Status Close();

 private:
  friend class FileSystem;
  FileWriter(FileSystem* fs, std::string path);
  void SealCurrentBlock();
  void StoreBlock(std::string payload, size_t num_records);

  FileSystem* fs_;
  FileMeta meta_;
  std::string current_block_;
  size_t current_records_ = 0;
  bool closed_ = false;
  bool appending_ = false;  // Opened by FileSystem::Append.
};

/// In-process simulation of HDFS: a namenode (file → blocks → replica
/// placement) plus `num_datanodes` block stores. Thread-safe; the
/// MapReduce engine reads blocks from many worker threads concurrently.
class FileSystem {
 public:
  explicit FileSystem(HdfsConfig config = HdfsConfig());

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  const HdfsConfig& config() const { return config_; }

  /// Creates a file for streaming writes. Fails if the path exists.
  Result<std::unique_ptr<FileWriter>> Create(const std::string& path)
      SHADOOP_EXCLUDES(mu_);

  /// Reopens an existing file for appending. New records go into *new*
  /// blocks after the existing ones, whose (path, block_index) addresses
  /// and payloads stay untouched — readers holding block references (e.g.
  /// a pinned dataset snapshot) are never invalidated by an append.
  /// Close() republishes the extended file meta; concurrent appenders to
  /// one path must serialize externally (last Close wins).
  Result<std::unique_ptr<FileWriter>> Append(const std::string& path)
      SHADOOP_EXCLUDES(mu_);

  /// Renames src onto dst, replacing dst if it exists (the replaced
  /// file's blocks are dropped). This is the atomic pointer-swap the
  /// dataset catalog uses to publish a new current version.
  Status Replace(const std::string& src, const std::string& dst)
      SHADOOP_EXCLUDES(mu_);

  /// Convenience: writes all `lines` as one file.
  Status WriteLines(const std::string& path,
                    const std::vector<std::string>& lines);

  bool Exists(const std::string& path) const SHADOOP_EXCLUDES(mu_);

  Result<FileMeta> GetFileMeta(const std::string& path) const
      SHADOOP_EXCLUDES(mu_);

  /// The ids of `path`'s blocks in block order, read under one namenode
  /// lock without copying the file's metadata: what the job runner needs
  /// to key its per-block artifacts.
  Result<std::vector<BlockId>> GetBlockIds(const std::string& path) const
      SHADOOP_EXCLUDES(mu_);

  /// Reads the records of one block. Fails with IoError when every replica
  /// lives on a dead datanode.
  Result<std::vector<std::string>> ReadBlock(const std::string& path,
                                             size_t block_index) const;

  /// Zero-copy read of one block: returns the stored payload itself
  /// (shared with the datanode, never duplicated) so callers can slice
  /// records out of it without copying — see hdfs/block_arena.h. I/O
  /// accounting is identical to ReadBlock. Adds the replicas the read
  /// skipped (injected faults, checksum mismatches) to `*failovers` when
  /// it is given.
  Result<std::shared_ptr<const std::string>> ReadBlockRaw(
      const std::string& path, size_t block_index,
      uint64_t* failovers = nullptr) const SHADOOP_EXCLUDES(mu_);

  /// Reads a whole file in block order.
  Result<std::vector<std::string>> ReadLines(const std::string& path) const;

  Status Delete(const std::string& path) SHADOOP_EXCLUDES(mu_);

  /// All paths with the given prefix, sorted.
  std::vector<std::string> ListFiles(const std::string& prefix) const
      SHADOOP_EXCLUDES(mu_);

  /// Failure injection: marks a datanode dead (its replicas unreadable) or
  /// alive again.
  void SetNodeAlive(int node_id, bool alive) SHADOOP_EXCLUDES(mu_);

  /// Installs a deterministic fault source for replica reads (I/O errors,
  /// corrupt bytes caught by block checksums). Not owned; null (the
  /// default) disables injection and block checksumming — the clean read
  /// path is byte-for-byte the pre-fault one. Install before writing the
  /// files whose reads should verify checksums.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  fault::FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  IoStats& io_stats() { return io_stats_; }
  const IoStats& io_stats() const { return io_stats_; }

 private:
  friend class FileWriter;

  /// Stores a sealed block on `replication` distinct datanodes
  /// (round-robin placement) and returns its metadata.
  BlockMeta StoreBlock(std::string payload, size_t num_records)
      SHADOOP_EXCLUDES(mu_);
  Status Register(FileMeta meta) SHADOOP_EXCLUDES(mu_);
  /// Publishes the extended meta of an append (replaces the entry without
  /// dropping blocks — the new meta still references them).
  Status Update(FileMeta meta) SHADOOP_EXCLUDES(mu_);
  void DropBlocks(const FileMeta& meta) SHADOOP_REQUIRES(mu_);

  HdfsConfig config_;
  mutable Mutex mu_;
  std::map<std::string, FileMeta> files_ SHADOOP_GUARDED_BY(mu_);
  // Datanode storage: node id -> block id -> payload. Payloads are shared
  // so replicas do not multiply memory in the simulation.
  std::vector<std::map<BlockId, std::shared_ptr<const std::string>>> nodes_
      SHADOOP_GUARDED_BY(mu_);
  std::vector<bool> node_alive_ SHADOOP_GUARDED_BY(mu_);
  BlockId next_block_id_ SHADOOP_GUARDED_BY(mu_) = 1;
  int next_placement_node_ SHADOOP_GUARDED_BY(mu_) = 0;
  // Lock-free: atomic counters / atomic pointer, safe to touch unguarded.
  mutable IoStats io_stats_;
  std::atomic<fault::FaultInjector*> fault_injector_{nullptr};
};

}  // namespace shadoop::hdfs

#endif  // SHADOOP_HDFS_FILE_SYSTEM_H_
