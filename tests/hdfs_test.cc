#include <gtest/gtest.h>

#include "hdfs/block_arena.h"
#include "hdfs/file_system.h"

namespace shadoop::hdfs {
namespace {

HdfsConfig SmallBlocks() {
  HdfsConfig config;
  config.block_size = 64;  // Tiny blocks force multi-block files.
  config.num_datanodes = 5;
  config.replication = 3;
  return config;
}

TEST(FileSystemTest, WriteReadRoundTrip) {
  FileSystem fs(SmallBlocks());
  const std::vector<std::string> lines = {"alpha", "beta", "gamma"};
  ASSERT_TRUE(fs.WriteLines("/f", lines).ok());
  EXPECT_TRUE(fs.Exists("/f"));
  EXPECT_EQ(fs.ReadLines("/f").ValueOrDie(), lines);
}

TEST(FileSystemTest, FilesSplitIntoBlocksAtRecordBoundaries) {
  FileSystem fs(SmallBlocks());
  std::vector<std::string> lines;
  for (int i = 0; i < 100; ++i) lines.push_back("record-" + std::to_string(i));
  ASSERT_TRUE(fs.WriteLines("/f", lines).ok());
  const FileMeta meta = fs.GetFileMeta("/f").ValueOrDie();
  EXPECT_GT(meta.blocks.size(), 5u);
  EXPECT_EQ(meta.total_records, 100u);
  // Reassembling blocks yields the original records, in order.
  std::vector<std::string> reassembled;
  for (size_t b = 0; b < meta.blocks.size(); ++b) {
    for (std::string& r : fs.ReadBlock("/f", b).ValueOrDie()) {
      reassembled.push_back(std::move(r));
    }
  }
  EXPECT_EQ(reassembled, lines);
}

TEST(FileSystemTest, ForcedBlockBoundaries) {
  FileSystem fs(SmallBlocks());
  auto writer = fs.Create("/f").ValueOrDie();
  writer->Append("loose");  // Sealed as its own block by AppendBlock.
  std::vector<std::string> payloads;
  for (int part = 0; part < 3; ++part) {
    std::string payload;
    for (int i = 0; i < 50; ++i) payload += "p" + std::to_string(part) + "\n";
    // Far beyond the block size: still one block.
    ASSERT_GT(payload.size(), SmallBlocks().block_size);
    payloads.push_back(payload);
    writer->AppendBlock(std::move(payload), 50);
  }
  ASSERT_TRUE(writer->Close().ok());
  const FileMeta meta = fs.GetFileMeta("/f").ValueOrDie();
  ASSERT_EQ(meta.blocks.size(), 4u);  // "loose", then one per AppendBlock.
  EXPECT_EQ(meta.blocks[0].num_records, 1u);
  EXPECT_EQ(meta.total_records, 151u);
  EXPECT_EQ(meta.total_bytes, 6 + 3 * payloads[0].size());
  for (size_t b = 1; b < 4; ++b) {
    EXPECT_EQ(meta.blocks[b].num_records, 50u);
    EXPECT_EQ(meta.blocks[b].num_bytes, payloads[b - 1].size());
    EXPECT_EQ(*fs.ReadBlockRaw("/f", b).ValueOrDie(), payloads[b - 1]);
    const std::vector<std::string> records = fs.ReadBlock("/f", b).ValueOrDie();
    ASSERT_EQ(records.size(), 50u);
    EXPECT_EQ(records.front(), "p" + std::to_string(b - 1));
  }
}

TEST(FileSystemTest, CreateFailsOnExisting) {
  FileSystem fs(SmallBlocks());
  ASSERT_TRUE(fs.WriteLines("/f", {"x"}).ok());
  EXPECT_TRUE(fs.Create("/f").status().IsAlreadyExists());
  EXPECT_TRUE(fs.WriteLines("/f", {"y"}).IsAlreadyExists());
}

TEST(FileSystemTest, DeleteAndRename) {
  FileSystem fs(SmallBlocks());
  ASSERT_TRUE(fs.WriteLines("/a", {"1"}).ok());
  ASSERT_TRUE(fs.Rename("/a", "/b").ok());
  EXPECT_FALSE(fs.Exists("/a"));
  EXPECT_TRUE(fs.Exists("/b"));
  EXPECT_TRUE(fs.Rename("/missing", "/c").IsNotFound());
  ASSERT_TRUE(fs.WriteLines("/c", {"2"}).ok());
  EXPECT_TRUE(fs.Rename("/b", "/c").IsAlreadyExists());
  ASSERT_TRUE(fs.Delete("/b").ok());
  EXPECT_FALSE(fs.Exists("/b"));
  EXPECT_TRUE(fs.Delete("/b").IsNotFound());
}

TEST(FileSystemTest, ListFilesByPrefix) {
  FileSystem fs(SmallBlocks());
  ASSERT_TRUE(fs.WriteLines("/data/a", {"1"}).ok());
  ASSERT_TRUE(fs.WriteLines("/data/b", {"1"}).ok());
  ASSERT_TRUE(fs.WriteLines("/other", {"1"}).ok());
  EXPECT_EQ(fs.ListFiles("/data/"),
            (std::vector<std::string>{"/data/a", "/data/b"}));
  EXPECT_EQ(fs.ListFiles("/nope").size(), 0u);
}

TEST(FileSystemTest, ReplicationSurvivesNodeFailures) {
  FileSystem fs(SmallBlocks());
  std::vector<std::string> lines(50, "payload");
  ASSERT_TRUE(fs.WriteLines("/f", lines).ok());
  // Kill replication-1 nodes: every block still has a live replica.
  fs.SetNodeAlive(0, false);
  fs.SetNodeAlive(1, false);
  EXPECT_EQ(fs.CountAliveNodes(), 3);
  EXPECT_EQ(fs.ReadLines("/f").ValueOrDie(), lines);
  // Kill a third node: with 5 nodes and r=3 some block loses all copies.
  fs.SetNodeAlive(2, false);
  const auto result = fs.ReadLines("/f");
  EXPECT_TRUE(result.status().IsIoError());
  // Recovery: bring a node back.
  fs.SetNodeAlive(0, true);
  EXPECT_EQ(fs.ReadLines("/f").ValueOrDie(), lines);
}

TEST(FileSystemTest, IoStatsAccounting) {
  FileSystem fs(SmallBlocks());
  std::vector<std::string> lines(20, "0123456789");
  ASSERT_TRUE(fs.WriteLines("/f", lines).ok());
  const uint64_t written = fs.io_stats().bytes_written.load();
  EXPECT_EQ(written, 20u * 11);
  fs.io_stats().Reset();
  ASSERT_TRUE(fs.ReadLines("/f").ok());
  EXPECT_EQ(fs.io_stats().bytes_read.load(), written);
}

TEST(FileSystemTest, ReadErrors) {
  FileSystem fs(SmallBlocks());
  EXPECT_TRUE(fs.ReadLines("/missing").status().IsNotFound());
  ASSERT_TRUE(fs.WriteLines("/f", {"x"}).ok());
  EXPECT_TRUE(fs.ReadBlock("/f", 99).status().IsInvalidArgument());
}

std::vector<std::string_view> AllViews(const RecordIndex& index,
                                       std::string_view payload) {
  std::vector<std::string_view> views;
  index.AppendViews(payload, 0, index.size(), &views);
  return views;
}

TEST(RecordIndexTest, HandlesTrailingNewlineEmptyLinesAndEmptyPayload) {
  struct Case {
    std::string payload;
    std::vector<std::string_view> records;
    uint64_t bytes;  // Σ(len + 1) over the records.
    std::vector<uint32_t> metadata;
  };
  const std::vector<Case> cases = {
      {"", {}, 0, {}},
      {"a\nb\n", {"a", "b"}, 4, {}},
      {"a\nb", {"a", "b"}, 4, {}},
      {"\n", {""}, 1, {}},
      {"\n\nx\n\n", {"", "", "x", ""}, 5, {}},
      {"#h\n\nlast", {"#h", "", "last"}, 9, {0}},
      {"a\n#\n\n#x", {"a", "#", "", "#x"}, 8, {1, 3}},
  };
  for (const Case& c : cases) {
    const RecordIndex index = RecordIndex::Build(c.payload);
    EXPECT_EQ(AllViews(index, c.payload), c.records) << c.payload;
    EXPECT_EQ(index.size(), c.records.size()) << c.payload;
    EXPECT_EQ(index.bytes(), c.bytes) << c.payload;
    EXPECT_EQ(index.metadata(), c.metadata) << c.payload;
    for (size_t i = 0; i < index.size(); ++i) {
      EXPECT_EQ(index.View(c.payload, i), c.records[i]) << c.payload;
      // A partial range starts at the right record too.
      std::vector<std::string_view> tail;
      index.AppendViews(c.payload, i, index.size(), &tail);
      EXPECT_EQ(tail, std::vector<std::string_view>(c.records.begin() + i,
                                                    c.records.end()));
    }
  }
}

TEST(RecordIndexTest, ReadBlockCutsRecordsWhereTheIndexDoes) {
  FileSystem fs(SmallBlocks());
  ASSERT_TRUE(fs.WriteLines("/f", {"", "x", "", "#meta", "yy"}).ok());
  const std::shared_ptr<const std::string> payload =
      fs.ReadBlockRaw("/f", 0).ValueOrDie();
  const RecordIndex index = RecordIndex::Build(*payload);
  const std::vector<std::string> records = fs.ReadBlock("/f", 0).ValueOrDie();
  ASSERT_EQ(records.size(), index.size());
  const std::vector<std::string_view> views = AllViews(index, *payload);
  for (size_t i = 0; i < records.size(); ++i) EXPECT_EQ(records[i], views[i]);
}

}  // namespace
}  // namespace shadoop::hdfs
