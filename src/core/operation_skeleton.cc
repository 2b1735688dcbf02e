#include "core/operation_skeleton.h"

#include <memory>

#include "core/query_pipeline.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

/// Bridges LocalOutput onto the map context: merge rows ride the shuffle
/// under a constant key; output rows are early-flushed map-side.
class LocalOutputImpl : public LocalOutput {
 public:
  explicit LocalOutputImpl(MapContext* ctx) : ctx_(ctx) {}

  void ToMerge(std::string row) override { ctx_->Emit("M", std::move(row)); }
  void ToOutput(std::string row) override {
    ctx_->WriteOutput(std::move(row));
  }
  void ChargeCpu(uint64_t ops) override { ctx_->ChargeCpu(ops); }

 private:
  MapContext* ctx_;
};

class SkeletonMapper : public PartitionMapper {
 public:
  SkeletonMapper(index::ShapeType shape, const OperationSkeleton* op)
      : PartitionMapper(shape), op_(op) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               MapContext& ctx) override {
    LocalOutputImpl out(&ctx);
    // The public skeleton API takes owned strings, so user-defined
    // operations never worry about record lifetimes; materialize here.
    std::vector<std::string> records(reader.records().begin(),
                                     reader.records().end());
    op_->local(extent, records, &out);
  }

 private:
  const OperationSkeleton* op_;
};

}  // namespace

Result<std::vector<std::string>> RunOperation(mapreduce::JobRunner* runner,
                                              const index::SpatialFileInfo& file,
                                              const OperationSkeleton& op,
                                              OpStats* stats) {
  if (!op.local) {
    return Status::InvalidArgument("operation '" + op.name +
                                   "' has no local function");
  }
  const OperationSkeleton* op_ptr = &op;
  const index::ShapeType shape = file.shape;
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name(op.name)
          .ScanIndexed(file, op.filter)
          .Map([op_ptr, shape]() {
            return std::make_unique<SkeletonMapper>(shape, op_ptr);
          })
          .Run(stats));

  // Map-only job: the early-flushed rows are the output, and the merge
  // candidates pass through as pair rows, whatever either's text.
  std::vector<std::string> output = std::move(result.output);
  std::vector<std::string> candidates;
  for (const mapreduce::PairRows& rows : result.pair_rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      candidates.emplace_back(rows.value(i));
    }
  }
  if (op.merge) {
    op.merge(candidates, &output);
  } else {
    for (std::string& row : candidates) output.push_back(std::move(row));
  }
  return output;
}

}  // namespace shadoop::core
