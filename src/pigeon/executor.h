#ifndef SHADOOP_PIGEON_EXECUTOR_H_
#define SHADOOP_PIGEON_EXECUTOR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dataset_catalog.h"
#include "common/result.h"
#include "core/op_stats.h"
#include "index/index_builder.h"
#include "mapreduce/admission_controller.h"
#include "mapreduce/job_runner.h"
#include "optimizer/optimizer.h"
#include "pigeon/ast.h"

namespace shadoop::pigeon {

/// A bound dataset in the executor's environment: a raw HDFS file, a
/// spatially indexed file, or materialized result lines.
struct Dataset {
  enum class Kind { kFile, kIndexed, kLines };

  Kind kind = Kind::kFile;
  index::ShapeType shape = index::ShapeType::kPoint;
  std::string path;                            // kFile / kIndexed.
  std::optional<index::SpatialFileInfo> info;  // kIndexed.
  std::vector<std::string> lines;              // kLines.

  /// Catalog lineage of an indexed dataset (empty for plain files and
  /// results): the binding is pinned to `version` of `catalog_name`, and
  /// stays on that snapshot while appends create later versions.
  std::string catalog_name;
  uint64_t version = 0;

  /// The plan decision of the statement that bound this dataset, when the
  /// optimizer priced one (RANGE, COUNT, SJOIN, INDEX ... WITH AUTO).
  /// EXPLAIN renders it as the `; plan:` segment.
  std::optional<optimizer::PlanDecision> plan;
};

/// An indexed dataset bound to `version` of the catalog dataset
/// `catalog_name`; its shape and path come from `info`.
Dataset CatalogDataset(std::string catalog_name, uint64_t version,
                       index::SpatialFileInfo info);

/// One assignment, resolved and planned once (DESIGN.md §15.3). Running
/// it reads the sources and the plan from here and never looks them up
/// or prices them again, so the server's cache key and the execution
/// see the same snapshot and the same plan.
struct PreparedStatement {
  /// The assignment; it must outlive the prepared statement.
  const Statement* stmt = nullptr;
  /// `expr.source` (and `expr.source_b` for joins) as LookUp resolved
  /// them, snapshot re-pin included. Empty for LOAD, LOADINDEX and
  /// APPEND, which resolves its target by name when it runs.
  std::vector<Dataset> sources;
  /// With the optimizer on: the priced RANGE / COUNT / SJOIN plan over
  /// indexed inputs, and the physical choice it implies.
  std::optional<optimizer::PlanDecision> plan;
  bool use_index = true;
  optimizer::JoinStrategy join = optimizer::JoinStrategy::kDjBuildLeft;
  /// "legacy" with the optimizer off, else the chosen alternative's name,
  /// or "default" when nothing was priced. The server's result-cache key
  /// folds it in, so a plan change invalidates structurally.
  std::string plan_token;
};

/// Result of running a script: everything DUMP produced, per-dataset row
/// counts, and the aggregated cost of all jobs the script triggered.
struct ExecutionReport {
  std::vector<std::string> dump_output;
  core::OpStats stats;
};

/// Executes Pigeon scripts against a cluster. The executor routes each
/// logical operation to the best physical operator available: indexed
/// inputs use the SpatialHadoop operators (pruned splits, distributed
/// join), unindexed inputs fall back to the Hadoop full-scan operators.
/// This routing *is* the demo's "flexibility" claim: the script does not
/// change when an index appears, only its cost does.
class Executor {
 public:
  /// A standalone session: the executor owns its dataset catalog.
  explicit Executor(mapreduce::JobRunner* runner)
      : runner_(runner),
        owned_catalog_(std::make_unique<catalog::DatasetCatalog>(runner)),
        catalog_(owned_catalog_.get()) {}

  /// A server session (DESIGN.md §14): many executors share one catalog
  /// so datasets and their indexes are loaded once and read by every
  /// session. The catalog must outlive the executor; the caller (the
  /// query server) is responsible for serializing writes — catalog reads
  /// themselves are thread-safe.
  Executor(mapreduce::JobRunner* runner, catalog::DatasetCatalog* catalog)
      : runner_(runner), catalog_(catalog) {}

  /// Parses and runs `script`. The environment persists across calls, so
  /// a REPL can feed statements incrementally.
  Result<ExecutionReport> Execute(std::string_view script);

  /// Like Execute, but accumulates into an existing report: EXPLAIN reads
  /// the report's charges so far. The query server keeps one report per
  /// session and moves each request's rows out of it, so a script split
  /// across many requests yields the same rows and EXPLAIN counters as
  /// one Execute call.
  Status ExecuteInto(std::string_view script, ExecutionReport* report);

  /// Runs one already-parsed statement against the session. Assignments
  /// run as Prepare, then Run.
  Status ExecuteStatement(const Statement& stmt, ExecutionReport* report);

  /// Resolves the assignment `stmt`'s sources (SET snapshot_version
  /// re-pin included) and, with the optimizer on, prices RANGE, COUNT and
  /// SJOIN. INDEX ... WITH AUTO consults its advisor in Run instead, once
  /// the source is materialized.
  Result<PreparedStatement> Prepare(const Statement& stmt) const;

  /// Executes a prepared assignment into `report` and binds its target.
  /// The server's result cache sits between Prepare and this call.
  Status Run(const PreparedStatement& prepared, ExecutionReport* report);

  /// Binds `name` directly, bypassing evaluation — the server uses this
  /// to pre-bind shared catalog datasets into a fresh session and to
  /// install result-cache hits (which carry the prepared plan).
  void Bind(const std::string& name, Dataset dataset) {
    env_[name] = std::move(dataset);
  }

  /// Access to bound datasets (for tests and tooling).
  const std::map<std::string, Dataset>& environment() const { return env_; }

  /// The session's dataset catalog: every INDEX registers its result here
  /// (version 1), `LOAD ... APPEND` grows it, and `SET snapshot_version`
  /// re-pins catalog-bound datasets at lookup time.
  catalog::DatasetCatalog& catalog() { return *catalog_; }
  uint64_t snapshot_version() const { return snapshot_version_; }

  /// Namespace prefix for the temporary files that materialize result
  /// datasets ("/.pigeon_tmp_<ns><n>"). Concurrent server sessions share
  /// one file system, so each session must set a unique prefix; the
  /// default (empty) keeps standalone paths byte-identical to before.
  void set_temp_namespace(std::string ns) { temp_namespace_ = std::move(ns); }

  /// Multi-tenant admission (DESIGN.md §10). A session starts with no
  /// controller — jobs run unconstrained, byte-identical to the
  /// pre-admission runtime. The first `SET tenant`/`SET tenant_slots`
  /// statement lazily creates a session-owned controller sized to the
  /// runner's cluster; call set_admission_controller first to share one
  /// controller across sessions instead (multi-session fairness). The
  /// executor does not take ownership of a shared controller.
  void set_admission_controller(mapreduce::AdmissionController* controller) {
    admission_ = controller;
    BindAdmission();
  }
  mapreduce::AdmissionController* admission_controller() const {
    return admission_;
  }
  const std::string& tenant() const { return tenant_; }

  /// Cost-based planning (DESIGN.md §15). On by default; `SET optimizer
  /// off` pins every operation to the legacy hard-coded plan, reproducing
  /// pre-optimizer rows, counters and charges byte-identically.
  bool optimizer_enabled() const { return optimizer_on_; }

 private:
  /// INDEX and LOADINDEX register catalog datasets under the assignment
  /// target.
  Result<Dataset> Eval(const PreparedStatement& prepared,
                       ExecutionReport* report);
  Result<Dataset> LookUp(const std::string& name, int line) const;

  /// Materializes a dataset as an HDFS file (writing result lines to a
  /// temporary file when needed) so it can feed another operation.
  Result<std::string> EnsureFile(const Dataset& dataset);

  /// The physical-operator router behind every query expression: indexed
  /// datasets run `spatial` (the pruned SpatialJobBuilder plan over the
  /// global index), everything else is materialized as a file and runs
  /// `hadoop` (the full-scan plan). `allow_spatial` lets an operation add
  /// extra requirements on the index (e.g. UNION needs disjoint cells).
  template <typename Spatial, typename Hadoop>
  auto Dispatch(const Dataset& source, Spatial&& spatial, Hadoop&& hadoop,
                bool allow_spatial = true) -> decltype(hadoop(std::string())) {
    if (source.kind == Dataset::Kind::kIndexed && allow_spatial) {
      return spatial(*source.info);
    }
    SHADOOP_ASSIGN_OR_RETURN(std::string path, EnsureFile(source));
    return hadoop(path);
  }

  /// Ensures an admission controller exists (creating the session-owned
  /// one if none was shared) and rebinds the runner to it.
  void EnsureAdmission();
  void BindAdmission();

  mapreduce::JobRunner* runner_;
  std::unique_ptr<catalog::DatasetCatalog> owned_catalog_;
  catalog::DatasetCatalog* catalog_;
  /// SET snapshot_version override: n >= 1 re-resolves catalog-bound
  /// datasets to version n at lookup time. An *explicit* `SET
  /// snapshot_version 0` (snapshot_follow_latest_) re-pins each binding
  /// to the catalog's latest version at its next use — a session that
  /// never touched the knob keeps each binding's own pinned version.
  uint64_t snapshot_version_ = 0;
  bool snapshot_follow_latest_ = false;
  std::map<std::string, Dataset> env_;
  int temp_counter_ = 0;
  std::string temp_namespace_;
  std::string tenant_ = "default";
  std::unique_ptr<mapreduce::AdmissionController> owned_admission_;
  mapreduce::AdmissionController* admission_ = nullptr;
  bool optimizer_on_ = true;
};

}  // namespace shadoop::pigeon

#endif  // SHADOOP_PIGEON_EXECUTOR_H_
