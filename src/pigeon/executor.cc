#include "pigeon/executor.h"

#include <cstdio>

#include "core/aggregate_op.h"
#include "core/closest_pair_op.h"
#include "core/convex_hull_op.h"
#include "core/farthest_pair_op.h"
#include "core/knn.h"
#include "core/knn_join.h"
#include "core/range_query.h"
#include "core/skyline_op.h"
#include "core/spatial_join.h"
#include "core/union_op.h"
#include "geometry/wkt.h"
#include "pigeon/parser.h"

namespace shadoop::pigeon {
namespace {

Status ErrorAt(int line, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 message);
}

/// Prefixes a failure (e.g. a job abort carrying the failing task id and
/// attempt history) with the statement's line, preserving the status code
/// so callers can still distinguish I/O from user errors. Statuses already
/// anchored to a line pass through untouched.
Status AtLine(int line, const Status& status) {
  if (status.ok() || status.message().rfind("line ", 0) == 0) return status;
  return Status(status.code(),
                "line " + std::to_string(line) + ": " + status.message());
}

std::vector<std::string> PointsToLines(const std::vector<Point>& points) {
  std::vector<std::string> lines;
  lines.reserve(points.size());
  for (const Point& p : points) lines.push_back(PointToCsv(p));
  return lines;
}

}  // namespace

Dataset CatalogDataset(std::string catalog_name, uint64_t version,
                       index::SpatialFileInfo info) {
  Dataset dataset;
  dataset.kind = Dataset::Kind::kIndexed;
  dataset.shape = info.shape;
  dataset.path = info.data_path;
  dataset.catalog_name = std::move(catalog_name);
  dataset.version = version;
  dataset.info = std::move(info);
  return dataset;
}

Result<ExecutionReport> Executor::Execute(std::string_view script) {
  ExecutionReport report;
  SHADOOP_RETURN_NOT_OK(ExecuteInto(script, &report));
  return report;
}

Status Executor::ExecuteInto(std::string_view script,
                             ExecutionReport* report) {
  SHADOOP_ASSIGN_OR_RETURN(Script statements, Parse(script));
  for (const Statement& stmt : statements) {
    SHADOOP_RETURN_NOT_OK(ExecuteStatement(stmt, report));
  }
  return Status::OK();
}

Status Executor::ExecuteStatement(const Statement& stmt,
                                  ExecutionReport* report_ptr) {
  ExecutionReport& report = *report_ptr;
  {
    switch (stmt.kind) {
      case Statement::Kind::kAssign: {
        SHADOOP_ASSIGN_OR_RETURN(PreparedStatement prepared, Prepare(stmt));
        return Run(prepared, &report);
      }
      case Statement::Kind::kStore: {
        SHADOOP_ASSIGN_OR_RETURN(Dataset dataset,
                                 LookUp(stmt.target, stmt.line));
        if (dataset.kind == Dataset::Kind::kLines) {
          SHADOOP_RETURN_NOT_OK(
              runner_->file_system()->WriteLines(stmt.path, dataset.lines));
        } else {
          SHADOOP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                                   runner_->file_system()->ReadLines(
                                       dataset.path));
          SHADOOP_RETURN_NOT_OK(
              runner_->file_system()->WriteLines(stmt.path, lines));
        }
        break;
      }
      case Statement::Kind::kSet: {
        if (stmt.target == "TENANT") {
          tenant_ = stmt.path;
          EnsureAdmission();
        } else if (stmt.target == "TENANT_SLOTS") {
          EnsureAdmission();
          admission_->SetTenantSlots(tenant_, static_cast<int>(stmt.number));
        } else if (stmt.target == "MAX_TASK_ATTEMPTS") {
          runner_->set_max_task_attempts(static_cast<int>(stmt.number));
        } else if (stmt.target == "OPTIMIZER") {
          optimizer_on_ = stmt.path == "on";
        } else if (stmt.target == "SNAPSHOT_VERSION") {
          snapshot_version_ = static_cast<uint64_t>(stmt.number);
          // An explicit `SET snapshot_version 0` means "follow the
          // latest version", re-pinned at each binding's next use — not
          // "keep whatever snapshot the binding happens to hold". A
          // server session that inherited a shared binding would
          // otherwise silently read a stale version forever.
          snapshot_follow_latest_ = snapshot_version_ == 0;
        } else {
          return ErrorAt(stmt.line,
                         "unknown session knob '" + stmt.target + "'");
        }
        break;
      }
      case Statement::Kind::kExplain: {
        SHADOOP_ASSIGN_OR_RETURN(Dataset dataset,
                                 LookUp(stmt.target, stmt.line));
        std::string line = "dataset '" + stmt.target + "': ";
        switch (dataset.kind) {
          case Dataset::Kind::kFile:
            line += "raw file '" + dataset.path + "' (shape=" +
                    index::ShapeTypeName(dataset.shape) +
                    "); queries use full-scan Hadoop operators";
            break;
          case Dataset::Kind::kIndexed: {
            const index::GlobalIndex& gi = dataset.info->global_index;
            size_t records = 0;
            for (const auto& p : gi.partitions()) records += p.num_records;
            line += "indexed file '" + dataset.path + "' (scheme=" +
                    index::PartitionSchemeName(gi.scheme()) + ", shape=" +
                    index::ShapeTypeName(dataset.shape) + ", partitions=" +
                    std::to_string(gi.NumPartitions()) + ", records=" +
                    std::to_string(records) + ", local_indexes=" +
                    (dataset.info->has_local_indexes ? "yes" : "no");
            // Catalog-bound datasets also surface their pinned version and
            // the skew metric driving incremental repartitioning.
            if (!dataset.catalog_name.empty()) {
              auto latest = catalog_->LatestVersion(dataset.catalog_name);
              auto vstats =
                  catalog_->Stats(dataset.catalog_name, dataset.version);
              if (latest.ok() && vstats.ok()) {
                char skew[32];
                std::snprintf(skew, sizeof(skew), "%.2f", vstats->skew);
                line += ", version=" + std::to_string(dataset.version) + "/" +
                        std::to_string(latest.value()) + ", skew=" + skew;
              }
            }
            line += "); queries use pruned SpatialHadoop operators";
            break;
          }
          case Dataset::Kind::kLines:
            line += "materialized result (" +
                    std::to_string(dataset.lines.size()) + " records)";
            break;
        }
        // Fault-tolerance work done by the script so far; absent on clean
        // runs so existing EXPLAIN output stays byte-identical.
        const mapreduce::JobCost& cost = report.stats.cost;
        if (cost.task_retries > 0 || cost.speculative_launched > 0 ||
            cost.replica_failovers > 0) {
          line += "; exec: task_retries=" +
                  std::to_string(cost.task_retries) + ", speculative=" +
                  std::to_string(cost.speculative_launched) + "/won=" +
                  std::to_string(cost.speculative_won) +
                  ", replica_failovers=" +
                  std::to_string(cost.replica_failovers);
        }
        // Admission-control work, same nonzero-only contract: sessions
        // that never queued (in particular every session without SET
        // tenant) keep byte-identical EXPLAIN output.
        if (cost.admission_queued > 0 || cost.admission_wait_ms > 0 ||
            cost.admission_preempted_specs > 0) {
          line += "; admission: queued=" +
                  std::to_string(cost.admission_queued) + ", wait_ms=" +
                  std::to_string(static_cast<int64_t>(
                      cost.admission_wait_ms + 0.5)) +
                  ", preempted_specs=" +
                  std::to_string(cost.admission_preempted_specs);
        }
        // Ingest work, same nonzero-only contract: ingest.* counters only
        // exist once an append ran, so bulk-only scripts keep byte-
        // identical EXPLAIN output.
        std::string ingest;
        for (const auto& [name, value] : report.stats.counters.values()) {
          if (name.rfind("ingest.", 0) != 0 || value == 0) continue;
          ingest += (ingest.empty() ? "" : ", ") + name.substr(7) + "=" +
                    std::to_string(value);
        }
        if (!ingest.empty()) line += "; ingest: " + ingest;
        // Result-cache outcomes for this session (server sessions only —
        // a standalone executor never produces cache.* counters).
        const int64_t result_hits =
            report.stats.counters.Get("cache.result_hits");
        const int64_t result_misses =
            report.stats.counters.Get("cache.result_misses");
        if (result_hits > 0 || result_misses > 0) {
          line += "; result_cache: hits=" + std::to_string(result_hits) +
                  ", misses=" + std::to_string(result_misses);
        }
        // The plan of the statement that bound this dataset, same
        // nonzero-only contract: only operations the optimizer actually
        // planned (joins, ranges, counts, AUTO index builds with the
        // optimizer on) add the segment, so every other EXPLAIN stays
        // byte-identical.
        if (dataset.plan) {
          line += "; plan: " + optimizer::FormatDecision(*dataset.plan);
        }
        report.dump_output.push_back(std::move(line));
        break;
      }
      case Statement::Kind::kDump: {
        SHADOOP_ASSIGN_OR_RETURN(Dataset dataset,
                                 LookUp(stmt.target, stmt.line));
        if (dataset.kind == Dataset::Kind::kLines) {
          for (const std::string& line : dataset.lines) {
            report.dump_output.push_back(line);
          }
        } else {
          SHADOOP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                                   runner_->file_system()->ReadLines(
                                       dataset.path));
          for (std::string& line : lines) {
            report.dump_output.push_back(std::move(line));
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

Result<PreparedStatement> Executor::Prepare(const Statement& stmt) const {
  const Expr& expr = stmt.expr;
  PreparedStatement prepared;
  prepared.stmt = &stmt;
  prepared.plan_token = optimizer_on_ ? "default" : "legacy";
  if (expr.kind == Expr::Kind::kLoad || expr.kind == Expr::Kind::kAppend ||
      expr.kind == Expr::Kind::kLoadIndex) {
    return prepared;
  }
  SHADOOP_ASSIGN_OR_RETURN(Dataset source, LookUp(expr.source, expr.line));
  prepared.sources.push_back(std::move(source));
  if (expr.kind == Expr::Kind::kJoin || expr.kind == Expr::Kind::kKnnJoin) {
    SHADOOP_ASSIGN_OR_RETURN(Dataset right, LookUp(expr.source_b, expr.line));
    prepared.sources.push_back(std::move(right));
  }
  if (!optimizer_on_) return prepared;
  // Only operations over indexed inputs have costed alternatives.
  for (const Dataset& source : prepared.sources) {
    if (source.kind != Dataset::Kind::kIndexed) return prepared;
  }
  const index::SpatialFileInfo& info = *prepared.sources[0].info;
  if (expr.kind == Expr::Kind::kRange || expr.kind == Expr::Kind::kCount) {
    optimizer::RangePlan plan = optimizer::PlanRange(
        runner_->cluster(), info, expr.range,
        expr.kind == Expr::Kind::kRange ? "range" : "count");
    prepared.use_index = plan.use_index;
    prepared.plan = std::move(plan.decision);
  } else if (expr.kind == Expr::Kind::kJoin) {
    optimizer::JoinPlan plan = optimizer::PlanJoin(
        runner_->cluster(), info, *prepared.sources[1].info);
    prepared.join = plan.strategy;
    prepared.plan = std::move(plan.decision);
  }
  if (prepared.plan) prepared.plan_token = prepared.plan->chosen;
  return prepared;
}

Status Executor::Run(const PreparedStatement& prepared,
                     ExecutionReport* report) {
  const Statement& stmt = *prepared.stmt;
  Result<Dataset> dataset = Eval(prepared, report);
  if (!dataset.ok()) return AtLine(stmt.line, dataset.status());
  env_[stmt.target] = std::move(dataset).value();
  return Status::OK();
}

void Executor::EnsureAdmission() {
  if (admission_ == nullptr) {
    mapreduce::AdmissionOptions options;
    options.total_slots = runner_->cluster().num_slots;
    owned_admission_ =
        std::make_unique<mapreduce::AdmissionController>(options);
    admission_ = owned_admission_.get();
  }
  BindAdmission();
}

void Executor::BindAdmission() {
  if (admission_ != nullptr) runner_->set_admission(admission_, tenant_);
}

Result<Dataset> Executor::LookUp(const std::string& name, int line) const {
  auto it = env_.find(name);
  if (it == env_.end()) {
    return ErrorAt(line, "unknown dataset '" + name + "'");
  }
  // A SET snapshot_version override re-pins catalog-bound datasets at
  // lookup time, so one session knob retargets every subsequent query
  // without rebinding anything. snapshot_version 0 (explicitly set)
  // resolves to the catalog's latest version at every use, so sessions
  // can opt into fresh reads over a shared, still-ingesting dataset.
  if (!it->second.catalog_name.empty()) {
    uint64_t want = snapshot_version_;
    if (want == 0 && snapshot_follow_latest_) {
      auto latest = catalog_->LatestVersion(it->second.catalog_name);
      if (!latest.ok()) return AtLine(line, latest.status());
      want = latest.value();
    }
    if (want != 0 && it->second.version != want) {
      auto info = catalog_->Snapshot(it->second.catalog_name, want);
      if (!info.ok()) return AtLine(line, info.status());
      Dataset pinned = it->second;
      pinned.info = std::move(info).value();
      pinned.version = want;
      return pinned;
    }
  }
  return it->second;
}

Result<std::string> Executor::EnsureFile(const Dataset& dataset) {
  if (dataset.kind != Dataset::Kind::kLines) return dataset.path;
  const std::string path =
      "/.pigeon_tmp_" + temp_namespace_ + std::to_string(temp_counter_++);
  SHADOOP_RETURN_NOT_OK(
      runner_->file_system()->WriteLines(path, dataset.lines));
  return path;
}

Result<Dataset> Executor::Eval(const PreparedStatement& prepared,
                               ExecutionReport* report) {
  const Expr& expr = prepared.stmt->expr;
  const std::string& bind_name = prepared.stmt->target;
  core::OpStats* stats = &report->stats;
  switch (expr.kind) {
    case Expr::Kind::kLoad: {
      if (!runner_->file_system()->Exists(expr.path)) {
        return ErrorAt(expr.line, "no such file '" + expr.path + "'");
      }
      Dataset dataset;
      dataset.kind = Dataset::Kind::kFile;
      dataset.shape = expr.shape;
      dataset.path = expr.path;
      return dataset;
    }
    case Expr::Kind::kAppend: {
      auto it = env_.find(expr.source);
      if (it == env_.end()) {
        return ErrorAt(expr.line, "unknown dataset '" + expr.source + "'");
      }
      const Dataset& target = it->second;
      if (target.catalog_name.empty()) {
        return ErrorAt(expr.line,
                       "APPEND needs a catalog-registered dataset (INDEX or "
                       "LOADINDEX '" + expr.source + "' first)");
      }
      if (!runner_->file_system()->Exists(expr.path)) {
        return ErrorAt(expr.line, "no such file '" + expr.path + "'");
      }
      SHADOOP_ASSIGN_OR_RETURN(
          uint64_t version,
          catalog_->Append(target.catalog_name, expr.path, stats));
      // The binding `expr.source` keeps its pinned snapshot; the assigned
      // result sees the new version.
      SHADOOP_ASSIGN_OR_RETURN(index::SpatialFileInfo info,
                               catalog_->Snapshot(target.catalog_name, version));
      return CatalogDataset(target.catalog_name, version, std::move(info));
    }
    case Expr::Kind::kLoadIndex: {
      // A dataset persisted by the catalog (it has an "@current" pointer)
      // reattaches with its full version lineage; a plain indexed file
      // registers as version 1.
      Status opened = catalog_->Open(bind_name, expr.path);
      if (!opened.ok()) {
        return ErrorAt(expr.line, "cannot open index '" + expr.path +
                                      "': " + opened.ToString());
      }
      SHADOOP_ASSIGN_OR_RETURN(uint64_t version,
                               catalog_->LatestVersion(bind_name));
      SHADOOP_ASSIGN_OR_RETURN(index::SpatialFileInfo info,
                               catalog_->Snapshot(bind_name));
      return CatalogDataset(bind_name, version, std::move(info));
    }
    case Expr::Kind::kCount: {
      const Dataset& source = prepared.sources[0];
      SHADOOP_ASSIGN_OR_RETURN(
          int64_t count,
          Dispatch(
              source,
              [&](const index::SpatialFileInfo& info) {
                return core::RangeCountSpatial(runner_, info, expr.range,
                                               stats);
              },
              [&](const std::string& path) {
                return core::RangeCountHadoop(runner_, path, source.shape,
                                              expr.range, stats);
              },
              /*allow_spatial=*/prepared.use_index));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.lines = {std::to_string(count)};
      result.plan = prepared.plan;
      return result;
    }
    case Expr::Kind::kIndex: {
      const Dataset& source = prepared.sources[0];
      SHADOOP_ASSIGN_OR_RETURN(std::string source_path, EnsureFile(source));
      std::optional<optimizer::PlanDecision> decision;
      index::IndexBuildOptions options;
      options.scheme = expr.scheme;
      options.shape = source.shape;
      if (expr.auto_scheme && optimizer_on_) {
        // WITH AUTO: the advisor scores candidate (technique, granularity)
        // pairs on a deterministic sample of the source file. Master-side
        // work only — no job runs, no counter moves. With the optimizer
        // off, AUTO decays to the STR default the parser installed.
        Result<optimizer::IndexPlan> plan = optimizer::PlanIndexBuild(
            runner_->file_system(), source_path, source.shape);
        if (!plan.ok()) return AtLine(expr.line, plan.status());
        options.scheme = plan->scheme;
        options.target_partitions = plan->target_partitions;
        decision = std::move(plan->decision);
      }
      std::string dest = expr.path.empty()
                             ? source_path + ".idx_" +
                                   index::PartitionSchemeName(options.scheme)
                             : expr.path;
      // "str+" is not a valid path suffix everywhere; normalize.
      for (char& c : dest) {
        if (c == '+') c = 'p';
      }
      // Registered as version 1 of the binding, so the dataset is
      // appendable and snapshot-addressable.
      SHADOOP_ASSIGN_OR_RETURN(
          index::SpatialFileInfo info,
          catalog_->Create(bind_name, source_path, dest, options, stats));
      Dataset dataset = CatalogDataset(bind_name, 1, std::move(info));
      dataset.plan = std::move(decision);
      return dataset;
    }
    case Expr::Kind::kRange: {
      const Dataset& source = prepared.sources[0];
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.shape = source.shape;
      result.plan = prepared.plan;
      SHADOOP_ASSIGN_OR_RETURN(
          result.lines,
          Dispatch(
              source,
              [&](const index::SpatialFileInfo& info) {
                return core::RangeQuerySpatial(runner_, info, expr.range,
                                               stats);
              },
              [&](const std::string& path) {
                return core::RangeQueryHadoop(runner_, path, source.shape,
                                              expr.range, stats);
              },
              /*allow_spatial=*/prepared.use_index));
      return result;
    }
    case Expr::Kind::kKnn: {
      const Dataset& source = prepared.sources[0];
      SHADOOP_ASSIGN_OR_RETURN(
          std::vector<core::KnnAnswer> answers,
          Dispatch(
              source,
              [&](const index::SpatialFileInfo& info) {
                return core::KnnSpatial(runner_, info, expr.query, expr.k,
                                        stats);
              },
              [&](const std::string& path) {
                return core::KnnHadoop(runner_, path, source.shape, expr.query,
                                       expr.k, stats);
              }));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.shape = source.shape;
      for (const core::KnnAnswer& a : answers) result.lines.push_back(a.record);
      return result;
    }
    case Expr::Kind::kJoin: {
      const Dataset& left = prepared.sources[0];
      const Dataset& right = prepared.sources[1];
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.shape = left.shape;
      result.plan = prepared.plan;
      if (left.kind == Dataset::Kind::kIndexed &&
          right.kind == Dataset::Kind::kIndexed) {
        core::DjOptions dj_options;
        dj_options.build_right =
            prepared.join == optimizer::JoinStrategy::kDjBuildRight;
        if (prepared.join == optimizer::JoinStrategy::kSjmr) {
          SHADOOP_ASSIGN_OR_RETURN(
              result.lines,
              core::SjmrJoin(runner_, left.path, left.shape, right.path,
                             right.shape, stats));
        } else {
          SHADOOP_ASSIGN_OR_RETURN(
              result.lines, core::DistributedJoin(runner_, *left.info,
                                                  *right.info, stats,
                                                  dj_options));
        }
      } else {
        SHADOOP_ASSIGN_OR_RETURN(std::string left_path, EnsureFile(left));
        SHADOOP_ASSIGN_OR_RETURN(std::string right_path, EnsureFile(right));
        SHADOOP_ASSIGN_OR_RETURN(
            result.lines,
            core::SjmrJoin(runner_, left_path, left.shape, right_path,
                           right.shape, stats));
      }
      return result;
    }
    case Expr::Kind::kKnnJoin: {
      const Dataset& left = prepared.sources[0];
      const Dataset& right = prepared.sources[1];
      if (left.kind != Dataset::Kind::kIndexed ||
          right.kind != Dataset::Kind::kIndexed) {
        return ErrorAt(expr.line,
                       "KNNJOIN needs two indexed datasets (INDEX both "
                       "inputs first)");
      }
      SHADOOP_ASSIGN_OR_RETURN(
          std::vector<core::KnnJoinAnswer> answers,
          core::KnnJoinSpatial(runner_, *left.info, *right.info, expr.k,
                               stats));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.shape = left.shape;
      for (const core::KnnJoinAnswer& a : answers) {
        result.lines.push_back(a.left + std::string(1, core::kJoinSeparator) +
                               a.right);
      }
      return result;
    }
    case Expr::Kind::kSkyline: {
      const Dataset& source = prepared.sources[0];
      SHADOOP_ASSIGN_OR_RETURN(
          std::vector<Point> skyline,
          Dispatch(
              source,
              [&](const index::SpatialFileInfo& info) {
                return core::SkylineSpatial(runner_, info, stats);
              },
              [&](const std::string& path) {
                return core::SkylineHadoop(runner_, path, stats);
              }));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.lines = PointsToLines(skyline);
      return result;
    }
    case Expr::Kind::kConvexHull: {
      const Dataset& source = prepared.sources[0];
      SHADOOP_ASSIGN_OR_RETURN(
          std::vector<Point> hull,
          Dispatch(
              source,
              [&](const index::SpatialFileInfo& info) {
                return core::ConvexHullSpatial(runner_, info, stats);
              },
              [&](const std::string& path) {
                return core::ConvexHullHadoop(runner_, path, stats);
              }));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.lines = PointsToLines(hull);
      return result;
    }
    case Expr::Kind::kClosestPair: {
      const Dataset& source = prepared.sources[0];
      if (source.kind != Dataset::Kind::kIndexed) {
        return ErrorAt(expr.line,
                       "CLOSESTPAIR needs an indexed dataset (use INDEX "
                       "... WITH GRID/STR+/QUADTREE/KDTREE first)");
      }
      SHADOOP_ASSIGN_OR_RETURN(
          PointPair pair, core::ClosestPairSpatial(runner_, *source.info,
                                                   stats));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.lines = {PointToCsv(pair.first), PointToCsv(pair.second)};
      return result;
    }
    case Expr::Kind::kFarthestPair: {
      const Dataset& source = prepared.sources[0];
      SHADOOP_ASSIGN_OR_RETURN(
          PointPair pair,
          Dispatch(
              source,
              [&](const index::SpatialFileInfo& info) {
                return core::FarthestPairSpatial(runner_, info, stats);
              },
              [&](const std::string& path) {
                return core::FarthestPairHadoop(runner_, path, stats);
              }));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      result.lines = {PointToCsv(pair.first), PointToCsv(pair.second)};
      return result;
    }
    case Expr::Kind::kUnion: {
      const Dataset& source = prepared.sources[0];
      if (source.shape != index::ShapeType::kPolygon) {
        return ErrorAt(expr.line, "UNION needs a polygon dataset");
      }
      const bool disjoint = source.kind == Dataset::Kind::kIndexed &&
                            source.info->global_index.IsDisjoint();
      SHADOOP_ASSIGN_OR_RETURN(
          std::vector<Segment> segments,
          Dispatch(
              source,
              [&](const index::SpatialFileInfo& info) {
                return core::UnionSpatialEnhanced(runner_, info, stats);
              },
              [&](const std::string& path) {
                return core::UnionHadoop(runner_, path, stats);
              },
              /*allow_spatial=*/disjoint));
      Dataset result;
      result.kind = Dataset::Kind::kLines;
      for (const Segment& s : segments) {
        result.lines.push_back(core::SegmentToCsv(s));
      }
      return result;
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace shadoop::pigeon
