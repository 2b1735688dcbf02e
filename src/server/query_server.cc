#include "server/query_server.h"

#include <utility>

#include "core/query_normalizer.h"
#include "mapreduce/thread_pool.h"
#include "pigeon/parser.h"

namespace shadoop::server {
namespace {

mapreduce::AdmissionOptions AdmissionOptionsFor(const ServerOptions& options) {
  mapreduce::AdmissionOptions admission;
  admission.total_slots = options.cluster.num_slots;
  admission.seed = options.admission_seed;
  return admission;
}

bool IsCacheableExpr(pigeon::Expr::Kind kind) {
  switch (kind) {
    case pigeon::Expr::Kind::kCount:
    case pigeon::Expr::Kind::kRange:
    case pigeon::Expr::Kind::kKnn:
    case pigeon::Expr::Kind::kJoin:
    case pigeon::Expr::Kind::kKnnJoin:
    case pigeon::Expr::Kind::kSkyline:
    case pigeon::Expr::Kind::kConvexHull:
    case pigeon::Expr::Kind::kClosestPair:
    case pigeon::Expr::Kind::kFarthestPair:
    case pigeon::Expr::Kind::kUnion:
      return true;
    // Loads, appends and index builds mutate session or catalog state;
    // they must execute every time.
    case pigeon::Expr::Kind::kLoad:
    case pigeon::Expr::Kind::kAppend:
    case pigeon::Expr::Kind::kLoadIndex:
    case pigeon::Expr::Kind::kIndex:
      return false;
  }
  return false;
}

}  // namespace

QueryServer::QueryServer(hdfs::FileSystem* fs, ServerOptions options)
    : fs_(fs),
      options_(options),
      catalog_runner_(fs, options.cluster),
      catalog_(&catalog_runner_),
      admission_(AdmissionOptionsFor(options)),
      result_cache_(kResultCacheCapacity) {}

Status QueryServer::AttachDataset(const std::string& name,
                                  const std::string& data_path) {
  SHADOOP_RETURN_NOT_OK(catalog_.Open(name, data_path));
  MutexLock lock(&mu_);
  attached_.push_back(name);
  return Status::OK();
}

Result<SessionId> QueryServer::OpenSession(const std::string& tenant,
                                           int tenant_slots) {
  auto session = std::make_unique<Session>();
  session->tenant = tenant;
  session->runner =
      std::make_unique<mapreduce::JobRunner>(fs_, options_.cluster);
  session->executor =
      std::make_unique<pigeon::Executor>(session->runner.get(), &catalog_);
  if (!tenant.empty()) {
    if (tenant_slots > 0) admission_.SetTenantSlots(tenant, tenant_slots);
    // Share the server's controller, then bind the tenant through the
    // normal SET path so the session is indistinguishable from one that
    // scripted its own knobs.
    session->executor->set_admission_controller(&admission_);
    SHADOOP_RETURN_NOT_OK(session->executor->ExecuteInto(
        "SET tenant '" + tenant + "';", &session->report));
  }

  MutexLock lock(&mu_);
  const SessionId id = static_cast<SessionId>(sessions_.size());
  // Concurrent sessions share one file system; a unique temp namespace
  // keeps their materialized intermediates from colliding.
  session->executor->set_temp_namespace("s" + std::to_string(id) + "_");
  // Pre-bind every attached dataset at its current latest version: the
  // session reads that snapshot until it re-pins (`SET snapshot_version`)
  // or rebinds, no matter how much ingest lands later.
  for (const std::string& name : attached_) {
    SHADOOP_ASSIGN_OR_RETURN(uint64_t latest, catalog_.LatestVersion(name));
    SHADOOP_ASSIGN_OR_RETURN(index::SpatialFileInfo info,
                             catalog_.Snapshot(name, latest));
    session->executor->Bind(
        name, pigeon::CatalogDataset(name, latest, std::move(info)));
  }
  sessions_.push_back(std::move(session));
  return id;
}

QueryServer::Session* QueryServer::FindSession(SessionId session) const {
  MutexLock lock(&mu_);
  if (session < 0 || static_cast<size_t>(session) >= sessions_.size()) {
    return nullptr;
  }
  return sessions_[static_cast<size_t>(session)].get();
}

Result<RequestResult> QueryServer::Execute(SessionId session,
                                           std::string_view script) {
  Session* s = FindSession(session);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session));
  }
  MutexLock lock(&s->mu);
  SHADOOP_ASSIGN_OR_RETURN(pigeon::Script statements, pigeon::Parse(script));
  RequestResult out;
  Status status;
  for (const pigeon::Statement& stmt : statements) {
    status = ExecuteSessionStatement(*s, stmt, &out);
    if (!status.ok()) break;
  }
  // The request's DUMP and EXPLAIN rows leave the session with it; a
  // failed request's partial rows are dropped.
  out.rows = std::exchange(s->report.dump_output, {});
  SHADOOP_RETURN_NOT_OK(status);
  // Modeled end-to-end latency of the request: simulated cluster time of
  // its jobs plus simulated admission queueing.
  out.sim_latency_ms = out.cost.total_ms + out.cost.admission_wait_ms;
  return out;
}

Result<std::vector<std::vector<RequestResult>>> QueryServer::ExecuteConcurrent(
    const std::vector<SessionStream>& streams) {
  std::vector<std::vector<RequestResult>> results(streams.size());
  std::vector<Status> statuses(streams.size(), Status::OK());
  // One lane per stream; scripts stay sequential within their stream.
  // The streams' jobs queue their own tasks behind the streams and get
  // whatever lanes are free, which changes nothing deterministic: all
  // charges are simulated.
  mapreduce::ParallelFor(
      streams.size(), static_cast<int>(streams.size()), [&](size_t i) {
        for (const std::string& script : streams[i].scripts) {
          Result<RequestResult> request = Execute(streams[i].session, script);
          if (!request.ok()) {
            statuses[i] = request.status();
            return;
          }
          results[i].push_back(std::move(request).value());
        }
      });
  for (const Status& status : statuses) {
    SHADOOP_RETURN_NOT_OK(status);
  }
  return results;
}

Result<const pigeon::ExecutionReport*> QueryServer::SessionReport(
    SessionId session) const {
  Session* s = FindSession(session);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(session));
  }
  return const_cast<const pigeon::ExecutionReport*>(&s->report);
}

Status QueryServer::ExecuteSessionStatement(Session& session,
                                            const pigeon::Statement& stmt,
                                            RequestResult* request) {
  // Only assignments run jobs; every other statement charges nothing.
  if (stmt.kind != pigeon::Statement::Kind::kAssign) {
    return session.executor->ExecuteStatement(stmt, &session.report);
  }
  SHADOOP_ASSIGN_OR_RETURN(pigeon::PreparedStatement prepared,
                           session.executor->Prepare(stmt));
  std::string key;
  const bool cacheable = options_.enable_result_cache &&
                         session.runner->fault_injector() == nullptr &&
                         BuildCacheKey(session, prepared, &key);
  core::OpStats charges;
  Status status;
  std::shared_ptr<const CachedResult> hit =
      cacheable ? result_cache_.Lookup(key) : nullptr;
  if (hit != nullptr) {
    // Replay the stored execution: bind the rows with the prepared plan,
    // charge what the producing run paid, and queue its jobs on this
    // tenant's admission ledger as a miss would have. A hit is then
    // byte-identical to a miss in rows, cost, counters and EXPLAIN plan.
    pigeon::Dataset dataset;
    dataset.kind = pigeon::Dataset::Kind::kLines;
    dataset.shape = hit->shape;
    dataset.lines = hit->lines;
    dataset.plan = std::move(prepared.plan);
    session.executor->Bind(stmt.target, std::move(dataset));
    charges.cost = hit->cost;
    charges.counters = hit->counters;
    charges.jobs_run = hit->jobs_run;
    mapreduce::AdmissionController* admission =
        session.runner->admission_controller();
    if (admission != nullptr) {
      for (double job_ms : hit->job_ms) {
        mapreduce::ChargeAdmissionWait(
            admission->ChargeLedger(session.runner->tenant(), job_ms),
            &charges.cost, &charges.counters);
      }
    }
    session.report.stats.counters.Increment("cache.result_hits");
    ++request->result_cache_hits;
  } else {
    // The statement runs into its own report, so its charges are summed
    // from zero: exact, whatever the session ran before.
    pigeon::ExecutionReport statement;
    status = session.executor->Run(prepared, &statement);
    charges = std::move(statement.stats);
    if (status.ok() && cacheable) {
      const auto& env = session.executor->environment();
      const auto it = env.find(stmt.target);
      if (it != env.end() &&
          it->second.kind == pigeon::Dataset::Kind::kLines) {
        auto entry = std::make_shared<CachedResult>();
        entry->lines = it->second.lines;
        entry->shape = it->second.shape;
        entry->cost = charges.cost;
        entry->cost.admission_queued = 0;
        entry->cost.admission_wait_ms = 0;
        for (const auto& [name, value] : charges.counters.values()) {
          if (name != "admission.queued" && name != "admission.wait_ms") {
            entry->counters.Increment(name, value);
          }
        }
        entry->jobs_run = charges.jobs_run;
        entry->job_ms = charges.job_ms;
        result_cache_.Insert(key, std::move(entry));
      }
      session.report.stats.counters.Increment("cache.result_misses");
      ++request->result_cache_misses;
    }
  }
  // A failed statement still charges the jobs it ran. The session keeps
  // the sums EXPLAIN reads, not the per-job list.
  charges.job_ms.clear();
  session.report.stats += charges;
  request->cost += charges.cost;
  return status;
}

bool QueryServer::BuildCacheKey(const Session& session,
                                const pigeon::PreparedStatement& prepared,
                                std::string* key) const {
  const pigeon::Statement& stmt = *prepared.stmt;
  if (!IsCacheableExpr(stmt.expr.kind)) return false;
  // Every source must be an indexed dataset pinned in the catalog —
  // those are the shared, versioned, immutable inputs the cache key can
  // name. Session-local results (kLines) and raw files stay uncached.
  std::string sources;
  for (const pigeon::Dataset& source : prepared.sources) {
    if (source.kind != pigeon::Dataset::Kind::kIndexed ||
        source.catalog_name.empty()) {
      return false;
    }
    sources +=
        "|" + source.catalog_name + "@v" + std::to_string(source.version);
  }
  // Key on the expression only (text after the '='), so two sessions
  // assigning the same query to different names share an entry.
  const size_t eq = stmt.text.find('=');
  if (eq == std::string::npos) return false;
  const std::string normalized = core::NormalizeQueryText(
      std::string_view(stmt.text).substr(eq + 1));
  // Charges depend on the tenant's lane share under admission (an
  // admitted job is costed with its share), so sessions with different
  // shares must not exchange entries.
  std::string lanes = "all";
  if (session.executor->admission_controller() != nullptr) {
    lanes = std::to_string(
        session.executor->admission_controller()->LaneShare(session.tenant));
  }
  // The plan token makes plan changes invalidate structurally: a session
  // with the optimizer off ("legacy") or an optimizer that picks a
  // different strategy (new stats, different snapshot) never reuses an
  // entry whose rows/charges came from another physical plan.
  *key = normalized + sources + "|lanes=" + lanes +
         "|plan=" + prepared.plan_token;
  return true;
}

}  // namespace shadoop::server
