#include "mapreduce/admission_controller.h"

#include <algorithm>
#include <limits>

namespace shadoop::mapreduce {
namespace {

/// FNV-1a of (seed, tenant): the seeded tie-break order of the lane
/// split. Stable across platforms, unlike std::hash.
uint64_t TieBreakHash(uint64_t seed, std::string_view tenant) {
  uint64_t hash = 14695981039346656037ULL ^ (seed * 1099511628211ULL);
  for (char c : tenant) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  options_.total_slots = std::max(1, options_.total_slots);
}

std::map<std::string, int> AdmissionController::ComputeLaneShares(
    int total, const std::map<std::string, int>& weights, uint64_t seed) {
  total = std::max(1, total);
  // Tenants in deterministic tie-break order: seeded hash first, name as
  // the final tie-break so equal hashes cannot reorder across runs.
  struct Entry {
    std::string tenant;
    int weight;
    uint64_t hash;
  };
  std::vector<Entry> entries;
  int64_t weight_sum = 0;
  for (const auto& [tenant, weight] : weights) {
    if (weight <= 0) continue;
    entries.push_back({tenant, weight, TieBreakHash(seed, tenant)});
    weight_sum += weight;
  }
  std::map<std::string, int> shares;
  if (entries.empty()) return shares;

  // Largest-remainder apportionment of `total` lanes by weight.
  struct Alloc {
    const Entry* entry;
    int lanes;
    int64_t remainder;  // weight*total - lanes*weight_sum, scaled units.
  };
  std::vector<Alloc> allocs;
  int assigned = 0;
  for (const Entry& e : entries) {
    const int64_t scaled = static_cast<int64_t>(e.weight) * total;
    const int lanes = static_cast<int>(scaled / weight_sum);
    allocs.push_back({&e, lanes, scaled % weight_sum});
    assigned += lanes;
  }
  std::sort(allocs.begin(), allocs.end(), [](const Alloc& a, const Alloc& b) {
    if (a.remainder != b.remainder) return a.remainder > b.remainder;
    if (a.entry->hash != b.entry->hash) return a.entry->hash < b.entry->hash;
    return a.entry->tenant < b.entry->tenant;
  });
  for (size_t i = 0; i < allocs.size() && assigned < total; ++i, ++assigned) {
    ++allocs[i].lanes;
  }

  // Every weighted tenant keeps at least one lane while lanes remain:
  // zero-lane tenants (tiny weights) take from the largest shares, in
  // the same deterministic order.
  auto largest = [&]() -> Alloc* {
    Alloc* best = nullptr;
    for (Alloc& a : allocs) {
      if (a.lanes > 1 && (best == nullptr || a.lanes > best->lanes)) best = &a;
    }
    return best;
  };
  for (Alloc& a : allocs) {
    if (a.lanes > 0) continue;
    Alloc* donor = largest();
    if (donor == nullptr) break;
    --donor->lanes;
    a.lanes = 1;
  }

  for (const Alloc& a : allocs) shares[a.entry->tenant] = a.lanes;
  return shares;
}

std::map<std::string, int> AdmissionController::CurrentLaneSharesLocked()
    const {
  std::map<std::string, int> weights;
  for (const auto& [name, tenant] : tenants_) {
    const int quota = QuotaOf(tenant);
    if (quota > 0) weights[name] = quota;
  }
  return ComputeLaneShares(options_.total_slots, weights, options_.seed);
}

void AdmissionController::SetTenantSlots(const std::string& tenant,
                                         int slots) {
  MutexLock lock(&mu_);
  tenants_[tenant].slots = std::max(0, slots);
  // A raised quota may unblock queued jobs.
  admit_cv_.notify_all();
}

int AdmissionController::TenantSlots(const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? options_.total_slots : QuotaOf(it->second);
}

int AdmissionController::LaneShare(const std::string& tenant) const {
  MutexLock lock(&mu_);
  std::map<std::string, int> shares = CurrentLaneSharesLocked();
  auto it = shares.find(tenant);
  if (it != shares.end()) return it->second;
  // Unknown tenant: the share it would get if admitted now with the
  // default quota. With no other tenants that is the whole cluster.
  return shares.empty() ? options_.total_slots
                        : std::max(1, options_.total_slots /
                                          static_cast<int>(shares.size() + 1));
}

Result<std::unique_ptr<AdmissionController::JobTicket>>
AdmissionController::AdmitJob(const std::string& tenant) {
  MutexLock lock(&mu_);
  Tenant& t = tenants_[tenant];
  if (QuotaOf(t) == 0) {
    return Status::ResourceExhausted(
        "tenant '" + tenant +
        "' has a zero admission quota; SET tenant_slots to a positive "
        "value to run jobs");
  }

  // FIFO within the tenant: tickets are served strictly in issue order,
  // and only while the tenant has a free job slot. Other tenants' queues
  // are independent — their backlog never delays this admission.
  const uint64_t seq = t.next_seq++;
  ++t.waiting_jobs;
  // Explicit wait loop so the guarded tenant state is accessed in a scope
  // the thread-safety analysis can see holds mu_ (a predicate lambda
  // would hide it).
  while (!(seq == t.admit_seq && t.running_jobs < QuotaOf(t))) {
    admit_cv_.wait(lock.native());
  }
  --t.waiting_jobs;
  ++t.admit_seq;
  ++t.running_jobs;

  const size_t lane = LeastLoadedLaneLocked(t);
  const double wait_ms = t.sim_lanes[lane];

  auto ticket = std::unique_ptr<JobTicket>(new JobTicket());
  ticket->tenant_ = tenant;
  ticket->sim_wait_ms_ = wait_ms;
  ticket->sim_lane_ = lane;
  std::map<std::string, int> shares = CurrentLaneSharesLocked();
  auto share_it = shares.find(tenant);
  ticket->lane_share_ = share_it != shares.end()
                            ? share_it->second
                            : options_.total_slots;

  ++t.stats.jobs_admitted;
  if (wait_ms > 0) ++t.stats.jobs_queued;
  t.stats.wait_ms += wait_ms;
  return ticket;
}

size_t AdmissionController::LeastLoadedLaneLocked(Tenant& t) {
  // Simulated queue wait: the tenant's jobs are modeled as arriving
  // together and draining through `quota` lanes, greedily assigned to
  // the least-loaded lane (the Makespan model, per tenant). The wait is
  // that lane's backlog — a pure function of the tenant's own job order
  // and simulated job costs, independent of wall-clock races and of
  // every other tenant.
  const size_t sim_lanes = static_cast<size_t>(
      std::max(1, std::min(QuotaOf(t), options_.total_slots)));
  t.sim_lanes.resize(sim_lanes, 0.0);
  size_t lane = 0;
  for (size_t i = 1; i < t.sim_lanes.size(); ++i) {
    if (t.sim_lanes[i] < t.sim_lanes[lane]) lane = i;
  }
  return lane;
}

double AdmissionController::ChargeLedger(const std::string& tenant,
                                         double sim_cost_ms) {
  MutexLock lock(&mu_);
  Tenant& t = tenants_[tenant];
  const size_t lane = LeastLoadedLaneLocked(t);
  const double wait_ms = t.sim_lanes[lane];
  t.sim_lanes[lane] += std::max(0.0, sim_cost_ms);
  return wait_ms;
}

void AdmissionController::ReleaseJob(JobTicket* ticket, double sim_cost_ms) {
  if (ticket == nullptr) return;
  MutexLock lock(&mu_);
  Tenant& t = tenants_[ticket->tenant_];
  if (ticket->sim_lane_ < t.sim_lanes.size()) {
    t.sim_lanes[ticket->sim_lane_] += std::max(0.0, sim_cost_ms);
  }
  t.running_jobs = std::max(0, t.running_jobs - 1);
  admit_cv_.notify_all();
}

TenantStats AdmissionController::StatsFor(const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

int AdmissionController::QueuedJobs(const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.waiting_jobs;
}

int AdmissionController::RunningJobs(const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.running_jobs;
}

}  // namespace shadoop::mapreduce
