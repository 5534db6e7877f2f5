#include "optimizer/plan_cache.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"

namespace lpce::opt {

namespace {

/// Rebinds a cached skeleton's scan filters to the incoming query's
/// literals. The template fingerprint guarantees both queries have the same
/// predicate (column, op) shape, so PredicatesOf returns the same filters
/// modulo literal values — exactly what the scans must apply.
void RebindFilters(exec::PlanNode* node, const qry::Query& query) {
  if (node == nullptr) return;
  if (node->op == exec::PhysOp::kSeqScan ||
      node->op == exec::PhysOp::kIndexScan) {
    node->filters = query.PredicatesOf(node->table_pos);
  }
  RebindFilters(node->outer.get(), query);
  RebindFilters(node->inner.get(), query);
}

void DropPseudoRows(exec::PlanNode* node) {
  if (node == nullptr) return;
  node->pseudo = nullptr;
  DropPseudoRows(node->outer.get());
  DropPseudoRows(node->inner.get());
}

void BindPseudoRows(exec::PlanNode* node, const std::vector<PlanUnit>& units) {
  if (node == nullptr) return;
  if (node->op == exec::PhysOp::kPseudoScan) {
    for (const PlanUnit& unit : units) {
      if (unit.rels == node->rels) {
        node->pseudo = unit.materialized;
        break;
      }
    }
    LPCE_CHECK_MSG(node->pseudo != nullptr,
                   "replayed pseudo leaf has no materialized unit");
  }
  BindPseudoRows(node->outer.get(), units);
  BindPseudoRows(node->inner.get(), units);
}

bool HasPseudoScan(const exec::PlanNode& node) {
  if (node.op == exec::PhysOp::kPseudoScan) return true;
  return (node.outer != nullptr && HasPseudoScan(*node.outer)) ||
         (node.inner != nullptr && HasPseudoScan(*node.inner));
}

struct CacheMetrics {
  common::Counter* hits;
  common::Counter* misses;
  common::Counter* inserts;
  common::Counter* evictions;
  common::Counter* invalidations;
  common::Gauge* size;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      auto& reg = common::MetricsRegistry::Global();
      CacheMetrics out;
      out.hits = reg.counter("lpce.plancache.hits_total");
      out.misses = reg.counter("lpce.plancache.misses_total");
      out.inserts = reg.counter("lpce.plancache.inserts_total");
      out.evictions = reg.counter("lpce.plancache.evictions_total");
      out.invalidations = reg.counter("lpce.plancache.invalidations_total");
      out.size = reg.gauge("lpce.plancache.size");
      return out;
    }();
    return m;
  }
};

}  // namespace

void ReoptRound::SetUnits(const std::vector<PlanUnit>& planned) {
  units.clear();
  units.reserve(planned.size());
  for (const PlanUnit& unit : planned) {
    units.emplace_back(unit.rels, unit.known_card);
  }
}

bool ReoptRound::Matches(const Observations& observed,
                         const std::vector<PlanUnit>& planned) const {
  if (observed != observations || planned.size() != units.size()) {
    return false;
  }
  for (size_t i = 0; i < planned.size(); ++i) {
    if (planned[i].rels != units[i].first ||
        planned[i].known_card != units[i].second) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<exec::PlanNode> ReoptRound::Bind(
    const std::vector<PlanUnit>& planned) const {
  std::unique_ptr<exec::PlanNode> bound = plan->Clone();
  BindPseudoRows(bound.get(), planned);
  return bound;
}

std::shared_ptr<const exec::PlanNode> PlanSkeleton(const exec::PlanNode& plan) {
  std::shared_ptr<exec::PlanNode> skeleton = plan.Clone();
  DropPseudoRows(skeleton.get());
  return skeleton;
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  LPCE_CHECK_MSG(capacity_ > 0, "plan cache capacity must be positive");
}

qry::TemplateFingerprint PlanCache::Fingerprint(
    const qry::Query& query, const card::CardinalityEstimator& estimator) {
  std::vector<qry::PredicateSignature> signatures;
  signatures.reserve(query.predicates.size());
  for (const auto& pred : query.predicates) {
    signatures.push_back(estimator.FingerprintPredicate(query, pred));
  }
  return qry::ComputeTemplateFingerprint(query, estimator.name(), signatures);
}

PlanCache::LookupOutcome PlanCache::Lookup(const qry::TemplateFingerprint& fp,
                                           const qry::Query& query) {
  LookupOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    outcome.epoch = epoch_;
    auto it = entries_.find(fp.canonical);
    if (it == entries_.end()) {
      ++counters_.misses;
    } else {
      ++counters_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      outcome.plan = it->second.plan->Clone();
      outcome.rounds = it->second.rounds;
    }
  }
  if (outcome.plan != nullptr) {
    RebindFilters(outcome.plan.get(), query);
    CacheMetrics::Get().hits->Increment();
  } else {
    CacheMetrics::Get().misses->Increment();
  }
  return outcome;
}

void PlanCache::Insert(const qry::TemplateFingerprint& fp, uint64_t epoch,
                       const exec::PlanNode& plan) {
  LPCE_CHECK_MSG(!HasPseudoScan(plan),
                 "only initial plans are cacheable (no pseudo scans)");
  std::unique_ptr<exec::PlanNode> skeleton = plan.Clone();
  bool inserted = false;
  bool evicted = false;
  size_t size_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A stale epoch means Invalidate ran between this worker's lookup and
    // now: the plan was built against old statistics and must not be
    // published. A present key means a concurrent worker already inserted
    // the same template; first writer wins.
    if (epoch == epoch_ && entries_.find(fp.canonical) == entries_.end()) {
      if (entries_.size() >= capacity_) {
        const std::string& victim = lru_.back();
        entries_.erase(victim);
        lru_.pop_back();
        ++counters_.evictions;
        evicted = true;
      }
      lru_.push_front(fp.canonical);
      Entry entry;
      entry.plan = std::move(skeleton);
      entry.fss_hash = fp.fss_hash;
      entry.lru_pos = lru_.begin();
      entries_.emplace(fp.canonical, std::move(entry));
      ++counters_.inserts;
      inserted = true;
    }
    size_after = entries_.size();
  }
  if (inserted) {
    CacheMetrics::Get().inserts->Increment();
    CacheMetrics::Get().size->Set(static_cast<double>(size_after));
  }
  if (evicted) CacheMetrics::Get().evictions->Increment();
}

void PlanCache::RecordRounds(const qry::TemplateFingerprint& fp,
                             uint64_t epoch,
                             std::shared_ptr<const ReoptChain> rounds) {
  std::shared_ptr<const ReoptChain> replaced;  // released outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != epoch_) return;
  auto it = entries_.find(fp.canonical);
  if (it == entries_.end()) return;
  replaced = std::exchange(it->second.rounds, std::move(rounds));
}

void PlanCache::Invalidate() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    ++epoch_;
    ++counters_.invalidations;
    counters_.size = 0;
  }
  CacheMetrics::Get().invalidations->Increment();
  CacheMetrics::Get().size->Set(0.0);
}

PlanCacheCounters PlanCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheCounters out = counters_;
  out.size = entries_.size();
  return out;
}

}  // namespace lpce::opt
