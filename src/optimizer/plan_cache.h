// Template-keyed plan cache (ROADMAP item 2; AQO's fss idea).
//
// Serving workloads are dominated by parameterized variants of a small set
// of query templates, yet every admitted query pays full DP enumeration
// (T_P) and a fresh estimate pool (T_I). This cache keys the planner's
// output on a template fingerprint (query/fingerprint.h): on a hit the
// engine skips planning entirely, rebinding the cached plan skeleton's scan
// filters to the new literals, so T_P + T_I collapse to a lookup plus a
// clone. No estimates are cached: a hit that trips re-optimization prepares
// the estimator then.
//
// Correctness rests on the fingerprint's bit-identity contract: equal
// canonical keys guarantee the estimator would produce bitwise-identical
// estimates for every subset, and the DP planner is deterministic given its
// estimates, so the served skeleton is exactly the plan fresh planning
// would have built. The coarse `fss_hash` only groups entries for metrics
// and traces; the exact canonical key is what the map is keyed on, so
// distinct templates can never collide.
//
// Thread-safe (one mutex; entries are cloned out, never shared), capacity-
// bounded with LRU eviction, and epoch-invalidated: Invalidate() empties
// the cache and bumps the epoch, and an Insert staged against an older
// epoch is dropped — a worker that planned against pre-bump statistics can
// never publish a stale skeleton.
#ifndef LPCE_OPTIMIZER_PLAN_CACHE_H_
#define LPCE_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "card/estimator.h"
#include "exec/plan.h"
#include "query/fingerprint.h"
#include "query/query.h"

namespace lpce::opt {

/// Monotonic counters snapshot (per cache instance; the lpce.plancache.*
/// global metrics aggregate across instances).
struct PlanCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  size_t size = 0;
};

class PlanCache {
 public:
  /// `capacity` > 0: maximum resident entries (LRU-evicted beyond that).
  explicit PlanCache(size_t capacity);

  /// Fingerprints `query` for this cache, delegating per-predicate
  /// signatures to `estimator` (whose name also salts the key, so a cache
  /// shared across estimator kinds never cross-serves).
  static qry::TemplateFingerprint Fingerprint(
      const qry::Query& query, const card::CardinalityEstimator& estimator);

  struct LookupOutcome {
    /// Rebound plan skeleton on hit (scan filters already rebound to the
    /// query's literals), nullptr on miss.
    std::unique_ptr<exec::PlanNode> plan;
    /// Epoch observed at lookup; pass to Insert after a miss so a
    /// concurrent Invalidate drops the stale insert.
    uint64_t epoch = 0;

    bool hit() const { return plan != nullptr; }
  };

  /// On hit, returns a deep copy of the cached skeleton with every scan's
  /// filters rebound to `query`'s predicates; bumps the entry to
  /// most-recently-used. On miss, returns plan == nullptr and the
  /// current epoch.
  LookupOutcome Lookup(const qry::TemplateFingerprint& fp,
                       const qry::Query& query);

  /// Stores a clone of `plan` (an initial plan: no pseudo scans) under `fp`,
  /// evicting the LRU entry if at capacity. Dropped silently if `epoch` is
  /// stale (an Invalidate ran since the lookup) or the key is already
  /// present (a concurrent worker won the race).
  void Insert(const qry::TemplateFingerprint& fp, uint64_t epoch,
              const exec::PlanNode& plan);

  /// Empties the cache and bumps the epoch — call on a statistics rebuild
  /// or model version bump; in-flight inserts against the old epoch are
  /// dropped when they arrive.
  void Invalidate();

  PlanCacheCounters counters() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::unique_ptr<exec::PlanNode> plan;  // skeleton (literal-free template)
    uint64_t fss_hash = 0;
    std::list<std::string>::iterator lru_pos;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;  // canonical key -> entry
  std::list<std::string> lru_;                      // front = most recent
  uint64_t epoch_ = 0;
  PlanCacheCounters counters_;
};

}  // namespace lpce::opt

#endif  // LPCE_OPTIMIZER_PLAN_CACHE_H_
