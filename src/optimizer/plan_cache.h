// Template-keyed plan cache (ROADMAP item 2; AQO's fss idea).
//
// Serving workloads are dominated by parameterized variants of a small set
// of query templates, yet every admitted query pays full DP enumeration
// (T_P) and a fresh estimate pool (T_I). This cache keys the planner's
// output on a template fingerprint (query/fingerprint.h): on a hit the
// engine skips planning entirely, rebinding the cached plan skeleton's scan
// filters to the new literals, so T_P + T_I collapse to a lookup plus a
// clone. No estimates are cached.
//
// Correctness rests on the fingerprint's bit-identity contract: equal
// canonical keys guarantee the estimator would produce bitwise-identical
// estimates for every subset, and the DP planner is deterministic given its
// estimates, so the served skeleton is exactly the plan fresh planning would
// have built. The coarse `fss_hash` only groups entries for metrics and
// traces; the exact canonical key is what the map is keyed on, so distinct
// templates can never collide.
//
// Replayed re-optimization rounds. Each entry also keeps the re-optimization
// rounds of the last query that re-optimized under it (ReoptChain). A round's
// plan and decision are a deterministic function of five inputs: the query
// (literals included), the refiner's model, the ordered observations
// reported since the query began, the plan units, and
// RunConfig::consider_restart. Within one cache epoch the model is fixed —
// every registry publish invalidates the cache — and a cache belongs to one
// server's planner: one cost model, and one refiner kind (the key names only
// the initial estimator). So when the exact
// query repeats and round k reports the same observations and units as the
// recorded round k (every earlier round having matched too), the recorded
// plan is the one live re-planning would choose, and the engine replays it
// instead of running the refiner's round pass and both DP searches. This
// holds only if the re-planning estimator answers as a function of the
// query and the observations since ResetObservations, never of queries that
// ran before: the histogram, LPCE-I and LPCE-R estimators do (their
// per-query caches are keyed on the whole query).
//
// Thread-safe (one mutex; plans are cloned out, round chains are immutable
// and shared), capacity-bounded with LRU eviction — a chain lives and dies
// with its entry, at most one chain of at most RunConfig::max_reopts rounds
// per entry — and epoch-invalidated: Invalidate() empties the cache and
// bumps the epoch, and an Insert or RecordRounds staged against an older
// epoch is dropped — a worker that planned against pre-bump statistics or
// models can never publish a stale skeleton or round.
#ifndef LPCE_OPTIMIZER_PLAN_CACHE_H_
#define LPCE_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "card/estimator.h"
#include "exec/plan.h"
#include "optimizer/planner.h"
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

/// One re-optimization round as Engine::RunQuery ran it: its inputs (the
/// observations it reported and the plan units it planned over) and its
/// output (the adopted plan and the decision).
struct ReoptRound {
  /// (relation set, actual rows) in ObserveActual order.
  using Observations = std::vector<std::pair<qry::RelSet, double>>;
  Observations observations;
  /// (relation set, known rows) per plan unit, in planning order; known
  /// rows are -1 for a base table.
  std::vector<std::pair<qry::RelSet, double>> units;
  /// The adopted plan. Pseudo leaves are keyed by relation set and hold no
  /// RowSet, so the cache never keeps a query's intermediates alive.
  std::shared_ptr<const exec::PlanNode> plan;
  size_t num_estimates = 0;
  bool restarted = false;

  /// Records `units` as this round's unit inputs.
  void SetUnits(const std::vector<PlanUnit>& units);
  /// True when a round reporting `observations` over `units` has exactly
  /// this round's inputs.
  bool Matches(const Observations& observations,
               const std::vector<PlanUnit>& units) const;
  /// A clone of `plan` whose pseudo leaves read the materialized unit of
  /// the same relation set from `units`.
  std::unique_ptr<exec::PlanNode> Bind(const std::vector<PlanUnit>& units) const;
};

/// The re-optimization rounds of one run of an exact query.
struct ReoptChain {
  qry::Query query;
  bool consider_restart = true;
  std::vector<ReoptRound> rounds;
};

/// Clone of `plan` with every pseudo leaf's RowSet dropped.
std::shared_ptr<const exec::PlanNode> PlanSkeleton(const exec::PlanNode& plan);

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
    /// Epoch observed at lookup; pass to Insert and RecordRounds so a
    /// concurrent Invalidate drops the stale write.
    uint64_t epoch = 0;
    /// On hit, the rounds last recorded under the entry (nullptr if none).
    std::shared_ptr<const ReoptChain> rounds;

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

  /// Replaces the round chain of `fp`'s entry. Dropped silently if `epoch`
  /// is stale or the entry is gone (evicted or invalidated).
  void RecordRounds(const qry::TemplateFingerprint& fp, uint64_t epoch,
                    std::shared_ptr<const ReoptChain> rounds);

  /// Empties the cache and bumps the epoch — call on a statistics rebuild
  /// or model version bump; in-flight inserts against the old epoch are
  /// dropped when they arrive.
  void Invalidate();

  PlanCacheCounters counters() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::unique_ptr<exec::PlanNode> plan;  // skeleton (literal-free template)
    std::shared_ptr<const ReoptChain> rounds;
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
