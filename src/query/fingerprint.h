// Template fingerprinting for the plan cache (AQO-style fss).
//
// Millions of users mostly issue parameterized variants of a few hundred
// query templates. Two fingerprints canonicalize a query for template-keyed
// reuse (optimizer/plan_cache.h):
//
//   - `fss_hash`: the coarse feature-subspace group key, AQO's
//     get_fss_for_object idea — a 64-bit hash of the query's join graph
//     (ordered tables + join edges), the predicate (column, op) clause set,
//     and a *log-scale selectivity bucket* per predicate. Literal values are
//     deliberately ignored, so parameterized variants of one template
//     collide into the same group.
//   - `canonical`: the exact cache key. Structure as above, plus each
//     predicate's estimator-supplied exact signature
//     (card::CardinalityEstimator::FingerprintPredicate) and the estimator
//     name. Equal canonical keys guarantee the estimator produces bitwise-
//     identical estimates for every subset, which in turn makes the cached
//     plan skeleton bitwise-identical to what fresh planning would build —
//     the property the cache's bit-identity contract rests on.
//
// For the histogram estimator the exact signature is the predicate's bitwise
// selectivity, so e.g. equality lookups on distinct non-MCV values (the
// classic `user_id = ?` template) hit the cache despite different literals.
#ifndef LPCE_QUERY_FINGERPRINT_H_
#define LPCE_QUERY_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"

namespace lpce::qry {

/// splitmix64 finalizer: content-only 64-bit mixing (no pointers, no seeds
/// derived from process state), so hashes are identical across runs and
/// machines — traces that embed them stay deterministic.
uint64_t Mix64(uint64_t x);

/// Order-dependent combine: seed' = mix(seed ^ mix(v)).
uint64_t HashCombine(uint64_t seed, uint64_t v);

/// What one predicate contributes to the two fingerprints, supplied by the
/// estimator that will consume the cached plan (see
/// card::CardinalityEstimator::FingerprintPredicate).
struct PredicateSignature {
  /// Exact component: equality is required for a cache hit. Two predicates
  /// with the same (column, op) and equal `exact` must yield bitwise-
  /// identical estimates from the estimator that produced the signature.
  uint64_t exact = 0;
  /// Coarse selectivity bucket folded into the fss group hash (log10 scale
  /// by convention; estimators without a selectivity notion report 0).
  int32_t bucket = 0;
};

struct TemplateFingerprint {
  uint64_t fss_hash = 0;  // template group key (reporting/trace granularity)
  std::string canonical;  // exact cache key (collision-free by construction)

  bool valid() const { return !canonical.empty(); }
};

/// Buckets a selectivity in [0, 1] into its log10 decade, clamped to
/// [-12, 0]. The helper estimators use to fill PredicateSignature::bucket.
int32_t SelectivityBucket(double selectivity);

/// Computes both fingerprints. `signatures` must align index-for-index with
/// `query.predicates` (one signature per predicate, in vector order);
/// `estimator_tag` names the estimator (and implicitly its model snapshot)
/// whose estimates the cached plan embodies.
TemplateFingerprint ComputeTemplateFingerprint(
    const Query& query, const std::string& estimator_tag,
    const std::vector<PredicateSignature>& signatures);

}  // namespace lpce::qry

#endif  // LPCE_QUERY_FINGERPRINT_H_
