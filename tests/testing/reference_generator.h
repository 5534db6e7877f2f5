// Reference labelling and validation: the differential oracles of the
// workload labeller (workload/workload.h), which counts over the join tree.
//
// - CanonicalPlanLabel runs the query's canonical hash plan through the
//   executor under the row cap and keeps every node's actual cardinality:
//   the oracle of wk::TryLabelQuery (validation off).
// - HashJoinCountConnectedSubsets materializes every connected subset's row
//   ids with one hash join each on a depth-first walk: the oracle of
//   wk::CountConnectedSubsets (validate_all_subsets). Unlike the production
//   pass it also takes queries that are not trees.
// - ReferenceAcceptQuery is the generator's original acceptance test. It
//   runs the candidate's canonical plan under the row cap, checks the result
//   is non-empty if required, and under validate_all_subsets runs one more
//   canonical plan per connected subset of two or more tables that the
//   first run did not already bound (BuildSubQuery + CanonicalPlanLabel). It
//   then labels the accepted query with a second, uncapped canonical-plan
//   run. wk::AcceptQuery must make the same decision and the same labels on
//   every candidate; workload_test's differential suite and
//   bench_workload_label check exactly that.
#ifndef LPCE_TESTS_TESTING_REFERENCE_GENERATOR_H_
#define LPCE_TESTS_TESTING_REFERENCE_GENERATOR_H_

#include <unordered_map>

#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::testing {

/// Executes the canonical hash plan of `out->query` and records every node's
/// actual cardinality into `out->true_cards`. Returns false, recording
/// nothing, if a join would materialize more than `max_node_rows` rows
/// (0 = unlimited; scans are never capped).
bool CanonicalPlanLabel(const db::Database& database, wk::LabeledQuery* out,
                        size_t max_node_rows);

/// Counts every connected subset of `query` in one depth-first pass: a
/// subset of k >= 2 tables is its parent (k - 1 tables, materialized as row
/// ids) hash-joined to one filtered base-table scan. Returns false at the
/// first join that would emit more than `max_node_rows` rows (0 = unlimited;
/// scans are never capped) and, under `require_nonempty`, at the first empty
/// subset. `counts` receives every subset counted before the pass stopped.
bool HashJoinCountConnectedSubsets(
    const db::Database& database, const qry::Query& query,
    size_t max_node_rows, bool require_nonempty,
    std::unordered_map<qry::RelSet, uint64_t>* counts);

/// A wk::QueryValidator: decides `labeled->query` and, on acceptance, fills
/// `labeled->true_cards` as the original generator did.
bool ReferenceAcceptQuery(const db::Database& database,
                          const wk::GeneratorOptions& options,
                          wk::LabeledQuery* labeled);

}  // namespace lpce::testing

#endif  // LPCE_TESTS_TESTING_REFERENCE_GENERATOR_H_
