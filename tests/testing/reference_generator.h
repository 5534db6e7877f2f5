// Reference query validator: the differential oracle of wk::AcceptQuery.
//
// ReferenceAcceptQuery is the generator's original acceptance test. It runs
// the candidate's canonical hash plan under the row cap, checks the result is
// non-empty if required, and under validate_all_subsets runs one more
// canonical plan per connected subset of two or more tables that the first
// run did not already bound (BuildSubQuery + TryLabelQuery). It then labels
// the accepted query with a second, uncapped canonical-plan run (LabelQuery).
// The production validator counts every connected subset with one hash join
// each and labels from that pass; it must make the same decision and the
// same labels on every candidate. workload_test's differential suite and
// bench_workload_label check exactly that.
#ifndef LPCE_TESTS_TESTING_REFERENCE_GENERATOR_H_
#define LPCE_TESTS_TESTING_REFERENCE_GENERATOR_H_

#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::testing {

/// A wk::QueryValidator: decides `labeled->query` and, on acceptance, fills
/// `labeled->true_cards` as the original generator did.
bool ReferenceAcceptQuery(const db::Database& database,
                          const wk::GeneratorOptions& options,
                          wk::LabeledQuery* labeled);

}  // namespace lpce::testing

#endif  // LPCE_TESTS_TESTING_REFERENCE_GENERATOR_H_
