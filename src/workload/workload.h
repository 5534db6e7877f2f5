// Workload generation and true-cardinality labeling.
//
// Queries are random connected subtrees of the schema's FK join graph with a
// target number of joins, plus per-table filter predicates whose operands
// are drawn from the live data (paper Sec. 7.1, following Kipf et al.).
// Each query is labelled with the true cardinality of every node of its
// canonical plan — the supervision the node-wise loss (Eq. 3) needs. Every
// generated query is a tree, so the labels come from one counting pass over
// its join tree (Yannakakis's acyclic counting): per-key counts flow from
// the leaves to a root, and no join result is built. The same pass bounds
// the canonical nodes or, when every connected subset is validated, every
// connected subset (DESIGN.md "Workload labelling").
#ifndef LPCE_WORKLOAD_WORKLOAD_H_
#define LPCE_WORKLOAD_WORKLOAD_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "query/query.h"
#include "storage/database.h"

namespace lpce::wk {

/// A query plus the true cardinality of every canonical-tree node subset.
struct LabeledQuery {
  qry::Query query;
  std::unordered_map<qry::RelSet, uint64_t> true_cards;

  uint64_t FinalCard() const {
    auto it = true_cards.find(query.AllRels());
    return it == true_cards.end() ? 0 : it->second;
  }
};

struct GeneratorOptions {
  uint64_t seed = 7;
  double predicate_prob = 0.85;  // chance each table gets one predicate
  /// Re-draw a query whose final result is empty (used for test sets, where
  /// empty results make end-to-end comparisons degenerate).
  bool require_nonempty = false;
  /// Re-draw a query if any canonical-plan join exceeds this many rows — an
  /// in-memory materializing executor needs bounded intermediates (0 = off).
  /// A count that does not fit in 64 bits always exceeds it.
  size_t max_node_rows = 4'000'000;
  /// Additionally verify EVERY connected subset of two or more tables stays
  /// under max_node_rows, so that any join order a (mis-)optimizer picks is
  /// executable. Used for the end-to-end test workloads; the counting pass
  /// then counts every connected subset instead of the canonical nodes only.
  bool validate_all_subsets = false;
  int max_attempts = 400;
};

/// Decides whether a candidate query (`labeled->query`) is kept and, if so,
/// fills `labeled->true_cards`. Draws nothing from the generator's RNG.
using QueryValidator = bool (*)(const db::Database& database,
                                const GeneratorOptions& options,
                                LabeledQuery* labeled);

/// The generator's validator: bounded canonical-plan joins (every connected
/// subset under validate_all_subsets) and, if required, a non-empty result.
/// Labels come from the counting pass that decided.
bool AcceptQuery(const db::Database& database, const GeneratorOptions& options,
                 LabeledQuery* labeled);

class QueryGenerator {
 public:
  QueryGenerator(const db::Database* database, GeneratorOptions options,
                 QueryValidator validator = AcceptQuery)
      : db_(database), options_(options), validator_(validator),
        rng_(options.seed) {}

  /// Generates one query with exactly `num_joins` joins (num_joins + 1
  /// tables).
  qry::Query Generate(int num_joins);

  /// Generates and labels `count` queries with joins drawn uniformly from
  /// [min_joins, max_joins].
  std::vector<LabeledQuery> GenerateLabeled(int count, int min_joins, int max_joins);

 private:
  LabeledQuery GenerateOne(int num_joins);

  const db::Database* db_;
  GeneratorOptions options_;
  QueryValidator validator_;
  Rng rng_;
};

/// Counts every connected subset of the tree query `query` in one counting
/// pass. Returns false at the first subset of two or more tables that counts
/// more than `max_node_rows` rows (0 = unlimited; scans are never capped) or
/// does not fit in 64 bits and, under `require_nonempty`, at the first empty
/// subset — an empty connected subset empties the query. `counts` receives
/// every subset counted before the pass stopped, each exact. Dies with a
/// message if `query` is not a tree (k tables, k - 1 joins connecting them).
bool CountConnectedSubsets(const db::Database& database, const qry::Query& query,
                           size_t max_node_rows, bool require_nonempty,
                           std::unordered_map<qry::RelSet, uint64_t>* counts);

/// Counts every node of the tree query's canonical plan into
/// `out->true_cards`. Dies if a count does not fit in 64 bits or the query
/// is not a tree.
void LabelQuery(const db::Database& database, LabeledQuery* out);

/// As LabelQuery, but returns false, recording nothing, if a canonical-plan
/// join counts more than `max_node_rows` rows (0 = unlimited) or a count
/// does not fit in 64 bits.
bool TryLabelQuery(const db::Database& database, LabeledQuery* out,
                   size_t max_node_rows);

/// Largest final cardinality across a workload (the normalization constant
/// for the models' sigmoid output, paper Sec. 4.2).
uint64_t MaxCardinality(const std::vector<LabeledQuery>& workload);

/// Binary (de)serialization of labeled workloads for the bench cache.
Status SaveWorkload(const std::vector<LabeledQuery>& workload,
                    const std::string& path);
Status LoadWorkload(const std::string& path, std::vector<LabeledQuery>* workload);

}  // namespace lpce::wk

#endif  // LPCE_WORKLOAD_WORKLOAD_H_
