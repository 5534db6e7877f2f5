#include "testing/reference_generator.h"

namespace lpce::testing {

bool ReferenceAcceptQuery(const db::Database& database,
                          const wk::GeneratorOptions& options,
                          wk::LabeledQuery* labeled) {
  const qry::Query& query = labeled->query;
  wk::LabeledQuery probe;
  probe.query = query;
  if (!wk::TryLabelQuery(database, &probe, options.max_node_rows)) return false;
  if (options.require_nonempty && probe.FinalCard() == 0) return false;
  if (options.validate_all_subsets && options.max_node_rows > 0) {
    for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
      if (!query.IsConnected(rels) || qry::PopCount(rels) < 2) continue;
      if (probe.true_cards.count(rels) > 0) continue;  // already bounded
      wk::LabeledQuery sub;
      sub.query = qry::BuildSubQuery(query, rels);
      if (!wk::TryLabelQuery(database, &sub, options.max_node_rows)) {
        return false;
      }
    }
  }
  labeled->true_cards.clear();
  wk::LabelQuery(database, labeled);
  return true;
}

}  // namespace lpce::testing
