// Paper Figure 21: node-wise vs query-wise loss. LPCE-Q shares the backbone
// (SRU, large) but trains only on each query's final result (Eq. 2); the
// node-wise loss (Eq. 3) supervises every plan node.
//
// Expected shape: node-wise is markedly more accurate, both at the final
// result and (especially) across internal plan nodes.
#include <cstdio>

#include "bench_world.h"
#include "exec/executor.h"

namespace lpce::bench {
namespace {

void RunSet(const World& world, int joins) {
  struct Variant {
    const char* name;
    const model::TreeModel* tree_model;
  };
  const Variant variants[] = {
      {"LPCE-Q", world.lpce_q.get()},  // query-wise loss, same backbone
      {"LPCE-S", world.lpce_s.get()},  // node-wise loss, same backbone
      {"LPCE-I", world.lpce_i.get()},  // node-wise + distilled (deployed)
  };
  std::printf("\n--- Join-%s ---\n", joins == 6 ? "six" : "eight");
  std::printf("%-8s %14s %14s %16s\n", "model", "root median q", "root mean q",
              "all-nodes mean q");
  for (const auto& variant : variants) {
    std::vector<double> root_q;
    std::vector<std::vector<model::TreeModel::InferNodeOutput>> outputs;
    double node_total = 0.0;
    int node_count = 0;
    for (const auto& labeled : world.test_by_joins.at(joins)) {
      auto logical =
          qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
      auto tree = model::MakeEstTree(labeled.query, logical.get(),
                                     *world.database, &labeled.true_cards);
      variant.tree_model->InferTrees({{&labeled.query, tree.get()}},
                                     &outputs);
      for (const auto& out : outputs[0]) {
        if (out.node->true_card < 0) continue;
        const double q = exec::QError(out.card, out.node->true_card);
        node_total += q;
        ++node_count;
        if (out.node->rels == labeled.query.AllRels()) root_q.push_back(q);
      }
    }
    double root_mean = 0.0;
    for (double q : root_q) root_mean += q;
    root_mean /= static_cast<double>(root_q.size());
    std::printf("%-8s %14.2f %14.2f %16.2f\n", variant.name,
                Percentile(root_q, 50), root_mean, node_total / node_count);
  }
}

}  // namespace
}  // namespace lpce::bench

int main() {
  const auto& world = lpce::bench::GetWorld();
  std::printf("\n=== Figure 21: node-wise vs query-wise loss ===\n");
  lpce::bench::RunSet(world, 6);
  lpce::bench::RunSet(world, 8);
  std::printf("\n(paper: node-wise loss significantly more accurate — data"
              " augmentation from sub-plans + direct supervision of internal"
              " nodes)\n");
  return 0;
}
