#include "workload/workload.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/selvec.h"
#include "exec/key_slots.h"
#include "exec/vectorized.h"

namespace lpce::wk {

qry::Query QueryGenerator::Generate(int num_joins) {
  return GenerateOne(num_joins).query;
}

LabeledQuery QueryGenerator::GenerateOne(int num_joins) {
  const db::Catalog& cat = db_->catalog();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    qry::Query query;
    // Grow a random connected subtree of the FK graph.
    std::vector<bool> used(cat.num_tables(), false);
    const int32_t start =
        static_cast<int32_t>(rng_.Uniform(static_cast<uint64_t>(cat.num_tables())));
    query.tables.push_back(start);
    used[start] = true;
    while (query.num_joins() < num_joins) {
      // Frontier: edges with exactly one endpoint inside.
      std::vector<const db::JoinEdgeDef*> frontier;
      for (const auto& edge : cat.join_edges()) {
        const bool l = used[edge.left.table];
        const bool r = used[edge.right.table];
        if (l != r) frontier.push_back(&edge);
      }
      if (frontier.empty()) break;
      const db::JoinEdgeDef* pick = frontier[rng_.Uniform(frontier.size())];
      const int32_t next = used[pick->left.table] ? pick->right.table
                                                  : pick->left.table;
      query.tables.push_back(next);
      used[next] = true;
      query.joins.push_back({pick->left, pick->right});
    }
    if (query.num_joins() != num_joins) continue;  // graph exhausted; retry

    // Predicates: operand values are sampled from live rows so that
    // selectivities spread over the full range. Column choice is biased
    // toward non-key attribute columns — their values are correlated across
    // tables (as on real IMDB), which is exactly where independence-based
    // estimators break (paper Sec. 7.1).
    for (int32_t table_id : query.tables) {
      if (!rng_.Bernoulli(options_.predicate_prob)) continue;
      const db::Table& table = db_->table(table_id);
      if (table.num_rows() == 0) continue;
      // Key columns of this table (id + any FK participating in an edge).
      auto is_key_column = [&](int32_t c) {
        if (c == 0) return true;  // the id primary key
        for (const auto& edge : cat.join_edges()) {
          if ((edge.left.table == table_id && edge.left.column == c) ||
              (edge.right.table == table_id && edge.right.column == c)) {
            return true;
          }
        }
        return false;
      };
      int32_t col = static_cast<int32_t>(rng_.Uniform(table.num_columns()));
      if (is_key_column(col) && rng_.Bernoulli(0.85)) {
        // Re-draw among non-key columns when any exist.
        std::vector<int32_t> attrs;
        for (int32_t c = 0; c < static_cast<int32_t>(table.num_columns()); ++c) {
          if (!is_key_column(c)) attrs.push_back(c);
        }
        if (!attrs.empty()) col = attrs[rng_.Uniform(attrs.size())];
      }
      const int64_t value =
          table.at(rng_.Uniform(table.num_rows()), static_cast<size_t>(col));
      // Range predicates dominate (as in the JOB-light style workloads);
      // equality and inequality appear with lower probability.
      qry::CmpOp op;
      const double roll = rng_.UniformDouble();
      if (roll < 0.25) {
        op = qry::CmpOp::kLt;
      } else if (roll < 0.5) {
        op = qry::CmpOp::kGt;
      } else if (roll < 0.65) {
        op = qry::CmpOp::kLe;
      } else if (roll < 0.8) {
        op = qry::CmpOp::kGe;
      } else if (roll < 0.93) {
        op = qry::CmpOp::kEq;
      } else {
        op = qry::CmpOp::kNe;
      }
      query.predicates.push_back({{table_id, col}, op, value});
    }

    LabeledQuery labeled;
    labeled.query = std::move(query);
    if (validator_(*db_, options_, &labeled)) return labeled;
  }
  LPCE_CHECK_MSG(false, "query generation exhausted attempts");
  return {};
}

std::vector<LabeledQuery> QueryGenerator::GenerateLabeled(int count, int min_joins,
                                                          int max_joins) {
  std::vector<LabeledQuery> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int joins =
        static_cast<int>(rng_.UniformInt(min_joins, max_joins));
    out.push_back(GenerateOne(joins));
  }
  return out;
}

namespace {

// ---- Counting over the join tree --------------------------------------------

constexpr uint64_t kSaturated = std::numeric_limits<uint64_t>::max();

/// Checked 64-bit arithmetic that saturates: kSaturated reads "2^64 - 1 or
/// more", and every other result is exact (a saturated value times 0 is 0).
uint64_t SatMul(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_mul_overflow(a, b, &r) ? kSaturated : r;
}
uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_add_overflow(a, b, &r) ? kSaturated : r;
}

/// The counting pass behind CountConnectedSubsets and TryLabelQuery, over
/// one tree query. With the tree rooted, every connected subset S has one
/// top table v (the one nearest the root), and
///   count(S) = sum over v's filtered rows r of
///              prod over v's children c in S of m_{S & sub(c)}[key_c(r)],
/// where the message m_T of a subset T with top c is the same product over
/// c's rows, summed by the key of c's edge to its parent (Yannakakis's
/// acyclic counting). One pass over v's rows gives S's count and S's own
/// message; every subset containing S's rooted piece reuses that message.
/// All state belongs to one call.
class JoinTreeCounter {
 public:
  JoinTreeCounter(const db::Database& database, const qry::Query& query)
      : n_(query.num_tables()), adjacent_(static_cast<size_t>(n_)) {
    bool endpoints_ok = n_ >= 1 && n_ <= 32 && query.num_joins() == n_ - 1;
    for (int j = 0; endpoints_ok && j < query.num_joins(); ++j) {
      const qry::Join& join = query.joins[static_cast<size_t>(j)];
      const int a = query.PositionOf(join.left.table);
      const int b = query.PositionOf(join.right.table);
      endpoints_ok = a >= 0 && b >= 0 && a != b;
      if (!endpoints_ok) break;
      Edge& edge = edges_.emplace_back();
      edge.a = a;
      edge.b = b;
      edge.col_a = &database.table(join.left.table)
                        .column(static_cast<size_t>(join.left.column));
      edge.col_b = &database.table(join.right.table)
                        .column(static_cast<size_t>(join.right.column));
      adjacent_[static_cast<size_t>(a)].emplace_back(b, j);
      adjacent_[static_cast<size_t>(b)].emplace_back(a, j);
    }
    // k tables, k - 1 edges and connected: a tree, with no cycle and no
    // parallel edge.
    LPCE_CHECK_MSG(endpoints_ok && RootAt(0).order.size() == static_cast<size_t>(n_),
                   "counting needs a tree query: k tables joined by k - 1 "
                   "edges that connect them (no cycle, no parallel edge)");
    rows_.reserve(static_cast<size_t>(n_));
    for (int pos = 0; pos < n_; ++pos) {
      const int32_t table_id = query.tables[static_cast<size_t>(pos)];
      exec::RowSetPtr scan = exec::BatchScan(database.table(table_id), table_id,
                                             nullptr, query.PredicatesOf(pos), {});
      rows_.push_back(std::move(scan->rid_cols[0]));
    }
  }

  /// Every connected subset: the pieces topped by each table of a rooted
  /// tree are the table alone or with any choice of one piece per child.
  std::vector<qry::RelSet> ConnectedSubsets() const {
    const Rooting tree = RootAt(0);
    std::vector<std::vector<qry::RelSet>> topped(static_cast<size_t>(n_));
    std::vector<qry::RelSet> out;
    for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
      std::vector<qry::RelSet>& mine = topped[static_cast<size_t>(*it)];
      mine.push_back(qry::Bit(*it));
      for (int c : tree.children[static_cast<size_t>(*it)]) {
        const size_t before = mine.size();
        for (size_t i = 0; i < before; ++i) {
          for (qry::RelSet piece : topped[static_cast<size_t>(c)]) {
            mine.push_back(mine[i] | piece);
          }
        }
      }
      out.insert(out.end(), mine.begin(), mine.end());
    }
    return out;
  }

  /// Counts the connected subsets in `wanted`, handing each to
  /// `keep(rels, count)` (count kSaturated when it does not fit in 64 bits).
  /// Stops and returns false as soon as `keep` does.
  template <typename Keep>
  bool Count(const std::vector<qry::RelSet>& wanted, Keep keep) {
    Plan plan = PlanFor(RootAt(BestRoot()), wanted);
    return Run(&plan, keep);
  }

 private:
  struct Edge {
    int a = -1, b = -1;  // table positions of the join's left and right sides
    const std::vector<int64_t>* col_a = nullptr;
    const std::vector<int64_t>* col_b = nullptr;
    bool translated = false;
    uint32_t num_slots = 0;
    std::vector<uint32_t> slots;  // by filtered row of a, then of b
  };

  /// The query's tree hung from one table.
  struct Rooting {
    std::vector<int> order;  // breadth-first from the root
    std::vector<int> depth, parent_edge;
    std::vector<std::vector<int>> children;
    std::vector<qry::RelSet> sub;  // each table's rooted sub-tree
  };

  /// One connected subset to count: its top table and the pieces it
  /// multiplies in, one per child of the top inside the subset.
  struct Piece {
    qry::RelSet rels = 0;
    int top = -1;
    int first_input = 0, num_inputs = 0;  // into Plan::inputs
    bool counted = false;
    uint64_t count = 0;
    std::vector<uint64_t> message;  // by slot of top's parent edge
  };

  struct Plan {
    Rooting tree;
    std::vector<Piece> pieces;
    std::vector<int> inputs;
    std::vector<int> wanted;  // piece ids, in counting order
  };

  Rooting RootAt(int root) const {
    Rooting t;
    t.depth.assign(static_cast<size_t>(n_), -1);
    t.parent_edge.assign(static_cast<size_t>(n_), -1);
    t.children.resize(static_cast<size_t>(n_));
    t.sub.assign(static_cast<size_t>(n_), 0);
    t.order.push_back(root);
    t.depth[static_cast<size_t>(root)] = 0;
    for (size_t i = 0; i < t.order.size(); ++i) {
      const int v = t.order[i];
      for (const auto& [w, edge] : adjacent_[static_cast<size_t>(v)]) {
        if (t.depth[static_cast<size_t>(w)] >= 0) continue;
        t.depth[static_cast<size_t>(w)] = t.depth[static_cast<size_t>(v)] + 1;
        t.parent_edge[static_cast<size_t>(w)] = edge;
        t.children[static_cast<size_t>(v)].push_back(w);
        t.order.push_back(w);
      }
    }
    for (auto it = t.order.rbegin(); it != t.order.rend(); ++it) {
      qry::RelSet s = qry::Bit(*it);
      for (int c : t.children[static_cast<size_t>(*it)]) s |= t.sub[static_cast<size_t>(c)];
      t.sub[static_cast<size_t>(*it)] = s;
    }
    return t;
  }

  /// The root where the pieces read the fewest rows if every connected
  /// subset is counted: a table v then tops P(v) = prod over its children c
  /// of (1 + P(c)) pieces, and c's message enters P(v) P(c) / (1 + P(c)) of
  /// them. Canonical nodes alone read fewest rows from about the same root.
  int BestRoot() const {
    int best_root = 0;
    double best_steps = 0.0;
    std::vector<double> pieces(static_cast<size_t>(n_));
    for (int root = 0; root < n_; ++root) {
      const Rooting tree = RootAt(root);
      double steps = 0.0;
      for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
        double p = 1.0, inputs = 0.0;
        for (int c : tree.children[static_cast<size_t>(*it)]) {
          const double pc = pieces[static_cast<size_t>(c)];
          p *= 1.0 + pc;
          inputs += pc / (1.0 + pc);
        }
        pieces[static_cast<size_t>(*it)] = p;
        steps += static_cast<double>(rows_[static_cast<size_t>(*it)].size()) *
                 p * (1.0 + inputs);
      }
      if (root == 0 || steps < best_steps) {
        best_root = root;
        best_steps = steps;
      }
    }
    return best_root;
  }

  /// The pieces `wanted` needs with the tree as rooted.
  Plan PlanFor(Rooting tree, const std::vector<qry::RelSet>& wanted) const {
    Plan plan;
    plan.tree = std::move(tree);
    const Rooting& t = plan.tree;
    std::unordered_map<qry::RelSet, int> index;
    index.reserve(2 * wanted.size());
    auto need = [&](auto& self, qry::RelSet rels) -> int {
      const auto [it, inserted] =
          index.emplace(rels, static_cast<int>(plan.pieces.size()));
      if (!inserted) return it->second;
      const int id = it->second;
      int top = __builtin_ctz(rels);
      for (qry::RelSet s = rels; s != 0; s &= s - 1) {
        const int pos = __builtin_ctz(s);
        if (t.depth[static_cast<size_t>(pos)] < t.depth[static_cast<size_t>(top)]) {
          top = pos;
        }
      }
      plan.pieces.push_back({});
      int inputs[32];
      int num_inputs = 0;
      for (int c : t.children[static_cast<size_t>(top)]) {
        const qry::RelSet part = rels & t.sub[static_cast<size_t>(c)];
        if (part != 0) inputs[num_inputs++] = self(self, part);
      }
      Piece& piece = plan.pieces[static_cast<size_t>(id)];
      piece.rels = rels;
      piece.top = top;
      piece.first_input = static_cast<int>(plan.inputs.size());
      piece.num_inputs = num_inputs;
      plan.inputs.insert(plan.inputs.end(), inputs, inputs + num_inputs);
      return id;
    };
    for (qry::RelSet rels : wanted) plan.wanted.push_back(need(need, rels));
    // Scans first: they need no keys and reject many candidates alone. Then
    // the largest subsets: the whole query needs one piece per table, a
    // subset over the cap is most often a large one, and each piece is
    // counted while the pieces it reads are still in cache.
    std::stable_sort(plan.wanted.begin(), plan.wanted.end(), [&](int a, int b) {
      const int size_a = qry::PopCount(plan.pieces[static_cast<size_t>(a)].rels);
      const int size_b = qry::PopCount(plan.pieces[static_cast<size_t>(b)].rels);
      return size_a == 1 || size_b == 1 ? size_a < size_b : size_a > size_b;
    });
    return plan;
  }

  /// Hands the wanted subsets to `keep` in the plan's order, counting each
  /// piece when a wanted subset first needs it.
  template <typename Keep>
  bool Run(Plan* plan, Keep keep) {
    for (int id : plan->wanted) {
      const Piece& piece = plan->pieces[static_cast<size_t>(id)];
      const bool scan = qry::PopCount(piece.rels) == 1;  // needs no pass
      if (!scan) CountPiece(plan, id);
      if (!keep(piece.rels,
                scan ? rows_[static_cast<size_t>(piece.top)].size() : piece.count)) {
        return false;
      }
    }
    return true;
  }

  /// One pass over the top table's rows: the piece's count and its message.
  void CountPiece(Plan* plan, int id) {
    if (plan->pieces[static_cast<size_t>(id)].counted) return;
    Piece& piece = plan->pieces[static_cast<size_t>(id)];
    const int v = piece.top;
    struct Input {
      const uint64_t* message;
      const uint32_t* slots;
    };
    Input inputs[32];
    for (int k = 0; k < piece.num_inputs; ++k) {
      const int in = plan->inputs[static_cast<size_t>(piece.first_input + k)];
      CountPiece(plan, in);
      const Piece& child = plan->pieces[static_cast<size_t>(in)];
      inputs[k] = {child.message.data(),
                   Slots(plan->tree.parent_edge[static_cast<size_t>(child.top)], v)};
    }
    const int up_edge = plan->tree.parent_edge[static_cast<size_t>(v)];
    const bool has_parent = up_edge >= 0;
    const uint32_t* up = nullptr;
    if (has_parent) {
      up = Slots(up_edge, v);
      piece.message.assign(edges_[static_cast<size_t>(up_edge)].num_slots, 0);
    }
    const size_t rows = rows_[static_cast<size_t>(v)].size();
    uint64_t* message = piece.message.data();
    uint64_t count = 0;
    auto pass = [&](auto product_of) {
      for (size_t i = 0; i < rows; ++i) {
        const uint64_t product = product_of(i);
        count = SatAdd(count, product);
        if (has_parent) message[up[i]] = SatAdd(message[up[i]], product);
      }
    };
    switch (piece.num_inputs) {
      case 0:
        pass([](size_t) -> uint64_t { return 1; });
        break;
      case 1:
        pass([&](size_t i) { return inputs[0].message[inputs[0].slots[i]]; });
        break;
      case 2:
        pass([&](size_t i) {
          return SatMul(inputs[0].message[inputs[0].slots[i]],
                        inputs[1].message[inputs[1].slots[i]]);
        });
        break;
      default:
        pass([&](size_t i) {
          uint64_t product = 1;
          for (int k = 0; k < piece.num_inputs; ++k) {
            product = SatMul(product, inputs[k].message[inputs[k].slots[i]]);
          }
          return product;
        });
    }
    piece.count = count;
    piece.counted = true;
  }

  /// Slots of table `pos`'s filtered rows on edge `edge`. The first use
  /// gathers both sides' keys through their filtered rows once and maps
  /// them into one slot space, so equal keys share a slot across the edge.
  const uint32_t* Slots(int edge, int pos) {
    Edge& e = edges_[static_cast<size_t>(edge)];
    const std::vector<uint32_t>& rows_a = rows_[static_cast<size_t>(e.a)];
    if (!e.translated) {
      const std::vector<uint32_t>& rows_b = rows_[static_cast<size_t>(e.b)];
      std::vector<int64_t> keys(rows_a.size() + rows_b.size());
      common::GatherSelected(e.col_a->data(), rows_a.data(), rows_a.size(),
                             keys.data());
      common::GatherSelected(e.col_b->data(), rows_b.data(), rows_b.size(),
                             keys.data() + rows_a.size());
      e.slots.resize(keys.size());
      exec::KeySlots slots;
      slots.Build(keys.data(), keys.size(), e.slots.data());
      e.num_slots = slots.num_slots();
      e.translated = true;
    }
    return e.a == pos ? e.slots.data() : e.slots.data() + rows_a.size();
  }

  const int n_;
  std::vector<std::vector<std::pair<int, int>>> adjacent_;  // (table, edge)
  std::vector<Edge> edges_;                    // by join index
  std::vector<std::vector<uint32_t>> rows_;    // filtered rows by position
};

/// Every canonical-plan node's subset, children first.
std::vector<qry::RelSet> CanonicalNodes(const qry::Query& query) {
  const auto tree = qry::BuildCanonicalTree(query, query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(tree.get(), &nodes);
  std::vector<qry::RelSet> out;
  out.reserve(nodes.size());
  for (const qry::LogicalNode* node : nodes) out.push_back(node->rels);
  return out;
}

/// True when a counted subset stays within the row cap: scans are never
/// capped, and a count that does not fit in 64 bits always exceeds it.
bool WithinCap(qry::RelSet rels, uint64_t count, size_t max_node_rows) {
  if (count == kSaturated) return false;
  return qry::PopCount(rels) < 2 || max_node_rows == 0 || count <= max_node_rows;
}

}  // namespace

bool CountConnectedSubsets(const db::Database& database, const qry::Query& query,
                           size_t max_node_rows, bool require_nonempty,
                           std::unordered_map<qry::RelSet, uint64_t>* counts) {
  JoinTreeCounter counter(database, query);
  return counter.Count(
      counter.ConnectedSubsets(), [&](qry::RelSet rels, uint64_t count) {
        if (count == kSaturated) return false;  // no exact count to record
        (*counts)[rels] = count;
        if (require_nonempty && count == 0) return false;
        return WithinCap(rels, count, max_node_rows);
      });
}

bool AcceptQuery(const db::Database& database, const GeneratorOptions& options,
                 LabeledQuery* labeled) {
  if (!options.validate_all_subsets || options.max_node_rows == 0) {
    // The canonical nodes bound and label themselves.
    if (!TryLabelQuery(database, labeled, options.max_node_rows)) return false;
    return !options.require_nonempty || labeled->FinalCard() > 0;
  }
  // Canonical-plan nodes are connected subsets and scans are uncapped, so
  // the pass's decision is the canonical nodes' and every subset's together.
  std::unordered_map<qry::RelSet, uint64_t> counts;
  if (!CountConnectedSubsets(database, labeled->query, options.max_node_rows,
                             options.require_nonempty, &counts)) {
    return false;
  }
  for (qry::RelSet rels : CanonicalNodes(labeled->query)) {
    labeled->true_cards[rels] = counts.at(rels);
  }
  return true;
}

void LabelQuery(const db::Database& database, LabeledQuery* out) {
  const bool ok = TryLabelQuery(database, out, /*max_node_rows=*/0);
  LPCE_CHECK_MSG(ok, "a canonical-plan node's count overflows 64 bits");
}

bool TryLabelQuery(const db::Database& database, LabeledQuery* out,
                   size_t max_node_rows) {
  std::unordered_map<qry::RelSet, uint64_t> cards;
  const bool ok = JoinTreeCounter(database, out->query)
                      .Count(CanonicalNodes(out->query),
                             [&](qry::RelSet rels, uint64_t count) {
                               cards[rels] = count;
                               return WithinCap(rels, count, max_node_rows);
                             });
  if (!ok) return false;
  for (const auto& [rels, card] : cards) out->true_cards[rels] = card;
  return true;
}

uint64_t MaxCardinality(const std::vector<LabeledQuery>& workload) {
  uint64_t max_card = 1;
  for (const auto& q : workload) {
    for (const auto& [rels, card] : q.true_cards) {
      max_card = std::max(max_card, card);
    }
  }
  return max_card;
}

namespace {

void WriteU64(std::FILE* f, uint64_t v) { std::fwrite(&v, sizeof(v), 1, f); }
void WriteI64(std::FILE* f, int64_t v) { std::fwrite(&v, sizeof(v), 1, f); }
void WriteI32(std::FILE* f, int32_t v) { std::fwrite(&v, sizeof(v), 1, f); }

bool ReadU64(std::FILE* f, uint64_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; }
bool ReadI64(std::FILE* f, int64_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; }
bool ReadI32(std::FILE* f, int32_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; }

constexpr uint64_t kMagic = 0x4C50434557514C44ull;  // "LPCEWQLD"

}  // namespace

Status SaveWorkload(const std::vector<LabeledQuery>& workload,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  WriteU64(f, kMagic);
  WriteU64(f, workload.size());
  for (const auto& labeled : workload) {
    const qry::Query& q = labeled.query;
    WriteU64(f, q.tables.size());
    for (int32_t t : q.tables) WriteI32(f, t);
    WriteU64(f, q.joins.size());
    for (const auto& j : q.joins) {
      WriteI32(f, j.left.table);
      WriteI32(f, j.left.column);
      WriteI32(f, j.right.table);
      WriteI32(f, j.right.column);
    }
    WriteU64(f, q.predicates.size());
    for (const auto& p : q.predicates) {
      WriteI32(f, p.col.table);
      WriteI32(f, p.col.column);
      WriteI32(f, static_cast<int32_t>(p.op));
      WriteI64(f, p.value);
    }
    WriteU64(f, labeled.true_cards.size());
    for (const auto& [rels, card] : labeled.true_cards) {
      WriteU64(f, rels);
      WriteU64(f, card);
    }
  }
  std::fclose(f);
  return Status::Ok();
}

Status LoadWorkload(const std::string& path, std::vector<LabeledQuery>* workload) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot read " + path);
  auto fail = [&](const char* what) {
    std::fclose(f);
    return Status::IoError(std::string(what) + ": " + path);
  };
  uint64_t magic = 0, count = 0;
  if (!ReadU64(f, &magic) || magic != kMagic) return fail("bad magic");
  if (!ReadU64(f, &count) || count > 10'000'000) return fail("bad count");
  workload->clear();
  workload->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    LabeledQuery labeled;
    qry::Query& q = labeled.query;
    uint64_t n = 0;
    if (!ReadU64(f, &n) || n > 64) return fail("bad table count");
    q.tables.resize(n);
    for (auto& t : q.tables) {
      if (!ReadI32(f, &t)) return fail("truncated tables");
    }
    if (!ReadU64(f, &n) || n > 64) return fail("bad join count");
    q.joins.resize(n);
    for (auto& j : q.joins) {
      if (!ReadI32(f, &j.left.table) || !ReadI32(f, &j.left.column) ||
          !ReadI32(f, &j.right.table) || !ReadI32(f, &j.right.column)) {
        return fail("truncated joins");
      }
    }
    if (!ReadU64(f, &n) || n > 128) return fail("bad predicate count");
    q.predicates.resize(n);
    for (auto& p : q.predicates) {
      int32_t op = 0;
      if (!ReadI32(f, &p.col.table) || !ReadI32(f, &p.col.column) ||
          !ReadI32(f, &op) || !ReadI64(f, &p.value)) {
        return fail("truncated predicates");
      }
      p.op = static_cast<qry::CmpOp>(op);
    }
    if (!ReadU64(f, &n) || n > 4096) return fail("bad label count");
    for (uint64_t k = 0; k < n; ++k) {
      uint64_t rels = 0, card = 0;
      if (!ReadU64(f, &rels) || !ReadU64(f, &card)) return fail("truncated labels");
      labeled.true_cards[static_cast<qry::RelSet>(rels)] = card;
    }
    workload->push_back(std::move(labeled));
  }
  std::fclose(f);
  return Status::Ok();
}

}  // namespace lpce::wk
