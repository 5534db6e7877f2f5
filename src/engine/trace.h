// Per-query execution trace: one span per executed plan operator and one
// event per checkpoint evaluation / refinement observation / re-optimization
// decision. The trace is the durable artifact of the paper's control loop —
// it reconstructs *why* a re-plan fired (which node, what q-error, against
// which threshold) and what it bought (before/after plan costs,
// continue-vs-restart choice).
//
// Serialization contract (golden-tested):
//   - ToJson(kDeterministic) emits only fields that are bit-identical across
//     runs, machines, and thread-pool sizes: ids, rounds, operators, relation
//     sets, cardinalities, q-errors, costs, decisions. Keys are emitted in a
//     fixed order; doubles are rounded to 6 significant digits.
//   - ToJson(kFull) additionally emits wall-clock fields (span/operator
//     seconds, re-planning seconds) — useful for profiling, excluded from
//     golden comparisons.
#ifndef LPCE_ENGINE_TRACE_H_
#define LPCE_ENGINE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"

namespace lpce::eng {

/// One executed plan operator. Spans are appended in execution (post-order)
/// completion order; `id` is the index in that order, globally across rounds.
struct TraceSpan {
  int id = -1;
  int round = 0;         // 0 = initial plan, +1 per re-optimization
  int seq = -1;          // global order across spans AND events
  std::string op;        // PhysOpName: SeqScan/IndexScan/HashJoin/...
  qry::RelSet rels = 0;  // covered positions in Query::tables
  double est_card = 0.0;
  uint64_t actual_card = 0;  // == output rows (materializing operators)
  double qerror = 1.0;       // QError(est_card, actual_card)
  // Join inputs; -1/0 for scans. Child ids point at earlier spans whose
  // output feeds this operator.
  int outer_span = -1;
  int inner_span = -1;
  uint64_t outer_rows = 0;
  uint64_t inner_rows = 0;
  // Non-deterministic (kFull only).
  double wall_seconds = 0.0;
};

enum class TraceEventKind {
  kPlan = 0,        // a planning pass produced a plan (initial or re-plan)
  kCheckpoint,      // a checkpoint evaluated a finished operator
  kRefinement,      // an actual cardinality was fed to the refiner (LPCE-R)
  kReoptimization,  // the controller adopted a new plan mid-query
  kTelemetry,       // end-of-query telemetry summary + drift status (kFull
                    // JSON only; appended last so deterministic output is
                    // byte-identical with telemetry on or off)
};

const char* TraceEventKindName(TraceEventKind kind);

/// One control-loop event. Unused fields stay at their defaults and are
/// omitted from the JSON (kind-dependent schema, see DESIGN.md).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kCheckpoint;
  int round = 0;
  int seq = -1;

  qry::RelSet rels = 0;  // checkpoint/refinement: the finished subset

  // kCheckpoint.
  double est_card = -1.0;
  double actual_card = -1.0;
  double qerror = -1.0;
  double threshold = -1.0;
  bool policy_allows = false;  // trigger-policy gate (min rows/underestimate)
  bool tripped = false;

  // kPlan / kReoptimization.
  double plan_cost = -1.0;    // cost of the adopted plan
  double before_cost = -1.0;  // kReoptimization: cost of the abandoned plan
  uint64_t num_estimates = 0;
  std::string decision;  // kPlan: "initial"; kReoptimization: "continue"/"restart"

  // kPlan, only when a plan cache is active: "hit"/"miss" plus the template
  // group hash. Empty/0 when caching is off, and then omitted from the JSON
  // so cache-off traces (including all goldens) are byte-identical to
  // pre-cache ones. kReoptimization: "replay" when the round's plan was
  // replayed from the cache entry's recorded rounds, else empty (omitted).
  // kTelemetry reuses fss_hash (and cache_decision when a cache was active)
  // for the template key.
  std::string cache_decision;
  uint64_t fss_hash = 0;

  // kTelemetry: the template's drift status at publish time, as last pushed
  // into the telemetry hub by engine/drift_monitor.h. qerror carries the
  // query's max checkpoint q-error, num_estimates the checkpoint count.
  bool drifted = false;
  double drift_ratio = 0.0;

  // Non-deterministic (kFull only): planning/refinement wall time.
  double wall_seconds = 0.0;
};

enum class TraceJsonMode {
  kDeterministic = 0,  // stable fields only (golden/diff-able)
  kFull,               // + wall-clock fields
};

/// The trace of one Engine::RunQuery call.
class QueryTrace {
 public:
  /// Records the query's shape (sizes only — deterministic and cheap).
  void SetQuery(const qry::Query& query);
  void SetThreshold(double qerror_threshold) { threshold_ = qerror_threshold; }
  void SetResultRows(uint64_t rows) { result_rows_ = rows; }

  /// Appends a span, assigning id/seq; returns the span id.
  int AddSpan(TraceSpan span);
  /// Appends an event, assigning seq.
  void AddEvent(TraceEvent event);

  void BeginRound() { ++round_; }
  int round() const { return round_; }
  /// Id of the most recently added span (-1 when none) — how the executor
  /// links a join to its children's spans.
  int last_span_id() const { return static_cast<int>(spans_.size()) - 1; }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceEvent>& events() const { return events_; }
  int num_reopts() const;
  uint64_t result_rows() const { return result_rows_; }
  double threshold() const { return threshold_; }

  std::string ToJson(TraceJsonMode mode) const;

 private:
  int num_tables_ = 0;
  int num_joins_ = 0;
  int num_predicates_ = 0;
  double threshold_ = 0.0;
  uint64_t result_rows_ = 0;
  int round_ = 0;
  int next_seq_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<TraceEvent> events_;
};

/// Validates one trace JSON document (either mode) against the schema:
/// required keys present with the right types, span ids dense and child
/// references backward, event kinds known, rounds non-decreasing per array.
/// Returns the first violation.
Status ValidateTraceJson(const std::string& json);

/// Line-oriented diff of two deterministic trace JSONs (pretty-printed one
/// key per line) — the readable mismatch report for golden tests.
std::string DiffTraceJson(const std::string& expected, const std::string& actual);

/// When the LPCE_TRACE env knob is set to a non-empty, non-"0" value, every
/// Engine::RunQuery appends its full trace JSON as one line to
/// $LPCE_TRACE_DIR/traces.jsonl (default dir: lpce_traces). Thread-safe.
bool TraceDumpEnabled();
void MaybeDumpTrace(const QueryTrace& trace);

}  // namespace lpce::eng

#endif  // LPCE_ENGINE_TRACE_H_
