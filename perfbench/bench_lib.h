// Helpers of the end-to-end benchmark (perfbench.cc): the percentile rule,
// an in-memory span tracer with self-time accounting, and a timing
// decorator for card::CardinalityEstimator. They live with the benchmark,
// not in src/, so the program under test carries no benchmark code.
#ifndef LPCE_PERFBENCH_BENCH_LIB_H_
#define LPCE_PERFBENCH_BENCH_LIB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "card/estimator.h"
#include "query/query.h"

namespace lpce::perfbench {

// ---- Percentiles -----------------------------------------------------------

/// The tail percentile a sample of `n` supports: the highest of 50, 90 and
/// 99 with at least 10 samples beyond it (n * (1 - p/100) >= 10). Returns 0
/// when even the median lacks 10 samples beyond it (n < 20).
double TailPercentile(size_t n);

/// Nearest-rank percentile (the smallest value with at least pct% of the
/// sample at or below it). Deterministic for a given multiset; 0 when empty.
double Quantile(std::vector<double> values, double pct);

// ---- Tracing ---------------------------------------------------------------

/// What a span times. Query spans are roots (one per RunQuery or Submit);
/// estimator calls are their children; the rest stand alone.
enum class SpanKind : uint8_t {
  kQuery = 0,
  kPrepare,
  kEstimate,
  kObserve,
  kPublish,
  kFingerprint,
  kPlan,
  kExec,
  kCount,
};
const char* SpanKindName(SpanKind kind);

/// Which estimator a call span belongs to (kNone for non-estimator spans).
enum class SpanSource : uint8_t { kNone = 0, kLpceI, kLpceR };
const char* SpanSourceName(SpanSource source);

inline constexpr uint32_t kNoId = UINT32_MAX;

struct Span {
  uint32_t id = kNoId;
  uint32_t parent = kNoId;  // enclosing span, kNoId for roots
  uint32_t query = kNoId;   // query id shared by a query's spans
  SpanKind kind = SpanKind::kQuery;
  SpanSource source = SpanSource::kNone;
  int64_t start_ns = 0;  // steady clock
  int64_t end_ns = 0;
};

/// Content hash of a query (tables, joins, predicates). Identifies a query
/// across the copy EngineServer makes at admission.
uint64_t QueryContentHash(const qry::Query& query);

/// Collects spans in per-thread buffers (no lock on the recording path) and
/// hands them back merged. A span's parent is the span open on the same
/// thread (serial engine runs) or, when none is open, the one the caller
/// names — estimator calls on a server worker name the in-flight query span
/// a client registered for the same query content (FindInFlight). At most
/// one Tracer may record at a time.
class Tracer {
 public:
  /// Spans beyond `max_spans` are dropped and counted.
  explicit Tracer(size_t max_spans);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static int64_t NowNs();

  /// Opens a span on the calling thread; it becomes the parent of spans the
  /// thread opens until Close. With a span already open on the thread, that
  /// span is the parent and `parent` is ignored; `query` = kNoId inherits the
  /// parent's query id. Returns a token for Close.
  struct Open {
    Span span;
    uint32_t saved_parent = kNoId;
    uint32_t saved_query = kNoId;
  };
  Open Begin(SpanKind kind, SpanSource source, uint32_t query = kNoId,
             uint32_t parent = kNoId);
  void Close(Open open);
  /// True when the calling thread has an open span.
  static bool ThreadHasOpenSpan();

  /// Marks `query_span` as the in-flight span serving this query content;
  /// calls on other threads for the same content can parent to it.
  void RegisterInFlight(const qry::Query& query, const Span& query_span);
  void UnregisterInFlight(const qry::Query& query, const Span& query_span);
  /// (query id, span id) of an in-flight span for this content, or
  /// (kNoId, kNoId). With several in flight, the earliest registered.
  std::pair<uint32_t, uint32_t> FindInFlight(const qry::Query& query) const;

  /// Every recorded span, ordered by id. Call after recording threads are
  /// quiescent.
  std::vector<Span> Collect() const;
  uint64_t dropped() const { return dropped_.load(); }

 private:
  std::vector<Span>* LocalBuffer();

  const size_t max_spans_;
  const uint64_t generation_;
  std::atomic<uint32_t> next_id_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ registration and in_flight_
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
  std::unordered_multimap<uint64_t, std::pair<uint32_t, uint32_t>> in_flight_;
};

/// RAII wrapper of Tracer::Begin/Close; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, SpanSource source,
             uint32_t query = kNoId, uint32_t parent = kNoId);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  const Span& span() const { return open_.span; }

 private:
  Tracer* tracer_;
  Tracer::Open open_;
};

/// Self time of `parent`: its duration minus the part of its interval
/// covered by the union of `children` (intervals as [start, end) ns).
int64_t SelfTimeNs(const Span& parent,
                   std::vector<std::pair<int64_t, int64_t>> children);

/// Per (kind, source) totals over a span set.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
struct SpanSummary {
  SpanTotals by[static_cast<int>(SpanKind::kCount)][3];
  const SpanTotals& at(SpanKind kind, SpanSource source) const {
    return by[static_cast<int>(kind)][static_cast<int>(source)];
  }
};
SpanSummary Summarize(const std::vector<Span>& spans);

/// Writes spans as CSV (id,parent,query,kind,source,start_ns,dur_ns).
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

// ---- Timing decorator --------------------------------------------------------

/// Forwards every CardinalityEstimator call to `base` unchanged and records a
/// span around each PrepareQuery / EstimateSubset / ObserveActual. The
/// engine prepares an estimator before any other call of a query, so the
/// in-flight lookup runs once per query, in PrepareQuery.
class TimedEstimator : public card::CardinalityEstimator {
 public:
  TimedEstimator(std::unique_ptr<card::CardinalityEstimator> base,
                 Tracer* tracer, SpanSource source)
      : base_(std::move(base)), tracer_(tracer), source_(source) {}

  std::string name() const override { return base_->name(); }
  void PrepareQuery(const qry::Query& query) override;
  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override;
  void ObserveActual(const qry::Query& query, qry::RelSet rels,
                     double actual) override;
  void ResetObservations() override {
    context_ = {kNoId, kNoId};
    base_->ResetObservations();
  }
  bool SupportsRefinement() const override {
    return base_->SupportsRefinement();
  }
  qry::PredicateSignature FingerprintPredicate(
      const qry::Query& query, const qry::Predicate& pred) const override {
    return base_->FingerprintPredicate(query, pred);
  }

 private:
  std::unique_ptr<card::CardinalityEstimator> base_;
  Tracer* tracer_;
  SpanSource source_;
  // (query id, parent span) of the query being estimated, resolved at
  // PrepareQuery when no span is open on the calling thread.
  std::pair<uint32_t, uint32_t> context_{kNoId, kNoId};
};

// ---- Small utilities ---------------------------------------------------------

/// FNV-1a-64 folding of raw bytes into `hash`.
uint64_t Fnv1a(uint64_t hash, const void* data, size_t size);
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

}  // namespace lpce::perfbench

#endif  // LPCE_PERFBENCH_BENCH_LIB_H_
