#include "bench_lib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace lpce::perfbench {

double TailPercentile(size_t n) {
  for (double pct : {99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0 - 1e-9) return pct;
  }
  return 0.0;
}

double Quantile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery: return "query";
    case SpanKind::kPrepare: return "prepare";
    case SpanKind::kEstimate: return "estimate";
    case SpanKind::kObserve: return "observe";
    case SpanKind::kPublish: return "publish";
    case SpanKind::kFingerprint: return "fingerprint";
    case SpanKind::kPlan: return "plan";
    case SpanKind::kExec: return "exec";
    case SpanKind::kCount: break;
  }
  return "?";
}

const char* SpanSourceName(SpanSource source) {
  switch (source) {
    case SpanSource::kLpceI: return "lpce_i";
    case SpanSource::kLpceR: return "lpce_r";
    case SpanSource::kNone: break;
  }
  return "-";
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t QueryContentHash(const qry::Query& query) {
  uint64_t h = kFnvOffset;
  for (int32_t table : query.tables) h = Fnv1a(h, &table, sizeof(table));
  for (const qry::Join& join : query.joins) {
    const int32_t cols[4] = {join.left.table, join.left.column,
                             join.right.table, join.right.column};
    h = Fnv1a(h, cols, sizeof(cols));
  }
  for (const qry::Predicate& pred : query.predicates) {
    const int64_t fields[4] = {pred.col.table, pred.col.column,
                               static_cast<int64_t>(pred.op), pred.value};
    h = Fnv1a(h, fields, sizeof(fields));
  }
  return h;
}

// ---- Tracer ------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_tracer_generation{0};

// The calling thread's open span and query (one recording Tracer at a time).
struct ThreadContext {
  uint32_t span = kNoId;
  uint32_t query = kNoId;
};
thread_local ThreadContext t_context;

}  // namespace

Tracer::Tracer(size_t max_spans)
    : max_spans_(max_spans), generation_(++g_tracer_generation) {}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Span>* Tracer::LocalBuffer() {
  // Keyed by generation, not address: a later Tracer at the same address
  // must not inherit a destroyed one's buffer.
  thread_local uint64_t owner_generation = 0;
  thread_local std::vector<Span>* buffer = nullptr;
  if (owner_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffer = buffers_.back().get();
    owner_generation = generation_;
  }
  return buffer;
}

bool Tracer::ThreadHasOpenSpan() { return t_context.span != kNoId; }

Tracer::Open Tracer::Begin(SpanKind kind, SpanSource source, uint32_t query,
                           uint32_t parent) {
  Open open;
  open.saved_parent = t_context.span;
  open.saved_query = t_context.query;
  open.span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open.span.kind = kind;
  open.span.source = source;
  if (t_context.span != kNoId) {
    open.span.parent = t_context.span;
    open.span.query = query != kNoId ? query : t_context.query;
  } else {
    open.span.parent = parent;
    open.span.query = query;
  }
  t_context.span = open.span.id;
  t_context.query = open.span.query;
  open.span.start_ns = NowNs();
  return open;
}

void Tracer::Close(Open open) {
  open.span.end_ns = NowNs();
  t_context.span = open.saved_parent;
  t_context.query = open.saved_query;
  if (open.span.id >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  LocalBuffer()->push_back(open.span);
}

void Tracer::RegisterInFlight(const qry::Query& query, const Span& query_span) {
  const uint64_t key = QueryContentHash(query);
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_.emplace(key, std::make_pair(query_span.query, query_span.id));
}

void Tracer::UnregisterInFlight(const qry::Query& query,
                                const Span& query_span) {
  const uint64_t key = QueryContentHash(query);
  std::lock_guard<std::mutex> lock(mu_);
  auto [begin, end] = in_flight_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second.second == query_span.id) {
      in_flight_.erase(it);
      return;
    }
  }
}

std::pair<uint32_t, uint32_t> Tracer::FindInFlight(
    const qry::Query& query) const {
  const uint64_t key = QueryContentHash(query);
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t best_span = kNoId;
  uint32_t best_query = kNoId;
  auto [begin, end] = in_flight_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (best_span == kNoId || it->second.second < best_span) {
      best_query = it->second.first;
      best_span = it->second.second;
    }
  }
  return {best_query, best_span};
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind, SpanSource source,
                       uint32_t query, uint32_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) open_ = tracer_->Begin(kind, source, query, parent);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->Close(open_);
}

int64_t SelfTimeNs(const Span& parent,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  for (auto& [start, end] : children) {
    start = std::max(start, parent.start_ns);
    end = std::min(end, parent.end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = INT64_MIN;
  for (const auto& [start, end] : children) {
    if (end <= start) continue;
    if (start > run_end) {
      if (run_end > run_start) covered += run_end - run_start;
      run_start = start;
      run_end = end;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (run_end > run_start) covered += run_end - run_start;
  return (parent.end_ns - parent.start_ns) - covered;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  std::unordered_map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != kNoId) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  for (const Span& span : spans) {
    SpanTotals& totals = summary.by[static_cast<int>(span.kind)]
                                   [static_cast<int>(span.source)];
    ++totals.count;
    totals.total_ns += span.end_ns - span.start_ns;
    auto it = children.find(span.id);
    totals.self_ns += it == children.end()
                          ? span.end_ns - span.start_ns
                          : SelfTimeNs(span, std::move(it->second));
  }
  return summary;
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,query,kind,source,start_ns,dur_ns\n");
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  auto id = [](uint32_t v) { return v == kNoId ? -1LL : static_cast<long long>(v); };
  for (const Span& s : spans) {
    std::fprintf(f, "%lld,%lld,%lld,%s,%s,%lld,%lld\n", id(s.id), id(s.parent),
                 id(s.query), SpanKindName(s.kind), SpanSourceName(s.source),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - s.start_ns));
  }
  return std::fclose(f) == 0;
}

// ---- TimedEstimator ------------------------------------------------------------

void TimedEstimator::PrepareQuery(const qry::Query& query) {
  if (tracer_ != nullptr && !Tracer::ThreadHasOpenSpan()) {
    context_ = tracer_->FindInFlight(query);
  }
  ScopedSpan span(tracer_, SpanKind::kPrepare, source_, context_.first,
                  context_.second);
  base_->PrepareQuery(query);
}

double TimedEstimator::EstimateSubset(const qry::Query& query, qry::RelSet rels) {
  ScopedSpan span(tracer_, SpanKind::kEstimate, source_, context_.first,
                  context_.second);
  return base_->EstimateSubset(query, rels);
}

void TimedEstimator::ObserveActual(const qry::Query& query, qry::RelSet rels,
                                   double actual) {
  ScopedSpan span(tracer_, SpanKind::kObserve, source_, context_.first,
                  context_.second);
  base_->ObserveActual(query, rels, actual);
}

}  // namespace lpce::perfbench
