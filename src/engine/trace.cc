#include "engine/trace.h"

#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

namespace lpce::eng {

using common::JsonParser;
using common::JsonValue;
using common::JsonWriter;
using common::RequireBool;
using common::RequireNumber;
using common::RequireString;

namespace {

/// Deterministic double formatting: 6 significant digits absorbs last-ulp
/// differences between build flags (fast-math/FMA vs generic) while keeping
/// q-errors and costs meaningfully comparable.
std::string FormatStable(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatWall(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void WriteRels(JsonWriter* w, qry::RelSet rels) {
  w->BeginArray();
  for (int pos = 0; pos < 32; ++pos) {
    if (qry::Contains(rels, pos)) w->Value(pos);
  }
  w->EndArray();
}

void WriteSpan(JsonWriter* w, const TraceSpan& s, TraceJsonMode mode) {
  w->BeginObject();
  w->Key("id");
  w->Value(s.id);
  w->Key("round");
  w->Value(s.round);
  w->Key("seq");
  w->Value(s.seq);
  w->Key("op");
  w->Value(s.op);
  w->Key("rels");
  WriteRels(w, s.rels);
  w->Key("est_card");
  w->NumberLiteral(FormatStable(s.est_card));
  w->Key("actual_card");
  w->Value(s.actual_card);
  w->Key("qerror");
  w->NumberLiteral(FormatStable(s.qerror));
  w->Key("outer_span");
  w->Value(s.outer_span);
  w->Key("inner_span");
  w->Value(s.inner_span);
  w->Key("outer_rows");
  w->Value(s.outer_rows);
  w->Key("inner_rows");
  w->Value(s.inner_rows);
  if (mode == TraceJsonMode::kFull) {
    w->Key("wall_seconds");
    w->NumberLiteral(FormatWall(s.wall_seconds));
  }
  w->EndObject();
}

void WriteEvent(JsonWriter* w, const TraceEvent& e, TraceJsonMode mode) {
  w->BeginObject();
  w->Key("kind");
  w->Value(TraceEventKindName(e.kind));
  w->Key("round");
  w->Value(e.round);
  w->Key("seq");
  w->Value(e.seq);
  switch (e.kind) {
    case TraceEventKind::kPlan:
      w->Key("plan_cost");
      w->NumberLiteral(FormatStable(e.plan_cost));
      w->Key("num_estimates");
      w->Value(e.num_estimates);
      w->Key("decision");
      w->Value(e.decision);
      // Plan-cache outcome rides on the plan event (instead of a separate
      // event kind) so seq numbering is identical with the cache on or off.
      if (!e.cache_decision.empty()) {
        w->Key("cache");
        w->Value(e.cache_decision);
        char fss[32];
        std::snprintf(fss, sizeof(fss), "%016llx",
                      static_cast<unsigned long long>(e.fss_hash));
        w->Key("fss");
        w->Value(std::string(fss));
      }
      break;
    case TraceEventKind::kCheckpoint:
      w->Key("rels");
      WriteRels(w, e.rels);
      w->Key("est_card");
      w->NumberLiteral(FormatStable(e.est_card));
      w->Key("actual_card");
      w->NumberLiteral(FormatStable(e.actual_card));
      w->Key("qerror");
      w->NumberLiteral(FormatStable(e.qerror));
      w->Key("threshold");
      w->NumberLiteral(FormatStable(e.threshold));
      w->Key("policy_allows");
      w->Value(e.policy_allows);
      w->Key("tripped");
      w->Value(e.tripped);
      break;
    case TraceEventKind::kRefinement:
      w->Key("rels");
      WriteRels(w, e.rels);
      w->Key("actual_card");
      w->NumberLiteral(FormatStable(e.actual_card));
      break;
    case TraceEventKind::kReoptimization:
      w->Key("rels");
      WriteRels(w, e.rels);
      w->Key("qerror");
      w->NumberLiteral(FormatStable(e.qerror));
      w->Key("threshold");
      w->NumberLiteral(FormatStable(e.threshold));
      w->Key("before_cost");
      w->NumberLiteral(FormatStable(e.before_cost));
      w->Key("plan_cost");
      w->NumberLiteral(FormatStable(e.plan_cost));
      w->Key("num_estimates");
      w->Value(e.num_estimates);
      w->Key("decision");
      w->Value(e.decision);
      // A round replayed from the plan cache (engine.cc): its plan, costs
      // and estimate count equal the live round's, only its wall time not.
      if (!e.cache_decision.empty()) {
        w->Key("cache");
        w->Value(e.cache_decision);
      }
      break;
    case TraceEventKind::kTelemetry: {
      char fss[32];
      std::snprintf(fss, sizeof(fss), "%016llx",
                    static_cast<unsigned long long>(e.fss_hash));
      w->Key("fss");
      w->Value(std::string(fss));
      w->Key("max_qerror");
      w->NumberLiteral(FormatStable(e.qerror));
      w->Key("num_qerrors");
      w->Value(e.num_estimates);
      if (!e.cache_decision.empty()) {
        w->Key("cache");
        w->Value(e.cache_decision);
      }
      w->Key("drifted");
      w->Value(e.drifted);
      w->Key("drift_ratio");
      w->NumberLiteral(FormatStable(e.drift_ratio));
      break;
    }
  }
  if (mode == TraceJsonMode::kFull) {
    w->Key("wall_seconds");
    w->NumberLiteral(FormatWall(e.wall_seconds));
  }
  w->EndObject();
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kPlan:
      return "plan";
    case TraceEventKind::kCheckpoint:
      return "checkpoint";
    case TraceEventKind::kRefinement:
      return "refinement";
    case TraceEventKind::kReoptimization:
      return "reoptimization";
    case TraceEventKind::kTelemetry:
      return "telemetry";
  }
  return "unknown";
}

void QueryTrace::SetQuery(const qry::Query& query) {
  num_tables_ = query.num_tables();
  num_joins_ = query.num_joins();
  num_predicates_ = static_cast<int>(query.predicates.size());
}

int QueryTrace::AddSpan(TraceSpan span) {
  span.id = static_cast<int>(spans_.size());
  span.round = round_;
  span.seq = next_seq_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void QueryTrace::AddEvent(TraceEvent event) {
  event.round = round_;
  event.seq = next_seq_++;
  events_.push_back(std::move(event));
}

int QueryTrace::num_reopts() const {
  int n = 0;
  for (const auto& e : events_) {
    if (e.kind == TraceEventKind::kReoptimization) ++n;
  }
  return n;
}

std::string QueryTrace::ToJson(TraceJsonMode mode) const {
  // Golden files diff better pretty-printed; the JSONL dump needs one line.
  const bool pretty = mode == TraceJsonMode::kDeterministic;
  JsonWriter w(pretty);
  w.BeginObject();
  w.Key("schema_version");
  w.Value(1);
  w.Key("query");
  w.BeginObject();
  w.Key("num_tables");
  w.Value(num_tables_);
  w.Key("num_joins");
  w.Value(num_joins_);
  w.Key("num_predicates");
  w.Value(num_predicates_);
  w.EndObject();
  w.Key("qerror_threshold");
  w.NumberLiteral(FormatStable(threshold_));
  w.Key("rounds");
  w.Value(round_ + 1);
  w.Key("num_reopts");
  w.Value(num_reopts());
  w.Key("result_rows");
  w.Value(result_rows_);
  w.Key("spans");
  w.BeginArray();
  for (const auto& s : spans_) WriteSpan(&w, s, mode);
  w.EndArray();
  w.Key("events");
  w.BeginArray();
  for (const auto& e : events_) {
    // Telemetry events carry observability-only state (drift flags depend on
    // the cross-query record history); they are appended after every
    // deterministic event, so skipping them here keeps deterministic output
    // byte-identical with telemetry on or off.
    if (mode == TraceJsonMode::kDeterministic &&
        e.kind == TraceEventKind::kTelemetry) {
      continue;
    }
    WriteEvent(&w, e, mode);
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

// ---- Validation -----------------------------------------------------------

namespace {

Status RequireRels(const JsonValue& obj) {
  const JsonValue* v = obj.Find("rels");
  if (v == nullptr || v->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("missing/non-array key 'rels'");
  }
  double prev = -1.0;
  for (const auto& e : v->arr) {
    if (e.type != JsonValue::Type::kNumber || e.num <= prev) {
      return Status::InvalidArgument("'rels' must be ascending positions");
    }
    prev = e.num;
  }
  return Status::Ok();
}

Status ValidateSpan(const JsonValue& span, int index) {
  if (span.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("span is not an object");
  }
  double id = 0, round = 0, outer = 0, inner = 0, qerror = 0, est = 0;
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "id", &id));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "round", &round));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "seq", nullptr));
  std::string op;
  LPCE_RETURN_IF_ERROR(RequireString(span, "op", &op));
  LPCE_RETURN_IF_ERROR(RequireRels(span));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "est_card", &est));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "actual_card", nullptr));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "qerror", &qerror));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "outer_span", &outer));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "inner_span", &inner));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "outer_rows", nullptr));
  LPCE_RETURN_IF_ERROR(RequireNumber(span, "inner_rows", nullptr));
  if (id != index) {
    return Status::InvalidArgument("span ids must be dense, ascending from 0");
  }
  if (op.empty()) return Status::InvalidArgument("span 'op' is empty");
  if (outer >= id || inner >= id) {
    return Status::InvalidArgument("span child references must point backward");
  }
  if ((outer < 0) != (inner < 0)) {
    return Status::InvalidArgument("span must have both children or neither");
  }
  if (qerror < 1.0) return Status::InvalidArgument("span qerror below 1");
  if (est < 0.0) return Status::InvalidArgument("span est_card negative");
  return Status::Ok();
}

Status ValidateEvent(const JsonValue& event) {
  if (event.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("event is not an object");
  }
  std::string kind;
  LPCE_RETURN_IF_ERROR(RequireString(event, "kind", &kind));
  LPCE_RETURN_IF_ERROR(RequireNumber(event, "round", nullptr));
  LPCE_RETURN_IF_ERROR(RequireNumber(event, "seq", nullptr));
  if (kind == "plan") {
    std::string decision;
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "plan_cost", nullptr));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "num_estimates", nullptr));
    LPCE_RETURN_IF_ERROR(RequireString(event, "decision", &decision));
    if (decision != "initial") {
      return Status::InvalidArgument("plan event decision must be 'initial'");
    }
    // Optional plan-cache fields (present only when a cache was active).
    const JsonValue* cache = event.Find("cache");
    if (cache != nullptr) {
      if (cache->type != JsonValue::Type::kString ||
          (cache->str != "hit" && cache->str != "miss")) {
        return Status::InvalidArgument("plan cache outcome must be hit/miss");
      }
      std::string fss;
      LPCE_RETURN_IF_ERROR(RequireString(event, "fss", &fss));
      if (fss.size() != 16) {
        return Status::InvalidArgument("plan 'fss' must be a 16-hex-digit hash");
      }
    }
  } else if (kind == "checkpoint") {
    LPCE_RETURN_IF_ERROR(RequireRels(event));
    double qerror = 0, threshold = 0;
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "est_card", nullptr));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "actual_card", nullptr));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "qerror", &qerror));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "threshold", &threshold));
    LPCE_RETURN_IF_ERROR(RequireBool(event, "policy_allows"));
    LPCE_RETURN_IF_ERROR(RequireBool(event, "tripped"));
    if (qerror < 1.0) return Status::InvalidArgument("checkpoint qerror below 1");
    if (threshold <= 0.0) {
      return Status::InvalidArgument("checkpoint threshold must be positive");
    }
  } else if (kind == "refinement") {
    LPCE_RETURN_IF_ERROR(RequireRels(event));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "actual_card", nullptr));
  } else if (kind == "reoptimization") {
    std::string decision;
    LPCE_RETURN_IF_ERROR(RequireRels(event));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "qerror", nullptr));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "threshold", nullptr));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "before_cost", nullptr));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "plan_cost", nullptr));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "num_estimates", nullptr));
    LPCE_RETURN_IF_ERROR(RequireString(event, "decision", &decision));
    if (decision != "continue" && decision != "restart") {
      return Status::InvalidArgument(
          "reoptimization decision must be continue/restart");
    }
    const JsonValue* cache = event.Find("cache");
    if (cache != nullptr &&
        (cache->type != JsonValue::Type::kString || cache->str != "replay")) {
      return Status::InvalidArgument(
          "reoptimization cache outcome must be replay");
    }
  } else if (kind == "telemetry") {
    std::string fss;
    double max_qerror = 0, ratio = 0;
    LPCE_RETURN_IF_ERROR(RequireString(event, "fss", &fss));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "max_qerror", &max_qerror));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "num_qerrors", nullptr));
    LPCE_RETURN_IF_ERROR(RequireBool(event, "drifted"));
    LPCE_RETURN_IF_ERROR(RequireNumber(event, "drift_ratio", &ratio));
    if (fss.size() != 16) {
      return Status::InvalidArgument("telemetry 'fss' must be a 16-hex-digit hash");
    }
    if (max_qerror < 0.0) {
      return Status::InvalidArgument("telemetry max_qerror negative");
    }
    if (ratio < 0.0) {
      return Status::InvalidArgument("telemetry drift_ratio negative");
    }
    const JsonValue* cache = event.Find("cache");
    if (cache != nullptr &&
        (cache->type != JsonValue::Type::kString ||
         (cache->str != "hit" && cache->str != "miss"))) {
      return Status::InvalidArgument("telemetry cache outcome must be hit/miss");
    }
  } else {
    return Status::InvalidArgument("unknown event kind '" + kind + "'");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateTraceJson(const std::string& json) {
  JsonValue root;
  std::string error;
  JsonParser parser(json);
  if (!parser.Parse(&root, &error)) {
    return Status::InvalidArgument("JSON parse error: " + error);
  }
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("trace root must be an object");
  }
  double version = 0;
  LPCE_RETURN_IF_ERROR(RequireNumber(root, "schema_version", &version));
  if (version != 1.0) {
    return Status::InvalidArgument("unsupported schema_version");
  }
  const JsonValue* query = root.Find("query");
  if (query == nullptr || query->type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("missing 'query' object");
  }
  LPCE_RETURN_IF_ERROR(RequireNumber(*query, "num_tables", nullptr));
  LPCE_RETURN_IF_ERROR(RequireNumber(*query, "num_joins", nullptr));
  LPCE_RETURN_IF_ERROR(RequireNumber(*query, "num_predicates", nullptr));
  LPCE_RETURN_IF_ERROR(RequireNumber(root, "qerror_threshold", nullptr));
  double rounds = 0, num_reopts = 0;
  LPCE_RETURN_IF_ERROR(RequireNumber(root, "rounds", &rounds));
  LPCE_RETURN_IF_ERROR(RequireNumber(root, "num_reopts", &num_reopts));
  LPCE_RETURN_IF_ERROR(RequireNumber(root, "result_rows", nullptr));

  const JsonValue* spans = root.Find("spans");
  if (spans == nullptr || spans->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("missing 'spans' array");
  }
  double prev_round = 0.0;
  for (size_t i = 0; i < spans->arr.size(); ++i) {
    Status st = ValidateSpan(spans->arr[i], static_cast<int>(i));
    if (!st.ok()) {
      return Status::InvalidArgument("span " + std::to_string(i) + ": " +
                                     st.message());
    }
    const double round = spans->arr[i].Find("round")->num;
    if (round < prev_round) {
      return Status::InvalidArgument("span rounds must be non-decreasing");
    }
    prev_round = round;
  }

  const JsonValue* events = root.Find("events");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("missing 'events' array");
  }
  int reopt_events = 0;
  for (size_t i = 0; i < events->arr.size(); ++i) {
    Status st = ValidateEvent(events->arr[i]);
    if (!st.ok()) {
      return Status::InvalidArgument("event " + std::to_string(i) + ": " +
                                     st.message());
    }
    if (events->arr[i].Find("kind")->str == "reoptimization") ++reopt_events;
  }
  if (reopt_events != static_cast<int>(num_reopts)) {
    return Status::InvalidArgument("num_reopts disagrees with event count");
  }
  if (num_reopts >= rounds) {
    return Status::InvalidArgument("rounds must exceed num_reopts");
  }
  return Status::Ok();
}

std::string DiffTraceJson(const std::string& expected, const std::string& actual) {
  auto split = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  };
  const auto exp = split(expected);
  const auto act = split(actual);
  std::ostringstream out;
  const size_t n = std::max(exp.size(), act.size());
  int shown = 0;
  for (size_t i = 0; i < n && shown < 40; ++i) {
    const std::string* e = i < exp.size() ? &exp[i] : nullptr;
    const std::string* a = i < act.size() ? &act[i] : nullptr;
    if (e != nullptr && a != nullptr && *e == *a) continue;
    out << "line " << (i + 1) << ":\n";
    if (e != nullptr) out << "  - " << *e << "\n";
    if (a != nullptr) out << "  + " << *a << "\n";
    ++shown;
  }
  if (shown == 0) return "(no differences)";
  return out.str();
}

bool TraceDumpEnabled() {
  const char* env = std::getenv("LPCE_TRACE");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

void MaybeDumpTrace(const QueryTrace& trace) {
  if (!TraceDumpEnabled()) return;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const char* dir_env = std::getenv("LPCE_TRACE_DIR");
  const std::string dir = dir_env != nullptr && dir_env[0] != '\0'
                              ? dir_env
                              : std::string("lpce_traces");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;  // best effort: tracing must never fail a query
  std::ofstream out(dir + "/traces.jsonl", std::ios::app);
  if (!out) return;
  out << trace.ToJson(TraceJsonMode::kFull) << "\n";
}

}  // namespace lpce::eng
