#include "obs/event_log.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace dagsched {

const char* obs_event_kind_name(ObsEventKind kind) {
  switch (kind) {
    case ObsEventKind::kArrival: return "arrival";
    case ObsEventKind::kAdmit: return "admit";
    case ObsEventKind::kDefer: return "defer";
    case ObsEventKind::kDrop: return "drop";
    case ObsEventKind::kSchedule: return "schedule";
    case ObsEventKind::kComplete: return "complete";
    case ObsEventKind::kExpire: return "expire";
    case ObsEventKind::kPreempt: return "preempt";
    case ObsEventKind::kProcDown: return "proc-down";
    case ObsEventKind::kProcUp: return "proc-up";
    case ObsEventKind::kNodeRestart: return "node-restart";
    case ObsEventKind::kWorkOverrun: return "work-overrun";
    case ObsEventKind::kReadmitFail: return "readmit-fail";
    case ObsEventKind::kEngineAbort: return "engine-abort";
    case ObsEventKind::kOverload: return "overload";
  }
  return "?";
}

std::optional<ObsEventKind> obs_event_kind_from_name(std::string_view name) {
  if (name == "arrival") return ObsEventKind::kArrival;
  if (name == "admit") return ObsEventKind::kAdmit;
  if (name == "defer") return ObsEventKind::kDefer;
  if (name == "drop") return ObsEventKind::kDrop;
  if (name == "schedule") return ObsEventKind::kSchedule;
  if (name == "complete") return ObsEventKind::kComplete;
  if (name == "expire") return ObsEventKind::kExpire;
  if (name == "preempt") return ObsEventKind::kPreempt;
  if (name == "proc-down") return ObsEventKind::kProcDown;
  if (name == "proc-up") return ObsEventKind::kProcUp;
  if (name == "node-restart") return ObsEventKind::kNodeRestart;
  if (name == "work-overrun") return ObsEventKind::kWorkOverrun;
  if (name == "readmit-fail") return ObsEventKind::kReadmitFail;
  if (name == "engine-abort") return ObsEventKind::kEngineAbort;
  if (name == "overload") return ObsEventKind::kOverload;
  return std::nullopt;
}

double DecisionEvent::detail_value(std::string_view key,
                                   double fallback) const {
  for (const auto& [name, value] : detail) {
    if (name == key) return value;
  }
  return fallback;
}

namespace {

/// The reference encoding: a JsonValue object tree, written compactly.
void write_event_json_tree(std::ostream& out, const DecisionEvent& event) {
  JsonValue line = JsonValue::object();
  line.set("t", JsonValue(event.time));
  line.set("job", JsonValue(static_cast<double>(event.job)));
  line.set("kind", JsonValue(obs_event_kind_name(event.kind)));
  if (!event.reason.empty()) line.set("reason", JsonValue(event.reason));
  if (!event.detail.empty()) {
    JsonValue detail = JsonValue::object();
    for (const auto& [key, value] : event.detail) {
      detail.set(key, JsonValue(value));
    }
    line.set("detail", std::move(detail));
  }
  line.write(out);
  out << '\n';
}

/// True if JsonValue writes `text` between its quotes unchanged.
bool needs_no_escape(std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      return false;
    }
  }
  return true;
}

/// True if the direct encoding below produces the tree's bytes: no string
/// needs escaping and no detail key repeats (JsonValue::set is last-wins).
bool direct_encoding_matches(const DecisionEvent& event) {
  if (!needs_no_escape(event.reason)) return false;
  for (std::size_t i = 0; i < event.detail.size(); ++i) {
    if (!needs_no_escape(event.detail[i].first)) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (event.detail[j].first == event.detail[i].first) return false;
    }
  }
  return true;
}

/// Appends `value` exactly as json_number_to_string formats it, without
/// its temporary string in the common integral case.
void append_number(std::string& out, double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15 &&
      !(value == 0.0 && std::signbit(value))) {
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer),
                                      static_cast<long long>(value));
    out.append(buffer, result.ptr);
  } else {
    out += json_number_to_string(value);
  }
}

}  // namespace

void write_event_jsonl(std::ostream& out, const DecisionEvent& event) {
  if (!direct_encoding_matches(event)) {
    write_event_json_tree(out, event);
    return;
  }
  thread_local std::string line;
  line.clear();
  line += "{\"t\":";
  append_number(line, event.time);
  line += ",\"job\":";
  append_number(line, static_cast<double>(event.job));
  line += ",\"kind\":\"";
  line += obs_event_kind_name(event.kind);
  line += '"';
  if (!event.reason.empty()) {
    line += ",\"reason\":\"";
    line += event.reason;
    line += '"';
  }
  if (!event.detail.empty()) {
    line += ",\"detail\":{";
    for (std::size_t i = 0; i < event.detail.size(); ++i) {
      if (i > 0) line += ',';
      line += '"';
      line += event.detail[i].first;
      line += "\":";
      append_number(line, event.detail[i].second);
    }
    line += '}';
  }
  line += "}\n";
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

const std::vector<DecisionEvent>& EventLog::events() const {
  DS_CHECK_MSG(streamed_ == 0,
               "EventLog::events() on a streamed log: its "
                   << streamed_ << " streamed events were not kept");
  return events_;
}

void EventLog::write_jsonl(std::ostream& out) const {
  for (const DecisionEvent& event : events()) write_event_jsonl(out, event);
}

std::optional<std::vector<DecisionEvent>> EventLog::parse_jsonl(
    std::istream& in, std::string* error) {
  std::vector<DecisionEvent> events;
  std::string line;
  std::size_t line_number = 0;
  auto fail = [error, &line_number](const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_number) + ": " + message;
    }
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const JsonParseResult parsed = json_parse(line);
    if (!parsed.ok) return fail(parsed.error);
    const JsonValue& doc = parsed.value;
    if (!doc.is_object()) return fail("event is not a JSON object");
    const JsonValue* t = doc.find("t");
    const JsonValue* job = doc.find("job");
    const JsonValue* kind = doc.find("kind");
    if (t == nullptr || !t->is_number() || job == nullptr ||
        !job->is_number() || kind == nullptr || !kind->is_string()) {
      return fail("missing or mistyped t/job/kind");
    }
    const auto parsed_kind = obs_event_kind_from_name(kind->as_string());
    if (!parsed_kind) return fail("unknown kind '" + kind->as_string() + "'");

    DecisionEvent event;
    event.time = t->as_number();
    event.job = static_cast<JobId>(job->as_number());
    event.kind = *parsed_kind;
    if (const JsonValue* reason = doc.find("reason")) {
      if (!reason->is_string()) return fail("reason is not a string");
      event.reason = reason->as_string();
    }
    if (const JsonValue* detail = doc.find("detail")) {
      if (!detail->is_object()) return fail("detail is not an object");
      for (const auto& [key, value] : detail->members()) {
        if (!value.is_number()) return fail("detail value is not a number");
        event.detail.emplace_back(key, value.as_number());
      }
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace dagsched
