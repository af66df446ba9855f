#include "obs/trace.h"

#include <cstdio>

#include "common/string_util.h"

namespace dyno::obs {

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

TraceEvent&& TraceEvent::Arg(const char* key, const std::string& value) && {
  args.emplace_back(key, JsonQuote(value));
  return std::move(*this);
}

TraceEvent&& TraceEvent::ArgInt(const char* key, int64_t value) && {
  args.emplace_back(key, StrFormat("%lld", (long long)value));
  return std::move(*this);
}

TraceEvent&& TraceEvent::ArgDouble(const char* key, double value) && {
  // %.6g keeps renderings compact and platform-stable for the value ranges
  // traced here (row counts, error ratios, costs).
  args.emplace_back(key, StrFormat("%.6g", value));
  return std::move(*this);
}

TraceEvent&& TraceEvent::ArgBool(const char* key, bool value) && {
  args.emplace_back(key, value ? "true" : "false");
  return std::move(*this);
}

void TraceSink::Record(TraceEvent event) {
  events_.push_back(std::move(event));
}

namespace {

void AppendArgsObject(const TraceEvent& e, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < e.args.size(); ++i) {
    if (i > 0) *out += ",";
    *out += JsonQuote(e.args[i].first);
    *out += ":";
    *out += e.args[i].second;
  }
  *out += "}";
}

}  // namespace

std::string TraceSink::SerializeJsonl() const {
  std::string out = StrFormat("{\"schema\":%d,\"clock\":\"sim_ms\"}\n",
                              kTraceSchemaVersion);
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out += StrFormat("{\"seq\":%zu,\"ts\":%lld,", i, (long long)e.start_ms);
    if (e.dur_ms >= 0) out += StrFormat("\"dur\":%lld,", (long long)e.dur_ms);
    out += StrFormat("\"lane\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"args\":",
                     static_cast<int>(e.lane), e.category, e.name);
    AppendArgsObject(e, &out);
    out += "}\n";
  }
  return out;
}

std::string TraceSink::SerializeChromeTrace() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  static const char* kLaneNames[] = {"driver", "optimizer", "pilot", "engine",
                                     "tasks",  "service"};
  for (size_t lane = 0; lane < 6; ++lane) {
    out += StrFormat(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":%zu,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"%s\"}},\n",
        lane, kLaneNames[lane]);
  }
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) out += ",\n";
    // Sim-ms exported as trace-event microseconds for legible rendering.
    if (e.dur_ms >= 0) {
      out += StrFormat(
          "{\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,\"pid\":0,\"tid\":%d,"
          "\"cat\":\"%s\",\"name\":\"%s\",\"args\":",
          (long long)e.start_ms * 1000, (long long)e.dur_ms * 1000,
          static_cast<int>(e.lane), e.category, e.name);
    } else {
      out += StrFormat(
          "{\"ph\":\"i\",\"ts\":%lld,\"pid\":0,\"tid\":%d,\"s\":\"t\","
          "\"cat\":\"%s\",\"name\":\"%s\",\"args\":",
          (long long)e.start_ms * 1000, static_cast<int>(e.lane), e.category,
          e.name);
    }
    AppendArgsObject(e, &out);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

namespace {

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("cannot open %s for writing",
                                      path.c_str()));
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int close_rc = std::fclose(f);
  if (written != contents.size() || close_rc != 0) {
    return Status::Internal(StrFormat("short write to %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace

Status TraceSink::WriteJsonl(const std::string& path) const {
  return WriteFile(path, SerializeJsonl());
}

Status TraceSink::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, SerializeChromeTrace());
}

}  // namespace dyno::obs
