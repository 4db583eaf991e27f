#include "eval/sweep_json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/solver_registry.h"
#include "solvers/builtin.h"

#ifndef GROUPFORM_GIT_DESCRIBE
#define GROUPFORM_GIT_DESCRIBE "unknown"
#endif

namespace groupform::eval {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
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
          out += common::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes "key": — no comma
  }
  if (has_value_.back()) out_ += ',';
  has_value_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Comma();
  out_ += '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Comma();
  out_ += '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  Comma();
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Comma();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Comma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  // std::to_chars: shortest round-trip representation, and immune to
  // LC_NUMERIC (printf %g would emit a comma decimal point under e.g.
  // de_DE, producing invalid JSON).
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc()) {
    out_ += "null";
    return *this;
  }
  out_.append(buffer, end);
  return *this;
}

JsonWriter& JsonWriter::Int(long long value) {
  Comma();
  out_ += common::StrFormat("%lld", value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Comma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& fragment) {
  Comma();
  out_ += fragment;
  return *this;
}

std::string GitDescribe() {
  const char* env = std::getenv("GF_GIT_DESCRIBE");
  if (env != nullptr && env[0] != '\0') return env;
  return GROUPFORM_GIT_DESCRIBE;
}

std::string SweepResultToJson(const SweepResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("groupform.sweep/1");
  w.Key("sweep").String(result.name);
  w.Key("title").String(result.title);
  w.Key("axis").String(result.axis);
  w.Key("xs").BeginArray();
  for (const int x : result.xs) w.Int(x);
  w.EndArray();
  w.Key("repetitions").Int(result.repetitions);
  w.Key("seed").Int(static_cast<long long>(result.seed));
  w.Key("record_seconds").Bool(result.record_seconds);
  w.Key("metrics").BeginArray();
  for (const auto& label : result.metric_labels) w.String(label);
  w.EndArray();
  w.Key("series").BeginArray();
  for (const auto& series : result.series) {
    w.BeginObject();
    w.Key("solver").String(series.solver);
    w.Key("label").String(series.label);
    w.Key("user_cap").Int(series.user_cap);
    w.Key("group_cap").Int(series.group_cap);
    w.Key("options").BeginObject();
    for (const auto& [key, value] : series.options.entries()) {
      w.Key(key).String(value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("cells").BeginArray();
  for (const auto& cell : result.cells) {
    w.BeginObject();
    w.Key("x").Int(cell.x);
    w.Key("solver").String(cell.solver);
    w.Key("label").String(cell.label);
    w.Key("state").String(SweepCellStateToString(cell.state));
    w.Key("code").String(common::StatusCodeToString(cell.status.code()));
    if (cell.state == SweepCellState::kOk) {
      w.Key("objective").Number(cell.objective);
      w.Key("seconds").Number(cell.seconds);
      w.Key("values").BeginArray();
      for (const double value : cell.values) w.Number(value);
      w.EndArray();
    } else {
      w.Key("error").String(cell.status.message());
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void AppendBenchEnvelope(JsonWriter& writer, const std::string& bench) {
  solvers::EnsureBuiltinSolversRegistered();
  writer.Key("schema").String("groupform.bench/1");
  writer.Key("bench").String(bench);
  writer.Key("git_describe").String(GitDescribe());
  // A malformed GF_BENCH_SCALE has already failed every bench that
  // scales; the rest (fig7, micro_core) run unscaled.
  writer.Key("gf_bench_scale").Number(BenchScale().value_or(1.0));
  writer.Key("threads").Int(common::ThreadPool::Shared().num_threads());
  writer.Key("registry").BeginArray();
  for (const auto& name : core::SolverRegistry::Global().Names()) {
    writer.String(name);
  }
  writer.EndArray();
}

std::string SweepSuiteToJson(const std::string& bench,
                             const std::vector<SweepResult>& results) {
  JsonWriter w;
  w.BeginObject();
  AppendBenchEnvelope(w, bench);
  w.Key("all_ok").Bool(SweepSuiteExitCode(results) == 0);
  w.Key("sweeps").BeginArray();
  for (const auto& result : results) {
    // Splice each per-sweep document verbatim so the byte-identical
    // contract of SweepResultToJson carries into the envelope.
    w.Raw(SweepResultToJson(result));
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string BenchJsonDir() {
  const char* dir = std::getenv("GF_BENCH_JSON");
  return dir == nullptr ? std::string() : std::string(dir);
}

int EmitBenchJson(const std::string& bench, const std::string& json,
                  const std::string& dir) {
  if (dir.empty()) return 0;
  const std::string path = dir + "/BENCH_" + bench + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr,
                 "writing JSON: cannot open %s for writing (does the "
                 "directory exist?)\n",
                 path.c_str());
    return 1;
  }
  const std::size_t written =
      std::fwrite(json.data(), 1, json.size(), file);
  const bool newline_ok = std::fputc('\n', file) != EOF;
  if (std::fclose(file) != 0 || written != json.size() || !newline_ok) {
    std::fprintf(stderr, "writing JSON: short write to %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace groupform::eval
