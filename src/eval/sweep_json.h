#ifndef GROUPFORM_EVAL_SWEEP_JSON_H_
#define GROUPFORM_EVAL_SWEEP_JSON_H_

// Machine-readable rendering of sweep results (DESIGN.md §11.3).
// `groupform_cli sweep --json-dir DIR` and every other bench (when the
// GF_BENCH_JSON environment variable names a directory) emit one
// `BENCH_<name>.json` document per run, so the perf trajectory is
// diffable across PRs. The per-sweep document (SweepResultToJson) contains only
// determinism-contract fields when the spec's record_seconds is off —
// byte-identical at every thread count — while the suite envelope
// (SweepSuiteToJson) carries the environment: git describe,
// GF_BENCH_SCALE, thread count, and the full solver registry.

#include <string>
#include <vector>

#include "eval/sweep.h"

namespace groupform::eval {

/// Minimal streaming JSON writer: explicit Begin/End nesting, automatic
/// commas, full string escaping, locale-independent number formatting
/// (doubles via std::to_chars — shortest round-trip form; NaN/Inf become
/// null, as JSON has no spelling for them). The writer trusts the caller
/// to nest correctly — it is an internal tool for the bench/eval layer,
/// not a general serializer.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Key inside an object; follow with exactly one value (or Begin*).
  JsonWriter& Key(const std::string& key);
  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(long long value);
  JsonWriter& Bool(bool value);
  /// Splices an already-serialized JSON value verbatim (with the usual
  /// comma handling). Used to embed per-sweep documents into the suite
  /// envelope without re-serializing them.
  JsonWriter& Raw(const std::string& fragment);

  const std::string& str() const { return out_; }

 private:
  void Comma();

  std::string out_;
  /// Whether the current nesting level already holds a value (needs a
  /// comma before the next one); back() is the innermost level.
  std::vector<bool> has_value_ = {false};
  bool pending_key_ = false;
};

/// JSON-escapes `text` (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& text);

/// One sweep as a JSON object: the frozen grid (name, axis, xs, series
/// with their options, metric labels, repetitions, seed) and every cell
/// (x, solver, label, state, status code/message, objective, seconds,
/// metric values). Deterministic: byte-identical at every thread count
/// when the sweep ran with record_seconds off.
std::string SweepResultToJson(const SweepResult& result);

/// The full bench document: environment envelope (schema, bench name, git
/// describe, GF_BENCH_SCALE, thread count, every registered solver name)
/// plus one SweepResultToJson object per sweep under "sweeps".
std::string SweepSuiteToJson(const std::string& bench,
                             const std::vector<SweepResult>& results);

/// Opens the standard envelope fields (schema/bench/git_describe/
/// gf_bench_scale/threads/registry) into `writer`, which must be inside a
/// freshly begun object. Non-sweep benches (table3, the user study, the
/// scaling bench) use this to emit the same preamble before their own
/// payload fields.
void AppendBenchEnvelope(JsonWriter& writer, const std::string& bench);

/// `git describe --always --dirty` captured at configure time; the
/// GF_GIT_DESCRIBE environment variable overrides (for stale builds),
/// "unknown" when neither is available.
std::string GitDescribe();

/// $GF_BENCH_JSON, the directory the non-sweep benches write to; "" when
/// unset.
std::string BenchJsonDir();

/// Writes `json` to <dir>/BENCH_<bench>.json and prints "wrote <path>";
/// an empty `dir` disables emission. Returns the exit-code contribution:
/// 0 when written or disabled, 1 (with the reason on stderr) when the
/// directory is missing or the write fails — a requested-but-missing
/// document must fail the run.
int EmitBenchJson(const std::string& bench, const std::string& json,
                  const std::string& dir = BenchJsonDir());

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_SWEEP_JSON_H_
