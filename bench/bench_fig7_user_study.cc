// Figure 7(a,b,c) — the user study, simulated (see DESIGN.md
// substitutions): 50 synthetic AMT workers rate 10 POIs; similar /
// dissimilar / random samples of 10 are partitioned into 3 groups by
// GRD-LM and Baseline-LM (Min and Sum); 10 raters per HIT score both
// groupings. Expected shapes: GRD satisfaction >= Baseline everywhere,
// the gap widest for dissimilar populations, and ~80% of raters prefer
// GRD (paper: 80% Min, 83.3% Sum).
//
// Not a solver sweep — the numbers come from the AMT simulator, not
// eval::RunSweep — but it emits the same machine-readable document:
// GF_BENCH_JSON=<dir> writes BENCH_fig7.json.
#include <cstdio>

#include "common/strings.h"
#include "common/table_printer.h"
#include "eval/paper_sweeps.h"
#include "eval/sweep_json.h"
#include "grouprec/semantics.h"
#include "userstudy/amt_simulator.h"

int main() {
  using namespace groupform;
  const userstudy::AmtSimulator::Options options;
  eval::PrintBenchHeader(
      "Figure 7: user study (simulated AMT)",
      "paper Fig. 7(a,b,c); 50 workers, 10 POIs, ell=3, samples of 10",
      common::StrFormat("worker-pool seed %llu",
                        static_cast<unsigned long long>(options.seed)));

  const userstudy::AmtSimulator simulator(options);
  const auto study = simulator.Run();
  if (!study.ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 study.status().ToString().c_str());
    return 1;
  }

  eval::JsonWriter json;
  json.BeginObject();
  eval::AppendBenchEnvelope(json, "fig7");
  json.Key("study_seed").Int(static_cast<long long>(options.seed));
  json.Key("prefer_grd_min_pct").Number(study->prefer_grd_min_pct);
  json.Key("prefer_grd_sum_pct").Number(study->prefer_grd_sum_pct);

  std::printf("(a) %% of raters preferring each method\n");
  {
    common::TablePrinter table({"method", "% users prefer"});
    table.AddRow({"GRD-LM-MIN",
                  common::StrFormat("%.1f", study->prefer_grd_min_pct)});
    table.AddRow({"Baseline-LM-MIN",
                  common::StrFormat("%.1f",
                                    100.0 - study->prefer_grd_min_pct)});
    table.AddRow({"GRD-LM-SUM",
                  common::StrFormat("%.1f", study->prefer_grd_sum_pct)});
    table.AddRow({"Baseline-LM-SUM",
                  common::StrFormat("%.1f",
                                    100.0 - study->prefer_grd_sum_pct)});
    table.Print();
  }

  json.Key("hits").BeginArray();
  for (const auto aggregation :
       {grouprec::Aggregation::kMin, grouprec::Aggregation::kSum}) {
    std::printf("\n(%c) average user satisfaction, %s aggregation "
                "(mean +/- stderr over 10 raters)\n",
                aggregation == grouprec::Aggregation::kMin ? 'b' : 'c',
                grouprec::AggregationToString(aggregation));
    common::TablePrinter table({"sample", "GRD-LM", "Baseline-LM"});
    for (const auto& hit : study->hits) {
      if (hit.aggregation != aggregation) continue;
      table.AddRow(
          {userstudy::AmtSimulator::SampleKindToString(hit.sample),
           common::StrFormat("%.2f +/- %.2f", hit.avg_satisfaction_grd,
                             hit.stderr_grd),
           common::StrFormat("%.2f +/- %.2f",
                             hit.avg_satisfaction_baseline,
                             hit.stderr_baseline)});
      json.BeginObject();
      json.Key("aggregation")
          .String(grouprec::AggregationToString(aggregation));
      json.Key("sample").String(
          userstudy::AmtSimulator::SampleKindToString(hit.sample));
      json.Key("avg_satisfaction_grd").Number(hit.avg_satisfaction_grd);
      json.Key("stderr_grd").Number(hit.stderr_grd);
      json.Key("avg_satisfaction_baseline")
          .Number(hit.avg_satisfaction_baseline);
      json.Key("stderr_baseline").Number(hit.stderr_baseline);
      json.EndObject();
    }
    table.Print();
  }
  json.EndArray();
  json.EndObject();

  return eval::EmitBenchJson("fig7", json.str());
}
