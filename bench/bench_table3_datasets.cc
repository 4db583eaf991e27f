// Table 3 — dataset descriptions. The paper lists Yahoo! Music (200,000
// users / 136,736 songs) and MovieLens (71,567 users / 10,681 movies);
// this binary generates the synthetic stand-ins at a configurable scale
// and prints their statistics, so every other bench's data provenance is
// reproducible. GF_BENCH_JSON=<dir> writes BENCH_table3.json.
#include <cstdio>

#include "common/strings.h"
#include "common/table_printer.h"
#include "data/dataset_stats.h"
#include "data/synthetic.h"
#include "eval/paper_sweeps.h"
#include "eval/sweep_json.h"

int main() {
  using namespace groupform;

  const auto scale_or = eval::BenchScale();
  if (!scale_or.ok()) {
    std::fprintf(stderr, "%s\n", scale_or.status().ToString().c_str());
    return 2;
  }
  const double scale = *scale_or;
  eval::PrintBenchHeader(
      "Table 3: dataset descriptions",
      "paper: Yahoo! Music 200,000 x 136,736; MovieLens 71,567 x 10,681",
      common::StrFormat("synthetic stand-ins at GF_BENCH_SCALE=%.2f "
                        "(paper scale needs ~8)",
                        scale));

  const auto yahoo_config = data::YahooMusicLikeConfig(
      eval::Scaled(25'000, scale), eval::Scaled(17'000, scale));
  const auto movielens_config = data::MovieLensLikeConfig(
      eval::Scaled(9'000, scale), eval::Scaled(1'400, scale));

  common::TablePrinter table({"dataset", "# users", "# items", "# ratings",
                              "density", "mean rating"});
  eval::JsonWriter json;
  json.BeginObject();
  eval::AppendBenchEnvelope(json, "table3");
  json.Key("datasets").BeginArray();
  for (const auto& [name, config] :
       {std::pair{"Yahoo! Music (synthetic)", yahoo_config},
        std::pair{"MovieLens (synthetic)", movielens_config}}) {
    const auto matrix = data::GenerateLatentFactor(config);
    const auto stats = data::ComputeStats(matrix, name);
    table.AddRow({name, common::StrFormat("%d", stats.num_users),
                  common::StrFormat("%d", stats.num_items),
                  common::StrFormat("%lld",
                                    static_cast<long long>(
                                        stats.num_ratings)),
                  common::StrFormat("%.5f", stats.density),
                  common::StrFormat("%.2f", stats.mean_rating)});
    std::printf("%s\n", data::StatsToString(stats).c_str());
    json.BeginObject();
    json.Key("name").String(name);
    json.Key("users").Int(stats.num_users);
    json.Key("items").Int(stats.num_items);
    json.Key("ratings").Int(static_cast<long long>(stats.num_ratings));
    json.Key("density").Number(stats.density);
    json.Key("mean_rating").Number(stats.mean_rating);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  table.Print();

  return eval::EmitBenchJson("table3", json.str());
}
