// Million-user instance-storage bench — not a paper figure: prices the
// storage backends of DESIGN.md §14 against each other on one
// GenerateScaleSparse population. For each backend (dense CSR, compact
// int8, compact int16, GFCM loaded in-RAM, GFCM mmapped) it reports
//
//   * bytes/user (ByteSize for in-RAM backends, the fixed resident
//     overhead the cache is charged for mmap — the kernel owns those
//     pages);
//   * build/load wall time;
//   * full-catalogue group top-k cost through
//     grouprec::GroupScorer::TopKAllItems, as rating cells visited per
//     second and as microseconds per group top-k;
//   * whether the backend's top-k lists are identical to dense (the
//     generator emits integer-grid ratings, which the quantizer
//     round-trips exactly, so every backend must agree item-for-item
//     AND score-for-score).
//
// The headline the snapshot pins: compact-int8 bytes/user at least 4x
// below dense (3-byte cells vs 16-byte RatingEntry). Sizes scale with
// GF_BENCH_SCALE (1.0 = one million users); the final line is the
// machine-readable BENCH_scale_instance.json document.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "data/binary_io.h"
#include "data/compact_matrix.h"
#include "data/rating_store.h"
#include "data/synthetic.h"
#include "eval/paper_sweeps.h"
#include "eval/sweep_json.h"
#include "grouprec/group_scorer.h"

namespace {

using namespace groupform;

/// VmRSS from /proc/self/status in bytes; 0 when unreadable (non-Linux).
/// A coarse resident-set proxy: good enough to show mmap loads not
/// paying the payload until pages are touched.
long long CurrentRssBytes() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1) break;
  }
  std::fclose(file);
  return kb * 1024;
}

/// A handful of mid-population probe groups (8 members, strided so rows
/// differ) shared by the throughput and identity measurements.
std::vector<std::vector<UserId>> ProbeGroups(std::int32_t num_users) {
  std::vector<std::vector<UserId>> groups;
  for (int g = 0; g < 4; ++g) {
    std::vector<UserId> members;
    for (int i = 0; i < 8; ++i) {
      members.push_back(static_cast<UserId>(
          (static_cast<std::int64_t>(g) * num_users / 4 +
           static_cast<std::int64_t>(i) * 97) %
          num_users));
    }
    groups.push_back(std::move(members));
  }
  return groups;
}

struct ScanResult {
  double cells_per_sec = 0.0;
  double us_per_group = 0.0;
  std::vector<grouprec::GroupTopK> lists;
};

/// Scores every probe group's full catalogue `reps` times through
/// TopKAllItems and returns throughput plus the (rep-invariant) lists.
ScanResult ScanThroughput(const data::RatingStore& store,
                          const std::vector<std::vector<UserId>>& groups,
                          int reps) {
  grouprec::GroupScorer::Options options;
  grouprec::GroupScorer scorer(store, options);
  ScanResult result;
  std::int64_t cells = 0;
  for (const auto& group : groups) {
    for (const UserId u : group) cells += store.NumRatingsOf(u);
  }
  // One untimed pass first: the scorer sizes its per-thread scratch on
  // first use, a one-off cost per thread rather than per group.
  for (const auto& group : groups) scorer.TopKAllItems(group, /*k=*/10);
  common::Stopwatch stopwatch;
  for (int rep = 0; rep < reps; ++rep) {
    result.lists.clear();
    for (const auto& group : groups) {
      result.lists.push_back(scorer.TopKAllItems(group, /*k=*/10));
    }
  }
  const double seconds = stopwatch.ElapsedSeconds();
  result.cells_per_sec =
      seconds > 0.0 ? static_cast<double>(cells) * reps / seconds : 0.0;
  result.us_per_group =
      seconds * 1e6 / static_cast<double>(reps * groups.size());
  return result;
}

bool SameLists(const std::vector<grouprec::GroupTopK>& a,
               const std::vector<grouprec::GroupTopK>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (a[g].items.size() != b[g].items.size()) return false;
    for (std::size_t i = 0; i < a[g].items.size(); ++i) {
      if (a[g].items[i].item != b[g].items[i].item ||
          a[g].items[i].score != b[g].items[i].score) {
        return false;
      }
    }
  }
  return true;
}

struct BackendRow {
  std::string name;
  std::int64_t bytes = 0;          // full in-RAM footprint (ByteSize)
  std::int64_t charged_bytes = 0;  // what the serve cache is charged
  double load_seconds = 0.0;
  double scan_cells_per_sec = 0.0;
  double topk_us_per_group = 0.0;
  long long rss_delta_bytes = 0;
  bool topk_identical = true;
};

}  // namespace

int main() {
  const auto scale_or = eval::BenchScale();
  if (!scale_or.ok()) {
    std::fprintf(stderr, "%s\n", scale_or.status().ToString().c_str());
    return 2;
  }
  const double scale = *scale_or;
  eval::PrintBenchHeader(
      "scale_instance", "DESIGN.md §14 (storage backends)",
      "bytes/user, load time, and TopKAllItems cost of the "
      "dense, compact, and mmap backends on a GenerateScaleSparse "
      "population; GF_BENCH_SCALE 1.0 = one million users");

  data::ScaleConfig config;
  config.num_users = eval::Scaled(1'000'000, scale, /*floor=*/1000);
  config.num_items = eval::Scaled(20'000, scale, /*floor=*/500);
  if (config.num_items > 65535) config.num_items = 65535;
  // A top-k costs microseconds, so many reps keep the timer resolution
  // out of the per-group figure.
  const int reps = 500;

  std::vector<BackendRow> rows;
  const auto groups = ProbeGroups(config.num_users);

  // Dense: the baseline everything else is priced against.
  long long rss_before = CurrentRssBytes();
  common::Stopwatch build_watch;
  const data::RatingMatrix dense = data::GenerateScaleSparse(config);
  BackendRow dense_row;
  dense_row.name = "dense";
  dense_row.load_seconds = build_watch.ElapsedSeconds();
  dense_row.bytes = dense.ByteSize();
  dense_row.charged_bytes = dense.ByteSize();
  dense_row.rss_delta_bytes = CurrentRssBytes() - rss_before;
  const ScanResult dense_scan =
      ScanThroughput(data::RatingStore(dense), groups, reps);
  dense_row.scan_cells_per_sec = dense_scan.cells_per_sec;
  dense_row.topk_us_per_group = dense_scan.us_per_group;
  rows.push_back(dense_row);

  const auto measure_compact = [&](const std::string& name,
                                   const data::CompactRatingMatrix& compact,
                                   double load_seconds,
                                   long long rss_delta) {
    BackendRow row;
    row.name = name;
    row.load_seconds = load_seconds;
    row.bytes = compact.ByteSize();
    row.charged_bytes = compact.ResidentBytes();
    row.rss_delta_bytes = rss_delta;
    const ScanResult scan =
        ScanThroughput(data::RatingStore(compact), groups, reps);
    row.scan_cells_per_sec = scan.cells_per_sec;
    row.topk_us_per_group = scan.us_per_group;
    row.topk_identical = SameLists(dense_scan.lists, scan.lists);
    rows.push_back(row);
  };

  // Compact int8 / int16, quantized straight from the dense matrix.
  rss_before = CurrentRssBytes();
  common::Stopwatch q8_watch;
  const auto compact8 =
      data::CompactRatingMatrix::FromMatrix(dense, /*rating_bits=*/8);
  measure_compact("compact8", compact8, q8_watch.ElapsedSeconds(),
                  CurrentRssBytes() - rss_before);
  {
    common::Stopwatch q16_watch;
    const auto compact16 =
        data::CompactRatingMatrix::FromMatrix(dense, /*rating_bits=*/16);
    measure_compact("compact16", compact16, q16_watch.ElapsedSeconds(), 0);
  }

  // GFCM on disk: the serving path for instances bigger than the cache.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/groupform_bench_scale.gfcm";
  std::int64_t file_bytes = 0;
  {
    const auto saved = data::SaveCompactBinary(compact8, path);
    if (!saved.ok()) {
      std::fprintf(stderr, "SaveCompactBinary: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file != nullptr) {
      std::fseek(file, 0, SEEK_END);
      file_bytes = std::ftell(file);
      std::fclose(file);
    }
  }
  {
    common::Stopwatch load_watch;
    const auto loaded =
        data::LoadCompactBinary(path, data::CompactReadMode::kInMemory);
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadCompactBinary(kInMemory): %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    measure_compact("gfcm_inram", *loaded, load_watch.ElapsedSeconds(), 0);
  }
  {
    rss_before = CurrentRssBytes();
    common::Stopwatch map_watch;
    const auto mapped =
        data::LoadCompactBinary(path, data::CompactReadMode::kMmap);
    if (!mapped.ok()) {
      std::fprintf(stderr, "LoadCompactBinary(kMmap): %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    measure_compact("mmap", *mapped, map_watch.ElapsedSeconds(),
                    CurrentRssBytes() - rss_before);
  }
  std::remove(path.c_str());

  const double dense_per_user =
      static_cast<double>(rows[0].bytes) / config.num_users;
  const double compact8_per_user =
      static_cast<double>(rows[1].bytes) / config.num_users;
  const double reduction = compact8_per_user > 0.0
                               ? dense_per_user / compact8_per_user
                               : 0.0;

  common::TablePrinter table({"backend", "bytes/user", "charged MB",
                              "load s", "Mcells/s", "us/topk",
                              "topk=dense"});
  for (const auto& row : rows) {
    table.AddRow({row.name,
                  common::StrFormat("%.1f", static_cast<double>(row.bytes) /
                                                config.num_users),
                  common::StrFormat("%.2f", static_cast<double>(
                                                row.charged_bytes) /
                                                (1024.0 * 1024.0)),
                  common::StrFormat("%.3f", row.load_seconds),
                  common::StrFormat("%.1f",
                                    row.scan_cells_per_sec / 1e6),
                  common::StrFormat("%.2f", row.topk_us_per_group),
                  row.topk_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("users=%d items=%d ratings=%lld file=%lld bytes  "
              "dense/compact8 bytes-per-user reduction: %.2fx\n",
              config.num_users, config.num_items,
              static_cast<long long>(dense.num_ratings()),
              static_cast<long long>(file_bytes), reduction);

  bool all_ok = reduction >= 4.0;
  for (const auto& row : rows) all_ok = all_ok && row.topk_identical;
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: reduction %.2fx (need >= 4) or top-k "
                         "divergence above\n", reduction);
  }

  eval::JsonWriter w;
  w.BeginObject();
  eval::AppendBenchEnvelope(w, "scale_instance");
  w.Key("all_ok").Bool(all_ok);
  w.Key("scale").BeginObject();
  w.Key("users").Int(config.num_users);
  w.Key("items").Int(config.num_items);
  w.Key("ratings").Int(static_cast<long long>(dense.num_ratings()));
  w.Key("file_bytes").Int(static_cast<long long>(file_bytes));
  w.Key("reduction_dense_over_compact8").Number(reduction);
  w.Key("backends").BeginArray();
  for (const auto& row : rows) {
    w.BeginObject();
    w.Key("name").String(row.name);
    w.Key("bytes").Int(static_cast<long long>(row.bytes));
    w.Key("charged_bytes").Int(static_cast<long long>(row.charged_bytes));
    w.Key("bytes_per_user")
        .Number(static_cast<double>(row.bytes) / config.num_users);
    w.Key("load_seconds").Number(row.load_seconds);
    w.Key("scan_cells_per_sec").Number(row.scan_cells_per_sec);
    w.Key("topk_us_per_group").Number(row.topk_us_per_group);
    w.Key("rss_delta_bytes").Int(row.rss_delta_bytes);
    w.Key("topk_identical").Bool(row.topk_identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  const int json_rc = eval::EmitBenchJson("scale_instance", w.str());
  return all_ok && json_rc == 0 ? 0 : 1;
}
