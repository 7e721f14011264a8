// perf_snapshot — tagged performance benches with a schema-versioned
// JSON snapshot, plus the comparator that guards against regressions.
//
//   perf_snapshot run   [--out PATH] [--reps N]
//   perf_snapshot check --snapshot PATH --baseline PATH [--strict]
//
// `run` executes every tagged bench `reps` times and writes
// BENCH_<stamp>.json (schema below). `check` validates a snapshot's
// schema and — with --strict — fails when any baseline entry's wall time
// regressed beyond its per-entry tolerance factor. Without --strict it
// is a smoke check: schema + every baseline bench present (CI runs this
// mode, where shared-runner timing noise would make hard thresholds
// flaky; --strict is for dedicated hardware).
//
// Snapshot schema (v1):
//   {"schema_version": 1, "stamp": "...", "git_sha": "...",
//    "hostname": "...", "scale": F, "seed": N, "entries": [
//      {"name": "...", "reps": N, "wall_ms": F, "p50_ms": F,
//       "p99_ms": F, "peak_rss_mb": F}, ...]}
// Every bench runs single-threaded. "peak_rss_mb" is the resident
// high-water mark over that
// bench's reps (util::reset_peak_rss before each bench; 0 when the
// platform cannot measure it). The checker's field scanner ignores keys
// it does not know, so baselines without them stay valid.
// Baseline schema (v1): entries carry "name", "wall_ms" and an optional
// "tolerance" ratio (default 2.5: fail when snapshot wall_ms exceeds
// 2.5x the baseline).
//
// Scale/seed/reps honour ETHSHARD_SCALE / ETHSHARD_SEED /
// ETHSHARD_PERF_REPS, matching the bench harnesses.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "eth/keccak.hpp"
#include "graph/generators.hpp"
#include "obs/histogram.hpp"
#include "partition/mlkp.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

namespace {

using namespace ethshard;

// ------------------------------------------------------------------ run

struct BenchResult {
  std::string name;
  int reps = 0;
  double wall_ms = 0;       // median of the reps
  double p50_ms = 0;
  double p99_ms = 0;
  double peak_rss_mb = 0;   // resident high-water mark over the reps
};

double quantile_of(std::vector<double> sorted, double q) {
  ETHSHARD_CHECK(!sorted.empty());
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

BenchResult run_bench(const std::string& name, int reps,
                      const std::function<void()>& body) {
  // Bracket this bench's memory: the high-water mark read afterwards
  // covers only these reps, not whatever a previous bench allocated.
  util::reset_peak_rss();
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    samples.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  BenchResult res;
  res.name = name;
  res.reps = reps;
  res.wall_ms = quantile_of(samples, 0.5);
  res.p50_ms = res.wall_ms;
  res.p99_ms = quantile_of(samples, 0.99);
  res.peak_rss_mb =
      static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
  std::fprintf(stderr,
               "[perf] %-28s %4d reps  p50 %10.3f ms  p99 %10.3f ms"
               "  peak %7.1f MiB\n",
               name.c_str(), reps, res.p50_ms, res.p99_ms,
               res.peak_rss_mb);
  return res;
}

std::string utc_stamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y%m%dT%H%M%SZ", &tm);
  return buf;
}

// Provenance for trajectory tooling: which commit and machine produced
// the snapshot. ETHSHARD_GIT_SHA overrides (CI exports it from the
// checkout); otherwise ask git, and degrade to "unknown" outside a work
// tree — a snapshot must never fail over missing provenance.
std::string git_sha() {
  if (const char* sha = std::getenv("ETHSHARD_GIT_SHA")) return sha;
  std::string sha = "unknown";
  if (FILE* pipe = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() &&
             (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
      if (!line.empty()) sha = line;
    }
    pclose(pipe);
  }
  return sha;
}

std::string host_name() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf[0] != '\0' ? buf : "unknown";
}

int reps_from_env(int fallback) {
  if (const char* s = std::getenv("ETHSHARD_PERF_REPS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

int cmd_run(const util::ArgParser& args) {
  const double scale = bench::scale_from_env();
  const std::uint64_t seed = bench::seed_from_env();
  const int reps = reps_from_env(static_cast<int>(args.get_uint("reps", 3)));

  // Graph size tracks the scale knob so smoke runs stay sub-second. The
  // _large variant uses a 10x graph: at the default scale the base graph
  // coarsens away in one or two levels, which under-exercises the
  // coarsen/refine ladders that dominate real partitioner runs.
  const auto n = static_cast<std::uint64_t>(std::max(
      1000.0, scale * 2e6));
  const auto n_large = static_cast<std::uint64_t>(std::max(
      20000.0, scale * 2e7));
  util::Rng rng(seed);
  const graph::Graph ba = graph::make_barabasi_albert(n, 4, rng);
  util::Rng rng_large(seed + 1);
  const graph::Graph ba_large =
      graph::make_barabasi_albert(n_large, 4, rng_large);
  const workload::History history = bench::make_history(scale, seed);

  std::vector<BenchResult> results;
  // The "_serial" suffix is historical; the names stay so the BENCH_*
  // trajectory lines up across snapshots.
  results.push_back(run_bench("mlkp_partition_serial", reps, [&] {
    partition::MlkpPartitioner(partition::MlkpConfig{.seed = seed})
        .partition(ba, 8);
  }));
  results.push_back(run_bench("mlkp_partition_serial_large", reps, [&] {
    partition::MlkpPartitioner(partition::MlkpConfig{.seed = seed})
        .partition(ba_large, 8);
  }));
  results.push_back(run_bench("simulate_hashing", reps, [&] {
    bench::simulate(history, core::Method::kHashing, 4, seed);
  }));
  results.push_back(run_bench("simulate_rmetis", reps, [&] {
    bench::simulate(history, core::Method::kRMetis, 4, seed);
  }));
  // Migration-heavy cell: KL (the balanced-label-propagation scheme) at
  // k = 8 moves vertices between shards every period, stressing the
  // incremental static-cut maintenance and window-graph construction.
  results.push_back(run_bench("simulate_blp_k8", reps, [&] {
    bench::simulate(history, core::Method::kKl, 8, seed);
  }));
  // Many-call transaction shape: attack spam fanning out to ~200 dummy
  // accounts per transaction, to exercise the per-transaction
  // involved-set dedup on wide call lists.
  workload::GeneratorConfig manycall_cfg;
  manycall_cfg.scale = scale / 4;
  manycall_cfg.seed = seed;
  manycall_cfg.attack_dummies_per_tx = 200;
  const workload::History manycall_history =
      workload::EthereumHistoryGenerator(manycall_cfg).generate();
  results.push_back(run_bench("simulate_manycall", reps, [&] {
    bench::simulate(manycall_history, core::Method::kHashing, 4, seed);
  }));
  // Long-gap trace: the same history with an 80-year quiet period spliced
  // into the middle — ~175k empty 4-hour windows that the simulator must
  // not pay for one at a time.
  const auto& blocks = history.chain.blocks();
  const util::Timestamp mid =
      blocks.empty() ? 0
                     : (blocks.front().timestamp + blocks.back().timestamp) / 2;
  const workload::History gap_history =
      workload::with_traffic_gap(history, mid, 80 * 365 * util::kDay);
  results.push_back(run_bench("simulate_longgap", reps, [&] {
    bench::simulate(gap_history, core::Method::kHashing, 4, seed);
  }));
  // Streaming cell: the same hashing workload, but the simulator pulls
  // blocks straight off a GeneratedSource instead of a materialized
  // History — one pass that pays generation inline (so wall time is
  // roughly simulate_hashing plus the generate() cost the other cells
  // pay outside their timed region), with the peak_rss_mb column
  // showing the whole-history copy it avoids.
  results.push_back(run_bench("simulate_streaming", reps, [&] {
    workload::GeneratorConfig cfg;
    cfg.scale = scale;
    cfg.seed = seed;
    workload::GeneratedSource source(cfg);
    const auto strategy = core::make_strategy(core::Method::kHashing, seed);
    core::SimulatorConfig sim_cfg;
    sim_cfg.k = 4;
    core::ShardingSimulator sim(source, *strategy, sim_cfg);
    sim.run();
  }));
  // Pure generation at 10x scale, drained block-by-block without ever
  // holding more than one block: bounds the generator's own footprint
  // (registry + mempool) separately from any simulator state.
  results.push_back(run_bench("generate_streaming_large", reps, [&] {
    workload::GeneratorConfig cfg;
    cfg.scale = scale * 10;
    cfg.seed = seed;
    workload::GeneratedSource source(cfg);
    eth::Block block;
    std::uint64_t txs = 0;
    while (source.next(block)) txs += block.transactions.size();
    ETHSHARD_CHECK(txs > 0);
  }));
  // Keccak-256 of one transaction, the hash every sealed block pays per
  // transaction: a fixed 100k hashes cycling over the history's
  // transactions, so the entry does not shrink with the scale knob.
  std::vector<const eth::Transaction*> txs;
  for (const eth::Block& b : history.chain.blocks())
    for (const eth::Transaction& tx : b.transactions) txs.push_back(&tx);
  ETHSHARD_CHECK(!txs.empty());
  results.push_back(run_bench("keccak_tx_hash", reps, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < 100000; ++i)
      sum += eth::hash_prefix_u64(txs[i % txs.size()]->hash());
    ETHSHARD_CHECK(sum != 0);
  }));
  results.push_back(run_bench("obs_histogram_record", reps, [&] {
    obs::Histogram h;
    for (int i = 0; i < 1000000; ++i)
      h.record(static_cast<double>((i % 997) + 1));
    ETHSHARD_CHECK(h.count() == 1000000u);
  }));

  const std::string stamp = utc_stamp();
  const std::string out_path =
      args.get("out", "BENCH_" + stamp + ".json");
  std::ofstream out(out_path);
  ETHSHARD_CHECK_MSG(out.good(), "cannot open " << out_path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"stamp\": \"" << stamp << "\",\n"
      << "  \"git_sha\": \"" << git_sha() << "\",\n"
      << "  \"hostname\": \"" << host_name() << "\",\n"
      << "  \"scale\": " << fmt(scale) << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"entries\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"reps\": " << r.reps
        << ", \"wall_ms\": " << fmt(r.wall_ms)
        << ", \"p50_ms\": " << fmt(r.p50_ms)
        << ", \"p99_ms\": " << fmt(r.p99_ms)
        << ", \"peak_rss_mb\": " << fmt(r.peak_rss_mb) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  ETHSHARD_CHECK_MSG(out.good(), "write failed: " << out_path);
  std::printf("snapshot -> %s (%zu benches, scale %g, %d reps)\n",
              out_path.c_str(), results.size(), scale, reps);
  return 0;
}

// ---------------------------------------------------------------- check
//
// Minimal scanner for the two schemas above — NOT a general JSON parser.
// Both files are machine-written by this tool (or hand-maintained as the
// baseline), so strict structure is a feature: anything surprising fails.

struct Entry {
  std::string name;
  double wall_ms = -1;
  double p50_ms = -1;
  double p99_ms = -1;
  double tolerance = -1;  // baseline only; -1 = absent
};

struct Snapshot {
  int schema_version = -1;
  std::vector<Entry> entries;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  ETHSHARD_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Value text following `"key":` inside `obj`, or "" when absent.
std::string field_text(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  while (i < obj.size() && obj[i] == ' ') ++i;
  std::size_t end = i;
  if (end < obj.size() && obj[end] == '"') {  // string value
    end = obj.find('"', end + 1);
    ETHSHARD_CHECK_MSG(end != std::string::npos, "unterminated string");
    return obj.substr(i + 1, end - i - 1);
  }
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}' &&
         obj[end] != '\n' && obj[end] != ']')
    ++end;
  std::string text = obj.substr(i, end - i);
  while (!text.empty() && text.back() == ' ') text.pop_back();
  return text;
}

Snapshot parse_snapshot(const std::string& path) {
  const std::string text = read_file(path);
  Snapshot snap;
  const std::string version = field_text(text, "schema_version");
  ETHSHARD_CHECK_MSG(!version.empty(),
                     path << ": missing schema_version");
  snap.schema_version = std::atoi(version.c_str());

  const std::size_t entries_at = text.find("\"entries\":");
  ETHSHARD_CHECK_MSG(entries_at != std::string::npos,
                     path << ": missing entries array");
  std::size_t i = text.find('[', entries_at);
  ETHSHARD_CHECK_MSG(i != std::string::npos, path << ": malformed entries");
  const std::size_t close = text.find(']', i);
  ETHSHARD_CHECK_MSG(close != std::string::npos,
                     path << ": unterminated entries");
  while (true) {
    const std::size_t open = text.find('{', i);
    if (open == std::string::npos || open > close) break;
    const std::size_t end = text.find('}', open);
    ETHSHARD_CHECK_MSG(end != std::string::npos && end < close,
                       path << ": unterminated entry object");
    const std::string obj = text.substr(open, end - open + 1);
    Entry e;
    e.name = field_text(obj, "name");
    ETHSHARD_CHECK_MSG(!e.name.empty(), path << ": entry without name");
    const std::string wall = field_text(obj, "wall_ms");
    ETHSHARD_CHECK_MSG(!wall.empty(),
                       path << ": entry '" << e.name << "' lacks wall_ms");
    e.wall_ms = std::atof(wall.c_str());
    const std::string p50 = field_text(obj, "p50_ms");
    if (!p50.empty()) e.p50_ms = std::atof(p50.c_str());
    const std::string p99 = field_text(obj, "p99_ms");
    if (!p99.empty()) e.p99_ms = std::atof(p99.c_str());
    const std::string tol = field_text(obj, "tolerance");
    if (!tol.empty()) e.tolerance = std::atof(tol.c_str());
    snap.entries.push_back(std::move(e));
    i = end + 1;
  }
  return snap;
}

int cmd_check(const util::ArgParser& args) {
  const std::string snap_path = args.get("snapshot", "");
  const std::string base_path = args.get("baseline", "");
  ETHSHARD_CHECK_MSG(!snap_path.empty() && !base_path.empty(),
                     "check requires --snapshot PATH and --baseline PATH");
  const bool strict = args.get_bool("strict", false);

  const Snapshot snap = parse_snapshot(snap_path);
  const Snapshot base = parse_snapshot(base_path);
  ETHSHARD_CHECK_MSG(snap.schema_version == 1,
                     "snapshot schema_version " << snap.schema_version
                                                << " unsupported");
  ETHSHARD_CHECK_MSG(base.schema_version == 1,
                     "baseline schema_version " << base.schema_version
                                                << " unsupported");
  ETHSHARD_CHECK_MSG(!snap.entries.empty(), "snapshot has no entries");

  // Snapshot-side schema: every entry carries sane timings.
  for (const Entry& e : snap.entries) {
    ETHSHARD_CHECK_MSG(e.wall_ms >= 0 && e.p50_ms >= 0 && e.p99_ms >= 0,
                       "snapshot entry '" << e.name
                                          << "' has malformed timings");
    ETHSHARD_CHECK_MSG(e.p99_ms + 1e-9 >= e.p50_ms,
                       "snapshot entry '" << e.name << "': p99 < p50");
  }

  int failures = 0;
  for (const Entry& b : base.entries) {
    const auto it = std::find_if(
        snap.entries.begin(), snap.entries.end(),
        [&](const Entry& e) { return e.name == b.name; });
    if (it == snap.entries.end()) {
      std::fprintf(stderr, "[perf] FAIL %-24s missing from snapshot\n",
                   b.name.c_str());
      ++failures;
      continue;
    }
    const double tolerance = b.tolerance > 0 ? b.tolerance : 2.5;
    const double limit = b.wall_ms * tolerance;
    const double ratio =
        b.wall_ms > 0 ? it->wall_ms / b.wall_ms : 0.0;
    const bool regressed = strict && it->wall_ms > limit;
    std::printf("[perf] %s %-24s %10.3f ms vs baseline %10.3f ms "
                "(%.2fx, limit %.1fx%s)\n",
                regressed ? "FAIL" : "ok  ", b.name.c_str(), it->wall_ms,
                b.wall_ms, ratio, tolerance,
                strict ? "" : ", advisory");
    if (regressed) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "[perf] %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("[perf] %s passed (%zu baseline benches)\n",
              strict ? "strict check" : "smoke check", base.entries.size());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: perf_snapshot run   [--out PATH] [--reps N]\n"
      "       perf_snapshot check --snapshot PATH --baseline PATH"
      " [--strict]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "run";
  const int skip = argc >= 2 && argv[1][0] != '-' ? 2 : 1;
  util::ArgParser args(argc - skip, argv + skip);
  try {
    if (command == "run") return cmd_run(args);
    if (command == "check") return cmd_check(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perf] error: %s\n", e.what());
    return 1;
  }
}
