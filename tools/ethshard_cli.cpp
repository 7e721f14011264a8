// ethshard — command-line front end for the library.
//
//   ethshard generate --scale 0.002 --seed 1234 --out trace.csv
//   ethshard stats    --trace trace.csv
//   ethshard simulate --trace trace.csv --method R-METIS --shards 4
//                     [--csv windows.csv]
//   ethshard partition --trace trace.csv --method mlkp --shards 8
//   ethshard dot      --trace trace.csv --from 2015-09-01 --to 2015-10-01
//                     [--max-nodes 20]
//
// `--trace` may be omitted on every subcommand, in which case a synthetic
// history is generated in-process (honouring --scale/--seed/--preset,
// presets: paper, no-attack, ico-frenzy, uniform, transfers-only). This is the
// workflow a user with the authors' published trace would follow: convert
// it to the flat CSV schema (see workload/trace_io.hpp) and point any
// subcommand at it.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "core/result_io.hpp"
#include "core/simulator.hpp"
#include "core/strategies.hpp"
#include "core/strategy_registry.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/dot.hpp"
#include "metrics/summary.hpp"
#include "partition/hash_partitioner.hpp"
#include "partition/kernighan_lin.hpp"
#include "partition/metis_io.hpp"
#include "partition/mlkp.hpp"
#include "partition/quality.hpp"
#include "partition/streaming.hpp"
#include "scenario/report.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/mem.hpp"
#include "workload/analysis.hpp"
#include "workload/block_source.hpp"
#include "workload/generator.hpp"
#include "workload/import.hpp"
#include "workload/presets.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace ethshard;

int usage() {
  std::fprintf(
      stderr,
      "usage: ethshard <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate   synthesize a history and write it as a CSV trace\n"
      "  stats      history totals and monthly growth (Fig. 1 data)\n"
      "  simulate   replay against a sharding method (Figs. 3-5 data)\n"
      "  partition  one-shot partition of the final graph, all methods\n"
      "  compare    the full method x shard-count grid in one table\n"
      "  dot        Graphviz subgraph export (Fig. 2 style)\n"
      "  import     convert a BigQuery crypto_ethereum.traces CSV export\n"
      "             into the native trace format (--traces PATH --out PATH)\n"
      "  metis-export  write the final graph in METIS .graph format\n"
      "             (--out PATH; then: gpmetis PATH <k>)\n"
      "  metis-eval evaluate a METIS .part file on our metrics\n"
      "             (--part PATH --shards K)\n"
      "\n"
      "workload (what to replay; any command):\n"
      "  --trace PATH         read a CSV trace (see workload/trace_io.hpp)\n"
      "                       instead of generating in-process\n"
      "  --preset NAME        generator scenario: paper (default),\n"
      "                       no-attack, ico-frenzy, uniform, transfers-only\n"
      "  --scale F            fraction of the real chain's volume (0.002)\n"
      "  --seed N             generator seed (1234); also the strategy\n"
      "                       seed for simulate/compare (default 7 there)\n"
      "  --max-scale F        clamp --scale to F (a guard for scripted\n"
      "                       sweeps; 0 = no clamp)\n"
      "  --stream             simulate/compare only: pull blocks from the\n"
      "                       generator or trace file on demand instead of\n"
      "                       materializing the whole history first —\n"
      "                       same results, memory stays ~one window\n"
      "\n"
      "strategy (simulate/partition/compare):\n"
      "  --method SPEC        Hashing|KL|METIS|R-METIS|TR-METIS|DSM\n"
      "                       (P-METIS = R-METIS; tunable, e.g.\n"
      "                       'tr-metis:cut_floor=0.25,min_gap_days=2');\n"
      "                       partition takes a one-shot partitioner:\n"
      "                       Hashing|KL|MLKP|LDG|Fennel (default: all)\n"
      "  --shards K|LIST      shard count (2); compare takes a list (2,4,8)\n"
      "  --gas                compare only: gas-based load model\n"
      "\n"
      "replay (simulate, and per-cell for compare):\n"
      "  --threads N          compare only: grid cells run in parallel\n"
      "                       on N workers (0 = hardware concurrency,\n"
      "                       the default); results never depend on N\n"
      "  --max-rss-mb N       fail (exit 1) if peak resident memory\n"
      "                       exceeds N MiB — pair with --stream to keep\n"
      "                       large-scale replays inside a budget\n"
      "\n"
      "output:\n"
      "  --out PATH           generate/import/metis-export destination\n"
      "  --csv PATH           simulate: per-window samples\n"
      "  --events-csv PATH    simulate: repartition events\n"
      "  --telemetry-out PATH simulate: streaming JSONL, one record per\n"
      "                       window as the replay runs (incl. rss_mb)\n"
      "  --verdict-out PATH   any command: write the resource-budget\n"
      "                       verdict (peak rss vs --max-rss-mb) as\n"
      "                       scenario-report JSON for scripts to parse\n"
      "  --from/--to DATE     dot: window bounds (YYYY-MM-DD)\n"
      "  --max-nodes N        dot: subgraph size cap (20)\n"
      "\n"
      "observability (any command):\n"
      "  --metrics-out PATH   enable metrics; write counters/gauges/timers/\n"
      "                       histograms on exit — JSON, or CSV when PATH\n"
      "                       ends in .csv\n"
      "  --trace-out PATH     enable tracing; write Chrome trace-event\n"
      "                       JSON (chrome://tracing, Perfetto) on exit\n"
      "  --trace-max-spans N  span buffer cap (default ~1M);\n"
      "                       overflow truncates the trace and warns\n");
  return 2;
}

util::Timestamp parse_date(const std::string& s) {
  int y = 0;
  int m = 0;
  int d = 0;
  ETHSHARD_INPUT_CHECK(std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) == 3,
                       "bad date '" << s << "' (want YYYY-MM-DD)");
  return util::make_timestamp(y, m, d);
}

/// A shard count given by the user (--shards K, or one entry of a list).
/// Partition and the strategies take 1 <= k < kUnassigned as given.
std::uint32_t checked_shard_count(std::uint64_t k) {
  ETHSHARD_INPUT_CHECK(k >= 1 && k < partition::kUnassigned,
                       "--shards must be between 1 and "
                           << partition::kUnassigned - 1 << ", got " << k);
  return static_cast<std::uint32_t>(k);
}

std::uint32_t shard_count(const util::ArgParser& args) {
  return checked_shard_count(args.get_uint("shards", 2));
}

/// Fails unless the file named by --`flag` (when given) can be opened for
/// writing. Commands check their output paths before any history is
/// generated or replayed, so a mistyped path does not cost the whole run.
/// A file the probe had to create is removed again.
void require_writable(const util::ArgParser& args, const std::string& flag) {
  const std::string path = args.get(flag, "");
  if (path.empty()) return;
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  const bool writable = std::ofstream(path, std::ios::app).good();
  if (writable && !existed) std::filesystem::remove(path, ec);
  ETHSHARD_INPUT_CHECK(writable, "cannot open --" << flag << " file " << path);
}

/// Generator configuration from --preset/--scale/--seed, with --max-scale
/// applied as a clamp (a guard for scripted sweeps: a fat-fingered scale
/// cannot silently launch a machine-sized run).
workload::GeneratorConfig generator_config(const util::ArgParser& args) {
  const workload::Preset preset =
      workload::preset_from_name(args.get("preset", "paper"));
  double scale = args.get_double("scale", 0.002);
  ETHSHARD_INPUT_CHECK(scale > 0.0, "--scale must be positive, got " << scale);
  const double max_scale = args.get_double("max-scale", 0.0);
  if (max_scale > 0.0 && scale > max_scale) {
    std::fprintf(stderr,
                 "[ethshard] clamping --scale %g to --max-scale %g\n",
                 scale, max_scale);
    scale = max_scale;
  }
  return workload::preset_config(
      preset, {.scale = scale, .seed = args.get_uint("seed", 1234)});
}

workload::History load_history(const util::ArgParser& args) {
  const std::string trace = args.get("trace", "");
  if (!trace.empty()) return workload::read_trace_file(trace);
  const workload::GeneratorConfig cfg = generator_config(args);
  std::fprintf(stderr, "[ethshard] generating synthetic history "
                       "preset=%s scale=%g seed=%llu\n",
               args.get("preset", "paper").c_str(), cfg.scale,
               static_cast<unsigned long long>(cfg.seed));
  return workload::EthereumHistoryGenerator(cfg).generate();
}

/// The --stream path's workload: a re-openable source over --trace or the
/// in-process generator — nothing is materialized up front.
std::unique_ptr<workload::BlockSourceFactory> make_source_factory(
    const util::ArgParser& args) {
  const std::string trace = args.get("trace", "");
  if (!trace.empty())
    return std::make_unique<workload::TraceSourceFactory>(trace);
  const workload::GeneratorConfig cfg = generator_config(args);
  std::fprintf(stderr, "[ethshard] streaming synthetic history "
                       "preset=%s scale=%g seed=%llu\n",
               args.get("preset", "paper").c_str(), cfg.scale,
               static_cast<unsigned long long>(cfg.seed));
  return std::make_unique<workload::GeneratedSourceFactory>(cfg);
}

int cmd_generate(const util::ArgParser& args) {
  const std::string out = args.get("out", "");
  ETHSHARD_INPUT_CHECK(!out.empty(), "generate requires --out PATH");
  require_writable(args, "out");
  const workload::History history = load_history(args);
  workload::write_trace_file(out, history);
  const workload::HistoryStats st = workload::stats_of(history);
  std::printf("wrote %s: %llu blocks, %llu txs, %llu calls, %llu accounts "
              "(%llu contracts)\n",
              out.c_str(), static_cast<unsigned long long>(st.blocks),
              static_cast<unsigned long long>(st.transactions),
              static_cast<unsigned long long>(st.calls),
              static_cast<unsigned long long>(st.accounts + st.contracts),
              static_cast<unsigned long long>(st.contracts));
  return 0;
}

int cmd_stats(const util::ArgParser& args) {
  const workload::History history = load_history(args);
  const workload::HistoryStats st = workload::stats_of(history);
  std::printf("blocks        %12llu\n",
              static_cast<unsigned long long>(st.blocks));
  std::printf("transactions  %12llu\n",
              static_cast<unsigned long long>(st.transactions));
  std::printf("calls         %12llu\n",
              static_cast<unsigned long long>(st.calls));
  std::printf("accounts      %12llu\n",
              static_cast<unsigned long long>(st.accounts));
  std::printf("contracts     %12llu\n",
              static_cast<unsigned long long>(st.contracts));
  if (history.chain.empty()) return 0;

  std::printf("\n%-8s %12s %12s\n", "month", "vertices", "edges");
  graph::GraphBuilder builder;
  std::vector<bool> seen;
  std::uint64_t vertices = 0;
  util::Timestamp month_end =
      util::add_months(history.chain.blocks().front().timestamp, 1);
  auto emit = [&](util::Timestamp month) {
    std::printf("%-8s %12llu %12llu\n", util::month_label(month).c_str(),
                static_cast<unsigned long long>(vertices),
                static_cast<unsigned long long>(builder.num_edges()));
  };
  for (const eth::Block& b : history.chain.blocks()) {
    while (b.timestamp >= month_end) {
      emit(util::add_months(month_end, -1));
      month_end = util::add_months(month_end, 1);
    }
    for (const eth::Transaction& tx : b.transactions)
      for (const eth::Call& c : tx.calls) {
        for (graph::Vertex v : {c.from, c.to}) {
          if (seen.size() <= v) seen.resize(v + 1, false);
          if (!seen[v]) {
            seen[v] = true;
            ++vertices;
          }
          builder.ensure_vertices(v + 1, 1);
        }
        builder.add_edge(c.from, c.to, 1);
      }
  }
  emit(util::add_months(month_end, -1));

  // Structural summary of the final graph.
  const graph::Graph g = builder.build_undirected();
  const graph::Components comps = graph::connected_components(g);
  const graph::DegreeStats deg = graph::degree_statistics(g);
  std::printf("\nfinal graph: %llu components, largest %llu (%.1f%% of "
              "vertices)\n",
              static_cast<unsigned long long>(comps.count()),
              static_cast<unsigned long long>(comps.largest()),
              g.num_vertices() == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(comps.largest()) /
                        static_cast<double>(g.num_vertices()));
  std::printf("degrees: min %llu, median %.1f, mean %.2f, max %llu "
              "(vertex %llu), %llu isolated\n",
              static_cast<unsigned long long>(deg.min_degree),
              deg.median_degree, deg.mean_degree,
              static_cast<unsigned long long>(deg.max_degree),
              static_cast<unsigned long long>(deg.max_degree_vertex),
              static_cast<unsigned long long>(deg.isolated));

  const workload::WorkloadReport report =
      workload::analyze_workload(history);
  auto print_phase = [](const char* label,
                        const workload::PhaseStats& p) {
    std::printf("%-12s %10llu blocks %10llu txs %10llu calls %10llu "
                "new accounts\n",
                label, static_cast<unsigned long long>(p.blocks),
                static_cast<unsigned long long>(p.transactions),
                static_cast<unsigned long long>(p.calls),
                static_cast<unsigned long long>(p.new_accounts));
  };
  std::printf("\nphases:\n");
  print_phase("pre-attack", report.pre_attack);
  print_phase("attack", report.attack);
  print_phase("post-attack", report.post_attack);
  std::printf("activity gini %.3f, top-1%% share %.3f, single-touch "
              "vertices %llu/%llu\n",
              report.activity_gini, report.top1pct_share,
              static_cast<unsigned long long>(report.single_touch_vertices),
              static_cast<unsigned long long>(report.total_vertices));
  return 0;
}

int cmd_simulate(const util::ArgParser& args) {
  require_writable(args, "csv");
  require_writable(args, "events-csv");
  std::unique_ptr<core::TelemetrySink> telemetry;
  const std::string telemetry_path = args.get("telemetry-out", "");
  if (!telemetry_path.empty())
    telemetry = core::TelemetrySink::open(telemetry_path);
  const auto k = shard_count(args);

  // --stream replays through a pull-based BlockSource (generator or
  // trace file) and never materializes the chain; otherwise the whole
  // history is loaded first, exactly as before. Results are
  // bit-identical across the two paths.
  const bool stream = args.get_bool("stream", false);
  std::unique_ptr<workload::BlockSource> source;
  std::optional<workload::History> history;
  if (stream)
    source = make_source_factory(args)->open();
  else
    history.emplace(load_history(args));

  // --method takes a registry spec: a bare name ("R-METIS", or the
  // paper-figure alias "P-METIS") or name:key=value,... for tuning.
  core::StrategyBuild build = core::StrategyRegistry::global().make_build(
      args.get("method", "R-METIS"), args.get_uint("seed", 7));
  const auto& strategy = build.strategy;
  core::SimulatorConfig cfg;
  cfg.k = k;
  if (telemetry) cfg.consumers.push_back(telemetry.get());
  std::optional<core::ShardingSimulator> sim;
  if (stream)
    sim.emplace(*source, *strategy, cfg);
  else
    sim.emplace(*history, *strategy, cfg);
  const core::SimulationResult r = sim->run();
  if (telemetry)
    std::printf("telemetry         -> %s (%llu windows)\n",
                telemetry_path.c_str(),
                static_cast<unsigned long long>(
                    telemetry->records_written()));

  std::vector<double> cuts;
  std::vector<double> bals;
  for (const core::WindowSample& w : r.windows) {
    cuts.push_back(w.dynamic_edge_cut);
    bals.push_back(w.dynamic_balance);
  }
  std::printf("method            %s\n", r.strategy_name.c_str());
  std::printf("shards            %u\n", r.k);
  std::printf("windows           %zu\n", r.windows.size());
  std::printf("dyn edge-cut      %s\n",
              metrics::to_string(metrics::summarize(cuts)).c_str());
  std::printf("dyn balance       %s\n",
              metrics::to_string(metrics::summarize(bals)).c_str());
  std::printf("static edge-cut   %.4f\n", r.final_static_edge_cut);
  std::printf("static balance    %.4f\n", r.final_static_balance);
  std::printf("executed cross    %.4f\n", r.executed_cross_shard_fraction);
  std::printf("repartitions      %zu\n", r.repartitions.size());
  std::printf("moves             %llu\n",
              static_cast<unsigned long long>(r.total_moves));
  std::printf("moved state units %llu\n",
              static_cast<unsigned long long>(r.total_moved_state_units));
  std::printf("peak rss mb       %.1f\n",
              static_cast<double>(util::peak_rss_bytes()) /
                  (1024.0 * 1024.0));

  const std::string csv_path = args.get("csv", "");
  if (!csv_path.empty()) {
    core::write_windows_csv_file(csv_path, r);
    std::printf("window samples    -> %s\n", csv_path.c_str());
  }
  const std::string events_path = args.get("events-csv", "");
  if (!events_path.empty()) {
    core::write_repartitions_csv_file(events_path, r);
    std::printf("repartitions      -> %s\n", events_path.c_str());
  }
  return 0;
}

/// ASCII case-insensitive equality, so `--method mlkp` names MLKP the
/// way strategy specs are matched (core::StrategyRegistry).
bool iequals(const std::string& a, const std::string& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](unsigned char x, unsigned char y) {
                      return std::tolower(x) == std::tolower(y);
                    });
}

int cmd_partition(const util::ArgParser& args) {
  const auto k = shard_count(args);
  const std::string only = args.get("method", "");

  std::vector<std::unique_ptr<partition::Partitioner>> methods;
  methods.push_back(std::make_unique<partition::HashPartitioner>());
  methods.push_back(std::make_unique<partition::KernighanLinPartitioner>());
  methods.push_back(std::make_unique<partition::MlkpPartitioner>());
  methods.push_back(std::make_unique<partition::LdgPartitioner>());
  methods.push_back(std::make_unique<partition::FennelPartitioner>());
  if (!only.empty()) {
    std::string known;
    for (const auto& m : methods) {
      known += ' ';
      known += m->name();
    }
    std::erase_if(methods,
                  [&](const auto& m) { return !iequals(m->name(), only); });
    ETHSHARD_INPUT_CHECK(!methods.empty(),
                         "unknown partitioner '" << only
                             << "' — known partitioners:" << known);
  }

  const workload::History history = load_history(args);

  // Build the final cumulative graph (§II-B).
  graph::GraphBuilder builder;
  for (const eth::Block& b : history.chain.blocks())
    for (const eth::Transaction& tx : b.transactions)
      for (const eth::Call& c : tx.calls) {
        builder.ensure_vertices(std::max(c.from, c.to) + 1, 1);
        builder.add_edge(c.from, c.to, 1);
      }
  const graph::Graph g = builder.build_undirected();
  std::printf("graph: %llu vertices, %llu edges\n",
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()));

  std::printf("%-10s %10s %10s %12s %10s %12s\n", "method", "edgeCut",
              "balance", "dynEdgeCut", "boundary", "commVolume");
  for (const auto& m : methods) {
    const partition::Partition p = m->partition(g, k);
    const partition::QualityReport q = partition::evaluate_partition(g, p);
    std::printf("%-10s %10.4f %10.4f %12.4f %10llu %12llu\n",
                m->name().c_str(), q.edge_cut_fraction, q.balance,
                q.weighted_cut_fraction,
                static_cast<unsigned long long>(q.boundary_vertices),
                static_cast<unsigned long long>(q.communication_volume));
  }
  return 0;
}

int cmd_dot(const util::ArgParser& args) {
  const workload::History history = load_history(args);
  const util::Timestamp from =
      parse_date(args.get("from", "2015-09-01"));
  const util::Timestamp to = parse_date(args.get("to", "2015-10-01"));
  const std::uint64_t max_nodes = args.get_uint("max-nodes", 20);
  ETHSHARD_INPUT_CHECK(from < to, "--from must precede --to");

  graph::GraphBuilder builder;
  for (const eth::Block& b : history.chain.blocks()) {
    if (b.timestamp < from || b.timestamp >= to) continue;
    for (const eth::Transaction& tx : b.transactions)
      for (const eth::Call& c : tx.calls) {
        builder.ensure_vertices(std::max(c.from, c.to) + 1, 1);
        builder.add_edge(c.from, c.to, 1);
      }
  }
  const graph::Graph g = builder.build_directed();
  ETHSHARD_INPUT_CHECK(g.num_edges() > 0, "no interactions in window");

  graph::Vertex hub = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;

  std::vector<graph::Vertex> selection = {hub};
  std::vector<bool> chosen(g.num_vertices(), false);
  chosen[hub] = true;
  for (std::size_t i = 0;
       i < selection.size() && selection.size() < max_nodes; ++i)
    for (const graph::Arc& a : g.neighbors(selection[i]))
      if (selection.size() < max_nodes && !chosen[a.to]) {
        chosen[a.to] = true;
        selection.push_back(a.to);
      }

  const graph::Graph sub = g.induced_subgraph(selection);
  graph::DotOptions opts;
  opts.name = "ethshard_subgraph";
  opts.is_contract = [&](graph::Vertex local) {
    const graph::Vertex global = selection[local];
    return history.accounts.contains(global) &&
           history.accounts.info(global).kind ==
               eth::AccountKind::kContract;
  };
  opts.label = [&](graph::Vertex local) {
    return std::to_string(selection[local]);
  };
  graph::write_dot(std::cout, sub, opts);
  return 0;
}

graph::Graph final_graph(const workload::History& history) {
  graph::GraphBuilder builder;
  for (const eth::Block& b : history.chain.blocks())
    for (const eth::Transaction& tx : b.transactions)
      for (const eth::Call& c : tx.calls) {
        builder.ensure_vertices(std::max(c.from, c.to) + 1, 1);
        builder.add_edge(c.from, c.to, 1);
      }
  return builder.build_undirected();
}

int cmd_metis_export(const util::ArgParser& args) {
  const std::string out_path = args.get("out", "");
  ETHSHARD_INPUT_CHECK(!out_path.empty(), "metis-export requires --out PATH");
  require_writable(args, "out");
  const workload::History history = load_history(args);
  const graph::Graph g = final_graph(history);
  std::ofstream out(out_path);
  ETHSHARD_INPUT_CHECK(out.good(), "cannot open " << out_path);
  partition::write_metis_graph(out, g);
  std::printf("wrote %s: %llu vertices, %llu edges (run: gpmetis %s <k>)\n",
              out_path.c_str(),
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()),
              out_path.c_str());
  return 0;
}

int cmd_metis_eval(const util::ArgParser& args) {
  const std::string part_path = args.get("part", "");
  ETHSHARD_INPUT_CHECK(!part_path.empty(), "metis-eval requires --part PATH");
  const auto k = shard_count(args);
  const workload::History history = load_history(args);
  const graph::Graph g = final_graph(history);

  std::ifstream in(part_path);
  ETHSHARD_INPUT_CHECK(in.good(), "cannot open " << part_path);
  const partition::Partition p =
      partition::read_metis_partition(in, g.num_vertices(), k);
  std::fputs(partition::to_string(
                 partition::evaluate_partition(g, p)).c_str(),
             stdout);
  return 0;
}

int cmd_compare(const util::ArgParser& args) {
  // The --shards list is parsed first, so a bad entry fails before any
  // history is generated.
  core::ExperimentConfig cfg;
  cfg.shard_counts.clear();
  std::stringstream ss(args.get("shards", "2,4,8"));
  std::string token;
  while (std::getline(ss, token, ',')) {
    std::uint64_t k = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, k);
    ETHSHARD_INPUT_CHECK(ec == std::errc{} && ptr == end,
                         "bad --shards entry '" << token
                                                << "' (want K or K1,K2,...)");
    cfg.shard_counts.push_back(checked_shard_count(k));
  }
  ETHSHARD_INPUT_CHECK(!cfg.shard_counts.empty(), "empty --shards list");
  cfg.seed = args.get_uint("seed", 7);
  if (args.get_bool("gas", false)) cfg.load_model = core::LoadModel::kGas;
  // --threads sizes the grid; ExperimentConfig::validate rejects an
  // implausible value.
  cfg.threads = static_cast<std::size_t>(args.get_uint("threads", 0));

  // --stream: every grid cell opens its own pull-based stream (the
  // factory re-generates or re-reads the trace per cell) instead of all
  // cells sharing one materialized History. Same results.
  const bool stream = args.get_bool("stream", false);
  std::unique_ptr<workload::BlockSourceFactory> sources;
  std::optional<workload::History> history;
  if (stream)
    sources = make_source_factory(args);
  else
    history.emplace(load_history(args));

  const auto runs = stream ? core::run_experiment(*sources, cfg)
                           : core::run_experiment(*history, cfg);
  std::fputs(core::comparison_table(runs).c_str(), stdout);
  std::printf("\nspeedup = modelled throughput vs an unsharded node "
              "(cross-shard interaction costs 3x).\n");
  return 0;
}

int cmd_import(const util::ArgParser& args) {
  const std::string traces = args.get("traces", "");
  const std::string out = args.get("out", "");
  ETHSHARD_INPUT_CHECK(!traces.empty() && !out.empty(),
                       "import requires --traces PATH and --out PATH");
  require_writable(args, "out");
  const workload::ImportResult r =
      workload::import_bigquery_traces_file(traces);
  workload::write_trace_file(out, r.history);
  std::printf("imported %llu calls (%llu rows, %llu skipped) into %llu "
              "blocks / %llu txs, %llu accounts -> %s\n",
              static_cast<unsigned long long>(r.stats.imported_calls),
              static_cast<unsigned long long>(r.stats.rows),
              static_cast<unsigned long long>(r.stats.skipped_rows),
              static_cast<unsigned long long>(r.stats.blocks),
              static_cast<unsigned long long>(r.stats.transactions),
              static_cast<unsigned long long>(r.stats.accounts),
              out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  util::ArgParser args(argc - 2, argv + 2);

  try {
    require_writable(args, "metrics-out");
    require_writable(args, "trace-out");
    require_writable(args, "verdict-out");
    const std::string metrics_out = args.get("metrics-out", "");
    const std::string trace_out = args.get("trace-out", "");
    if (!metrics_out.empty()) obs::set_enabled(true);
    if (!trace_out.empty()) obs::set_trace_enabled(true);
    // --trace-max-spans caps the span/counter buffers (0 = unlimited);
    // useful to bound a long profiling run's memory, or to force the
    // truncation path when testing it.
    if (const std::uint64_t cap =
            args.get_uint("trace-max-spans",
                          obs::TraceBuffer::kDefaultMaxSpans);
        cap != obs::TraceBuffer::kDefaultMaxSpans)
      obs::TraceBuffer::global().set_max_spans(
          static_cast<std::size_t>(cap));

    int rc;
    if (command == "generate") {
      rc = cmd_generate(args);
    } else if (command == "stats") {
      rc = cmd_stats(args);
    } else if (command == "simulate") {
      rc = cmd_simulate(args);
    } else if (command == "partition") {
      rc = cmd_partition(args);
    } else if (command == "dot") {
      rc = cmd_dot(args);
    } else if (command == "import") {
      rc = cmd_import(args);
    } else if (command == "metis-export") {
      rc = cmd_metis_export(args);
    } else if (command == "metis-eval") {
      rc = cmd_metis_eval(args);
    } else if (command == "compare") {
      rc = cmd_compare(args);
    } else {
      return usage();
    }
    if (!metrics_out.empty()) {
      obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
      // Surface span-buffer overflow: silence here would make a truncated
      // trace look complete.
      const std::uint64_t dropped = obs::TraceBuffer::global().dropped();
      if (dropped > 0) snap.counters["trace/dropped_spans"] = dropped;
      const bool csv = metrics_out.size() >= 4 &&
                       metrics_out.compare(metrics_out.size() - 4, 4,
                                           ".csv") == 0;
      if (csv)
        obs::write_metrics_csv_file(metrics_out, snap);
      else
        obs::write_metrics_json_file(metrics_out, snap);
      std::fprintf(stderr, "[ethshard] metrics -> %s\n",
                   metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      const obs::TraceSnapshot trace =
          obs::TraceBuffer::global().trace_snapshot();
      obs::write_trace_json_file(trace_out, trace);
      std::fprintf(stderr, "[ethshard] trace -> %s\n", trace_out.c_str());
      if (trace.dropped_spans > 0)
        std::fprintf(stderr,
                     "[ethshard] warning: trace truncated — %llu spans "
                     "dropped (raise --trace-max-spans)\n",
                     static_cast<unsigned long long>(trace.dropped_spans));
    }
    // --max-rss-mb: a memory budget over the whole command. Checked
    // against the kernel's process high-water mark, so nothing the run
    // did can hide from it; a breach is an error exit, which is what
    // lets CI assert "streaming stays under X where materialized
    // doesn't". --verdict-out additionally serializes the check as a
    // scenario-report JSON (src/scenario/report.hpp, kind "rss_budget"),
    // so scripts parse a machine verdict instead of grepping stderr.
    const std::uint64_t max_rss_mb = args.get_uint("max-rss-mb", 0);
    const std::string verdict_out = args.get("verdict-out", "");
    if (max_rss_mb > 0 || !verdict_out.empty()) {
      const double peak_mb =
          static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
      const bool within =
          max_rss_mb == 0 || peak_mb <= static_cast<double>(max_rss_mb);
      if (!verdict_out.empty()) {
        scenario::Report report;
        scenario::ScenarioReport& sc = report.scenarios.emplace_back();
        sc.name = "cli-" + command;
        sc.description = "ethshard " + command + " resource verdict";
        scenario::StrategyRunReport& run = sc.runs.emplace_back();
        run.strategy = command;
        run.peak_rss_mb = peak_mb;
        scenario::InvariantVerdict v;
        v.kind = "rss_budget";
        v.name = max_rss_mb > 0
                     ? "peak_rss_mb <= " + std::to_string(max_rss_mb)
                     : "peak_rss_mb (unbounded)";
        v.observed = peak_mb;
        v.threshold = static_cast<double>(max_rss_mb);
        v.pass = within;
        if (!within)
          v.detail = "peak rss exceeded the --max-rss-mb budget";
        run.invariants.push_back(v);
        std::ofstream vout(verdict_out);
        ETHSHARD_INPUT_CHECK(vout.good(), "cannot open --verdict-out file "
                                              << verdict_out);
        scenario::write_report_json(report, vout);
        std::fprintf(stderr, "[ethshard] verdict -> %s\n",
                     verdict_out.c_str());
      }
      if (max_rss_mb > 0) {
        if (!within) {
          std::fprintf(stderr,
                       "[ethshard] error: peak rss %.1f MiB exceeded "
                       "--max-rss-mb %llu\n",
                       peak_mb, static_cast<unsigned long long>(max_rss_mb));
          return 1;
        }
        std::fprintf(
            stderr,
            "[ethshard] peak rss %.1f MiB within --max-rss-mb %llu\n",
            peak_mb, static_cast<unsigned long long>(max_rss_mb));
      }
    }
    for (const std::string& flag : args.unused())
      std::fprintf(stderr, "[ethshard] warning: unused flag --%s\n",
                   flag.c_str());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[ethshard] error: %s\n", e.what());
    return 1;
  }
}
