#include "core/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "eth/gas.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/mem.hpp"

namespace ethshard::core {

// Strategy-facing view backed directly by the simulator's state.
class ShardingSimulator::Env final : public SimulatorEnv {
 public:
  explicit Env(const ShardingSimulator& sim) : sim_(sim) {}

  std::uint32_t k() const override { return sim_.cfg_.k; }
  util::Timestamp now() const override { return sim_.now_; }

  const partition::Partition& current_partition() const override {
    return sim_.part_;
  }
  const std::vector<std::uint64_t>& shard_vertex_counts() const override {
    return sim_.shard_counts_;
  }
  const std::vector<graph::Weight>& shard_loads() const override {
    return sim_.shard_loads_;
  }

  const graph::Graph& cumulative_graph() const override {
    return sim_.cumulative_snapshot();
  }

  WindowGraph window_graph() const override {
    // Active = touched by a call this window (endpoints always accrue
    // activity weight), in ascending id. The induced symmetrized snapshot
    // comes from the cumulative builder's window pairs, weighted by window
    // activity, through scratch buffers that persist across windows.
    std::vector<graph::Vertex>& active = sim_.window_active_;
    active.clear();
    for (graph::Vertex v = 0; v < sim_.window_activity_.size(); ++v)
      if (sim_.window_activity_[v] > 0) active.push_back(v);
    WindowGraph wg;
    wg.undirected = sim_.cumulative_.build_window_induced(
        active, sim_.window_activity_, sim_.window_old_to_new_);
    wg.to_global = active;
    return wg;
  }

 private:
  const ShardingSimulator& sim_;
};

// Applies a strategy's online migrations with full accounting.
class ShardingSimulator::Sink final : public MigrationSink {
 public:
  explicit Sink(ShardingSimulator& sim) : sim_(sim) {}

  void migrate(graph::Vertex v, partition::ShardId s) override {
    sim_.apply_migration(v, s);
  }

 private:
  ShardingSimulator& sim_;
};

void ShardingSimulator::apply_migration(graph::Vertex v,
                                        partition::ShardId s) {
  ETHSHARD_CHECK_MSG(v < part_.size(), "migrate: unknown vertex");
  ETHSHARD_CHECK_MSG(s < cfg_.k, "migrate: shard out of range");
  const partition::ShardId from = part_.shard_of(v);
  ETHSHARD_CHECK_MSG(from != partition::kUnassigned,
                     "migrate: vertex not placed yet");
  if (from == s) return;

  apply_cut_delta(v, from, s);
  part_.assign(v, s);
  --shard_counts_[from];
  ++shard_counts_[s];
  shard_loads_[from] -= activity_[v];
  shard_loads_[s] += activity_[v];
  ETHSHARD_OBS_COUNT("sim/cut_delta_migrations", 1);

  const std::uint64_t state = 1 + activity_[v];
  ++result_.total_moves;
  ++result_.online_moves;
  result_.total_moved_state_units += state;
  result_.online_moved_state_units += state;
  ETHSHARD_OBS_COUNT("sim/migrations", 1);
}

ShardingSimulator::ShardingSimulator(workload::BlockSource& source,
                                     ShardingStrategy& strategy,
                                     SimulatorConfig cfg)
    : source_(&source),
      strategy_(strategy),
      cfg_(cfg),
      part_(0, cfg.k),
      shard_counts_(cfg.k, 0),
      shard_loads_(cfg.k, 0),
      window_metrics_(cfg.k) {
  ETHSHARD_CHECK(cfg_.k >= 1);
  ETHSHARD_CHECK(cfg_.metric_window > 0);
}

ShardingSimulator::ShardingSimulator(const workload::History& history,
                                     ShardingStrategy& strategy,
                                     SimulatorConfig cfg)
    : owned_source_(std::make_unique<workload::MaterializedSource>(
          history.chain, &history.accounts)),
      source_(owned_source_.get()),
      strategy_(strategy),
      cfg_(cfg),
      part_(0, cfg.k),
      shard_counts_(cfg.k, 0),
      shard_loads_(cfg.k, 0),
      window_metrics_(cfg.k) {
  ETHSHARD_CHECK(cfg_.k >= 1);
  ETHSHARD_CHECK(cfg_.metric_window > 0);
}

void ShardingSimulator::ensure_vertex(graph::Vertex v) {
  while (part_.size() <= v) {
    part_.append(partition::kUnassigned);
    activity_.push_back(0);
    window_activity_.push_back(0);
  }
  cumulative_.ensure_vertices(v + 1, /*default_weight=*/1);
}

void ShardingSimulator::place_vertex(
    graph::Vertex v, std::span<const partition::ShardId> peers) {
  Env env(*this);
  const partition::ShardId s = strategy_.place(v, peers, env);
  ETHSHARD_CHECK(s < cfg_.k);
  part_.assign(v, s);
  ++shard_counts_[s];
  ETHSHARD_OBS_COUNT("sim/placements", 1);
}

void ShardingSimulator::process_transaction(const eth::Transaction& tx) {
  // Involved accounts, in order of first appearance in the trace,
  // deduplicated by epoch stamp (membership is one indexed load instead
  // of a scan of everything noted so far — the attack era's many-dummy
  // transactions made the old std::find quadratic visible; see bench
  // simulate_manycall).
  involved_scratch_.clear();
  ++involved_epoch_;
  auto note = [&](graph::Vertex v) {
    if (involved_stamp_.size() <= v) involved_stamp_.resize(v + 1, 0);
    if (involved_stamp_[v] == involved_epoch_) return;
    involved_stamp_[v] = involved_epoch_;
    involved_scratch_.push_back(v);
  };
  note(tx.sender);
  for (const eth::Call& c : tx.calls) {
    note(c.from);
    note(c.to);
  }
  const std::span<const graph::Vertex> involved{involved_scratch_};

  // Place any account appearing for the first time, handing the strategy
  // the shards of the transaction's already-placed participants (§II-C).
  for (graph::Vertex v : involved) {
    ensure_vertex(v);
    if (part_.shard_of(v) != partition::kUnassigned) continue;
    peers_scratch_.clear();
    for (graph::Vertex u : involved) {
      if (u == v) continue;
      if (u < part_.size() &&
          part_.shard_of(u) != partition::kUnassigned)
        peers_scratch_.push_back(part_.shard_of(u));
    }
    place_vertex(v, peers_scratch_);
  }

  // Record every call: graphs, window metrics, static counters.
  for (const eth::Call& c : tx.calls) {
    const partition::ShardId sf = part_.shard_of(c.from);
    const partition::ShardId st = part_.shard_of(c.to);

    // Load carried by this call: 1 under the paper's frequency model, or
    // its gas cost in kilogas under the computation model.
    graph::Weight load = 1;
    if (cfg_.load_model == LoadModel::kGas)
      load = 1 + eth::call_gas(c, /*callee_exists=*/true) / 1000;

    // Self-calls count toward traffic volume and activity but are
    // excluded from the cut denominators — they can never cross shards
    // (matching metrics::dynamic_edge_cut on the loop-free window graph).
    if (c.from == c.to)
      window_metrics_.record_self_interaction(1);
    else
      window_metrics_.record_interaction(sf, st, 1);
    window_metrics_.record_activity(sf, load);
    if (c.to != c.from) window_metrics_.record_activity(st, load);

    activity_[c.from] += load;
    window_activity_[c.from] += load;
    shard_loads_[sf] += load;
    if (c.to != c.from) {
      activity_[c.to] += load;
      window_activity_[c.to] += load;
      shard_loads_[st] += load;
    }

    // Static-cut bookkeeping counts distinct *undirected* non-loop edges,
    // matching metrics::static_edge_cut over the symmetrized cumulative
    // graph (a→b and b→a are one edge; self-loops can never be cut).
    // The same call also lands in the builder's window weights.
    const graph::EdgeInsert ins = cumulative_.add_edge(c.from, c.to, 1);
    if (ins.new_undirected_edge) {
      ++distinct_edges_;
      if (sf != st) ++cut_edges_;
    }

    ++executed_total_;
    if (c.from != c.to) {
      ++executed_pair_;
      if (sf != st) ++executed_cross_;
    }
  }

  // Give state-movement strategies their per-transaction hook.
  Env env(*this);
  Sink sink(*this);
  strategy_.on_transaction(involved, env, sink);
}

double ShardingSimulator::current_static_balance() const {
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (std::uint64_t c : shard_counts_) {
    total += c;
    max = std::max(max, c);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(max) * static_cast<double>(cfg_.k) /
         static_cast<double>(total);
}

void ShardingSimulator::apply_cut_delta(graph::Vertex v,
                                        partition::ShardId from,
                                        partition::ShardId to) {
  const auto neighbors = cumulative_.undirected_neighbors(v);
  for (const graph::Vertex u : neighbors) {
    const partition::ShardId su = part_.shard_of(u);
    if (su == from)
      ++cut_edges_;  // {v, u} was internal, v is leaving
    else if (su == to)
      --cut_edges_;  // {v, u} was cut, v joins u's shard
  }
  ETHSHARD_OBS_COUNT("sim/cut_delta_arcs_scanned", neighbors.size());
}

std::uint64_t ShardingSimulator::recompute_static_cut() const {
  std::uint64_t cut = 0;
  const std::uint64_t n = cumulative_.num_vertices();
  for (graph::Vertex v = 0; v < n; ++v)
    for (const graph::Vertex u : cumulative_.undirected_neighbors(v)) {
      if (u <= v) continue;  // count each undirected edge once
      if (part_.shard_of(v) != part_.shard_of(u)) ++cut;
    }
  return cut;
}

const graph::Graph& ShardingSimulator::cumulative_snapshot() const {
  if (cum_snapshot_vertices_ != cumulative_.num_vertices() ||
      cum_snapshot_edges_ != cumulative_.num_edges() ||
      cum_snapshot_weight_ != cumulative_.total_edge_weight()) {
    cum_snapshot_ = cumulative_.build_undirected();
    cum_snapshot_vertices_ = cumulative_.num_vertices();
    cum_snapshot_edges_ = cumulative_.num_edges();
    cum_snapshot_weight_ = cumulative_.total_edge_weight();
    ETHSHARD_OBS_COUNT("sim/cumulative_snapshot_builds", 1);
  } else {
    ETHSHARD_OBS_COUNT("sim/cumulative_snapshot_reuses", 1);
  }
  return cum_snapshot_;
}

void ShardingSimulator::verify_incremental_state() {
  const std::uint64_t recomputed_cut = recompute_static_cut();
  ETHSHARD_CHECK_MSG(cut_edges_ == recomputed_cut,
                     "incremental static cut diverged: incremental "
                         << cut_edges_ << " vs recomputed "
                         << recomputed_cut);
  ETHSHARD_CHECK_MSG(
      distinct_edges_ == cumulative_.num_undirected_edges(),
      "distinct-edge count diverged: " << distinct_edges_ << " vs "
                                       << cumulative_.num_undirected_edges());
}

void ShardingSimulator::verify_window_state() {
  const graph::Weight window_pair_calls = cumulative_.verify_window();
  ETHSHARD_CHECK_MSG(window_pair_calls == executed_pair_ - window_pair_base_,
                     "window edge weight diverged: "
                         << window_pair_calls << " vs "
                         << executed_pair_ - window_pair_base_
                         << " non-self calls since the last repartition");
  graph::Weight window_load = 0;
  for (const graph::Weight w : window_activity_) window_load += w;
  graph::Weight load = 0;
  for (const graph::Weight w : activity_) load += w;
  ETHSHARD_CHECK_MSG(window_load == load - window_load_base_,
                     "window activity diverged: "
                         << window_load << " vs " << load - window_load_base_
                         << " load since the last repartition");
  window_pair_base_ = executed_pair_;
  window_load_base_ = load;
}

void ShardingSimulator::flush_window(util::Timestamp window_end) {
  ETHSHARD_OBS_TIMER("sim/flush_window_ms");
  ETHSHARD_OBS_SPAN("sim/flush");
  // The window's wall span is measured *before* any repartition runs
  // (and window_wall_start_ is re-armed after it returns), so a
  // repartition's cost shows up only in partitioner_ms — not smeared
  // into this or the next window's window_wall_ms.
  const double window_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - window_wall_start_)
          .count();
  if (cfg_.verify_incremental) verify_incremental_state();
  WindowSample sample;
  sample.window_start = window_start_;
  sample.window_end = window_end;
  sample.dynamic_edge_cut = window_metrics_.dynamic_edge_cut();
  sample.dynamic_balance = window_metrics_.dynamic_balance();
  sample.static_edge_cut =
      distinct_edges_ == 0 ? 0.0
                           : static_cast<double>(cut_edges_) /
                                 static_cast<double>(distinct_edges_);
  sample.static_balance = current_static_balance();
  sample.interactions = window_metrics_.total_interactions();

  // Quiet windows produce no sample, as in the paper's data points.
  const bool record = !window_metrics_.empty();
  if (record) {
    result_.windows.push_back(sample);
    ETHSHARD_OBS_COUNT("sim/windows", 1);
    ETHSHARD_OBS_COUNT("sim/window_interactions", sample.interactions);
  }

  WindowSnapshot snapshot;
  snapshot.window_start = window_start_;
  snapshot.window_end = window_end;
  snapshot.dynamic_edge_cut = sample.dynamic_edge_cut;
  snapshot.dynamic_balance = sample.dynamic_balance;
  snapshot.interactions = sample.interactions;
  snapshot.since_last_repartition = window_end - last_repartition_;

  window_metrics_.reset();
  window_start_ = window_end;

  const bool repartitioned = maybe_repartition(snapshot);
  window_wall_start_ = std::chrono::steady_clock::now();

  if (!cfg_.consumers.empty()) {
    WindowTelemetry tel;
    tel.window_start = sample.window_start;
    tel.window_end = sample.window_end;
    tel.interactions = sample.interactions;
    tel.recorded = record;
    tel.dynamic_edge_cut = sample.dynamic_edge_cut;
    tel.dynamic_balance = sample.dynamic_balance;
    tel.static_edge_cut = sample.static_edge_cut;
    tel.static_balance = sample.static_balance;
    tel.window_wall_ms = window_wall_ms;
    tel.repartition = repartitioned;
    if (repartitioned) {
      const RepartitionEvent& ev = result_.repartitions.back();
      tel.partitioner_ms = ev.compute_ms;
      tel.moves = ev.moves;
      tel.moved_state_units = ev.moved_state_units;
    }
    tel.rss_mb =
        static_cast<double>(util::current_rss_bytes()) / (1024.0 * 1024.0);
    tel.peak_rss_mb =
        static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
    for (TelemetryConsumer* consumer : cfg_.consumers)
      consumer->on_window(tel);
  }
}

bool ShardingSimulator::maybe_repartition(const WindowSnapshot& snapshot) {
  Env env(*this);
  if (!strategy_.should_repartition(snapshot, env)) return false;

  ETHSHARD_OBS_SPAN("sim/repartition");
  const auto wall_start = std::chrono::steady_clock::now();
  partition::Partition next = strategy_.compute_partition(env);
  const double compute_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  ETHSHARD_OBS_RECORD_MS("sim/repartition_compute_ms", compute_ms);
  ETHSHARD_CHECK_MSG(next.size() == part_.size(),
                     "strategy returned wrong-sized partition");
  ETHSHARD_CHECK(next.k() == cfg_.k);

  // Rename the new labels to maximize overlap with the current ones, so
  // a from-scratch partitioner is not charged for pure label
  // permutations (its structural reshuffling still counts in full).
  partition::align_partition_labels(part_, &next);

  // Reassign every vertex whose label changes (any label, including
  // kUnassigned — the cut treats it as one more shard id). Each vertex's
  // cut delta is evaluated against the current part_ state and applied
  // before its own reassignment, so sequential application is exact for
  // any move set; every vertex moves at most once, so the deltas scan at
  // most the 2 arcs per distinct edge a full sweep would.
  std::uint64_t moves = 0;
  std::uint64_t moved_state = 0;
  for (graph::Vertex v = 0; v < part_.size(); ++v) {
    const partition::ShardId a = part_.shard_of(v);
    const partition::ShardId b = next.shard_of(v);
    if (a == b) continue;
    apply_cut_delta(v, a, b);
    if (a != partition::kUnassigned) {
      --shard_counts_[a];
      shard_loads_[a] -= activity_[v];
    }
    if (b != partition::kUnassigned) {
      ++shard_counts_[b];
      shard_loads_[b] += activity_[v];
    }
    part_.assign(v, b);
    if (a == partition::kUnassigned || b == partition::kUnassigned)
      continue;
    ++moves;
    moved_state += 1 + activity_[v];
  }

  if (cfg_.verify_incremental) {
    verify_incremental_state();
    ETHSHARD_CHECK_MSG(cumulative_snapshot() == cumulative_.build_undirected(),
                       "cached cumulative snapshot diverged");
    verify_window_state();
  }

  // A fresh activity window begins at every repartition (§II-C R-METIS:
  // the reduced graph "starts at the last (re)partitioning").
  cumulative_.start_window();
  std::fill(window_activity_.begin(), window_activity_.end(), 0);

  last_repartition_ = snapshot.window_end;
  result_.repartitions.push_back(RepartitionEvent{
      snapshot.window_end, moves, moved_state, compute_ms});
  result_.total_moves += moves;
  result_.total_moved_state_units += moved_state;
  ETHSHARD_OBS_COUNT("sim/repartitions", 1);
  ETHSHARD_OBS_COUNT("sim/moves", moves);
  ETHSHARD_OBS_HIST("sim/repartition_moves", moves);
  return true;
}

void ShardingSimulator::begin_step(util::Timestamp ts) {
  now_ = ts;
  if (!started_) {
    started_ = true;
    window_start_ = ts;
    last_repartition_ = ts;
    window_wall_start_ = std::chrono::steady_clock::now();
  }
  while (now_ >= window_start_ + cfg_.metric_window) {
    // Long traffic gaps: once the accumulating window is empty, every
    // pending window up to the current block is empty too. Skip them
    // wholesale as far as the strategy's no_repartition_before bound
    // allows — they would produce no sample and a guaranteed-false
    // should_repartition, so the result is identical. Consumers see
    // every window, so the skip runs only when none is attached.
    if (cfg_.consumers.empty() && window_metrics_.empty()) {
      const util::Timestamp width = cfg_.metric_window;
      const auto pending =
          static_cast<std::uint64_t>((now_ - window_start_) / width);
      const util::Timestamp consult_at =
          strategy_.no_repartition_before(last_repartition_);
      std::uint64_t skip = 0;
      if (consult_at > window_start_ + width) {
        // Window i ends at window_start_ + i*width; skippable while
        // that end stays strictly before consult_at.
        const auto limit = static_cast<std::uint64_t>(
            (consult_at - window_start_ - 1) / width);
        skip = std::min(pending, limit);
      }
      if (skip > 0) {
        window_start_ += static_cast<util::Timestamp>(skip) * width;
        result_.gap_windows_skipped += skip;
        ETHSHARD_OBS_COUNT("sim/gap_windows_skipped", skip);
        continue;
      }
    }
    flush_window(window_start_ + cfg_.metric_window);
  }
}

SimulationResult ShardingSimulator::run() {
  ETHSHARD_CHECK_MSG(!ran_, "simulator is single-use");
  ran_ = true;
  ETHSHARD_OBS_SPAN("sim/run");

  result_.strategy_name = strategy_.name();
  result_.k = cfg_.k;

  // next_ref() is zero-copy for a MaterializedSource (it hands out the
  // chain's own storage); streaming sources buffer one block.
  while (const eth::Block* block = source_->next_ref()) {
    begin_step(block->timestamp);
    for (const eth::Transaction& tx : block->transactions)
      process_transaction(tx);
  }

  // Empty stream: no window clock ever started, nothing to flush (the
  // result keeps its default-constructed aggregates, as before).
  if (!started_) return std::move(result_);

  // Final partial window: its reported end is clamped to just past the
  // last block instead of a full metric_window into silence.
  flush_window(std::min(window_start_ + cfg_.metric_window, now_ + 1));

  ETHSHARD_OBS_GAUGE("sim/peak_rss_mb",
                     static_cast<double>(util::peak_rss_bytes()) /
                         (1024.0 * 1024.0));

  result_.vertices = part_.size();
  result_.distinct_edges = distinct_edges_;
  result_.interactions = executed_total_;
  result_.final_static_edge_cut =
      distinct_edges_ == 0 ? 0.0
                           : static_cast<double>(cut_edges_) /
                                 static_cast<double>(distinct_edges_);
  result_.final_static_balance = current_static_balance();
  result_.executed_cross_shard_fraction =
      executed_pair_ == 0 ? 0.0
                          : static_cast<double>(executed_cross_) /
                                static_cast<double>(executed_pair_);
  return std::move(result_);
}

}  // namespace ethshard::core
