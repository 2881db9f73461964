// Metric catalogue and per-invocation ledger of ptlr_bench.
#include <algorithm>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"

namespace ptlr_bench {

namespace {

const std::vector<std::string> kAll = {"band_auto", "tlr_thin", "mle_fit",
                                       "mesh4"};

MetricDef layer(std::string name, std::string unit, bool traced,
                std::vector<Moves> moves) {
  // Rates, hit ratios and efficiencies improve upward; every time, size,
  // count of work and share of waste improves downward.
  const bool higher =
      unit == "GFLOP/s" || name == "runtime.tasks_per_s" ||
      name == "runtime.occupancy" || name == "runtime.parallel_eff" ||
      name == "runtime.inline_runs" || name == "runtime.nested_spawned" ||
      name == "core.dist.prefetch_hit_ratio";
  return {std::move(name), std::move(unit), traced, std::move(moves), higher};
}

std::vector<MetricDef> build_layer_metrics() {
  const Moves e2e_band{"e2e_s", {"band_auto"}};
  const Moves e2e_thin{"e2e_s", {"tlr_thin"}};
  const Moves e2e_mle{"e2e_s", {"mle_fit"}};
  const Moves e2e_mesh{"e2e_s", {"mesh4"}};
  const Moves e2e_band_mle{"e2e_s", {"band_auto", "mle_fit"}};
  const Moves e2e_shared{"e2e_s", {"band_auto", "tlr_thin", "mle_fit"}};
  const Moves e2e_all{"e2e_s", kAll};

  std::vector<MetricDef> m = {
      layer("stars.make_problem_s", "s", false, {{"setup_s", kAll}}),

      layer("tlr.from_problem_s", "s", false, {e2e_band_mle}),
      layer("tlr.regen_s", "s", false, {e2e_band_mle}),
      layer("tlr.footprint_mb", "MB", false, {{"peak_rss_mb", kAll}}),
      layer("tlr.rank_mean", "rank", false, {{"e2e_s", {"tlr_thin", "band_auto"}}}),
      layer("tlr.rank_max", "rank", false, {e2e_thin}),

      layer("core.tune_s", "s", false, {e2e_band_mle}),
      layer("core.band_size", "tiles", false, {e2e_band_mle}),
      layer("core.factorize_s", "s", false, {e2e_shared}),
      layer("core.graph_build_s", "s", false, {e2e_band}),
      layer("core.graph_tasks", "count", false, {e2e_band}),
      layer("core.solve_s", "s", false, {{"e2e_s", {"band_auto", "tlr_thin"}}}),
      layer("core.unexplained_frac", "1", false, {e2e_shared}),
      layer("core.mle_evals", "count", false, {e2e_mle}),
      layer("core.mle_eval_s", "s", false, {e2e_mle}),
      layer("core.mle_compress_share", "1", true, {e2e_mle}),

      layer("core.dist.factor_s_max", "s", false, {e2e_mesh}),
      layer("core.dist.factor_s_min", "s", false, {e2e_mesh}),
      layer("core.dist.replica_compress_s", "s", false, {e2e_mesh}),
      layer("core.dist.blocked_recv_s", "s", false, {e2e_mesh}),
      layer("core.dist.blocked_frac", "1", false, {e2e_mesh}),
      layer("core.dist.prefetch_hit_ratio", "1", false, {e2e_mesh}),
      layer("core.dist.messages", "count", false, {e2e_mesh}),
      layer("core.dist.payload_mb", "MB", false, {e2e_mesh}),
      layer("core.dist.root_egress_mb_max", "MB", false, {e2e_mesh}),
      layer("core.dist.forwards", "count", false, {e2e_mesh}),
      layer("core.placement.alpha_us", "us", true, {e2e_mesh}),
      layer("core.placement.beta_ns_per_b", "ns/B", true, {e2e_mesh}),
      layer("core.placement.model_comm_s", "s", true, {e2e_mesh}),

      layer("runtime.exec_s", "s", false, {{"e2e_s", {"band_auto", "tlr_thin"}}}),
      layer("runtime.tasks_per_s", "1/s", false, {e2e_band}),
      layer("runtime.occupancy", "1", true, {e2e_band}),
      layer("runtime.idle_s", "s", true, {e2e_band}),
      layer("runtime.parallel_eff", "1", true, {e2e_band}),
      layer("runtime.steals", "count", false, {e2e_band}),
      layer("runtime.parks", "count", false, {e2e_band}),
      layer("runtime.inline_runs", "count", false, {e2e_band}),
      layer("runtime.nested_spawned", "count", false, {e2e_band}),
  };

  for (const char* cls : kHcoreClasses) {
    const std::string c = cls;
    // Dense region-(1) classes sit on band_auto's critical path. (5)-GEMM
    // needs a dense off-diagonal operand, so it runs only where a dense
    // band feeds low-rank tiles: it is most of band_auto's and mle_fit's
    // task time and absent from tlr_thin and mesh4, whose only dense tiles
    // are the diagonal. (6)-GEMM, (3)-SYRK and (4)-TRSM are the bulk of
    // tlr_thin and of the mesh ranks' work.
    const bool lowrank = c == "gemm6" || c == "syrk3" || c == "trsm4";
    const Moves mv = c == "gemm5" ? e2e_band_mle
                     : lowrank    ? Moves{"e2e_s", {"tlr_thin", "mesh4"}}
                                  : e2e_band;
    m.push_back(layer("hcore." + c + ".count", "count", true, {mv}));
    m.push_back(layer("hcore." + c + ".s", "s", true, {mv}));
    m.push_back(layer("hcore." + c + ".gflops", "GFLOP/s", true, {mv}));
  }

  // Every (5)/(6)-GEMM ends in a recompression: band_auto's and
  // tlr_thin's low-rank updates both go through it.
  const Moves e2e_recompress{"e2e_s", {"tlr_thin", "band_auto"}};
  const std::vector<MetricDef> tail = {
      layer("compress.recompress_count", "count", true, {e2e_recompress}),
      layer("compress.rank_in_mean", "rank", true, {e2e_recompress}),
      layer("compress.rank_out_mean", "rank", true, {e2e_recompress}),
      layer("compress.sketch_cols_mean", "cols", true, {e2e_recompress}),
      layer("compress.fallbacks", "count", true, {e2e_recompress}),

      layer("net.connect_s", "s", false, {{"setup_s", {"mesh4"}}}),
      layer("net.frames_sent", "count", false, {e2e_mesh}),
      layer("net.wire_mb_sent", "MB", false, {e2e_mesh}),
      layer("net.retransmits", "count", false, {e2e_mesh}),
      layer("net.retransmit_ratio", "1", false, {e2e_mesh}),

      layer("resilience.events", "count", false, {e2e_all}),
      layer("obs.trace_overhead", "1", true, {e2e_band}),
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto& d : end_to_end_metrics())
    if (d.name == name) return &d;
  for (const auto& d : layer_metrics())
    if (d.name == name) return &d;
  return nullptr;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string string_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + quote(v[i]);
  return out + "]";
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

const std::vector<std::string>& workload_names() { return kAll; }

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"e2e_s", "s", false, {}},
      {"setup_s", "s", false, {}},
      {"peak_rss_mb", "MB", false, {}},
  };
  return m;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> m = build_layer_metrics();
  return m;
}

std::string catalogue_json() {
  std::ostringstream os;
  os << "{\n  \"workloads\": " << string_list(workload_names())
     << ",\n  \"end_to_end\": [";
  const auto& e2e = end_to_end_metrics();
  for (std::size_t i = 0; i < e2e.size(); ++i)
    os << (i ? "," : "") << "\n    {\"name\": " << quote(e2e[i].name)
       << ", \"unit\": " << quote(e2e[i].unit) << ", \"better\": \"lower\"}";
  os << "\n  ],\n  \"per_layer\": [";
  const auto& lay = layer_metrics();
  for (std::size_t i = 0; i < lay.size(); ++i) {
    const MetricDef& d = lay[i];
    os << (i ? "," : "") << "\n    {\"name\": " << quote(d.name)
       << ", \"unit\": " << quote(d.unit) << ", \"better\": "
       << quote(d.higher_is_better ? "higher" : "lower") << ", \"source\": "
       << quote(d.traced ? "traced" : "timed") << ", \"moves\": [";
    for (std::size_t k = 0; k < d.moves.size(); ++k)
      os << (k ? ", " : "") << "{\"metric\": " << quote(d.moves[k].metric)
         << ", \"workloads\": " << string_list(d.moves[k].workloads) << "}";
    os << "]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

void Ledger::begin_rep() {
  arm_rep_deadline();
  attempted_.fetch_add(1);
  rep_failed_ = false;
}

void Ledger::check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back("rep " + std::to_string(attempted_.load()) + ": " +
                      what);
  if (!rep_failed_) {
    rep_failed_ = true;
    failed_.fetch_add(1);
  }
}

void Ledger::add(const std::string& metric, double value) {
  PTLR_CHECK(find_metric(metric) != nullptr,
             "uncatalogued metric " + metric);
  samples_[metric].push_back(value);
}

void Ledger::note(const std::string& key, const std::string& value) {
  notes_[key] = quote(value);
}

void Ledger::note(const std::string& key, double value) {
  notes_[key] = num(value);
}

bool Ledger::has(const std::string& metric) const {
  const auto it = samples_.find(metric);
  return it != samples_.end() && !it->second.empty();
}

double Ledger::median(const std::string& metric) const {
  PTLR_CHECK(has(metric), "no samples of " + metric);
  return median_of(samples_.at(metric));
}

std::string Ledger::to_json(const std::string& head) const {
  std::ostringstream os;
  os << "{\n" << head;
  os << "  \"correct\": " << (failed() == 0 ? "true" : "false")
     << ",\n  \"attempted\": " << attempted()
     << ",\n  \"failed\": " << failed() << ",\n  \"failures\": "
     << string_list(failures_) << ",\n  \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : notes_) {
    os << (first ? "" : ",") << "\n    " << quote(k) << ": " << v;
    first = false;
  }
  os << "\n  },\n  \"metrics\": {";
  first = true;
  auto row = [&](const MetricDef& d, const char* kind) {
    // A metric with no samples is not on this workload's path: it reads 0
    // with reps 0.
    const auto it = samples_.find(d.name);
    const std::vector<double> none;
    const std::vector<double>& v = it == samples_.end() ? none : it->second;
    const double med = v.empty() ? 0.0 : median_of(v);
    const double lo = v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    const double hi = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    os << (first ? "" : ",") << "\n    " << quote(d.name) << ": {\"kind\": "
       << quote(kind) << ", \"unit\": " << quote(d.unit)
       << ", \"source\": " << quote(d.traced ? "traced" : "timed")
       << ", \"median\": " << num(med) << ", \"min\": " << num(lo)
       << ", \"max\": " << num(hi) << ", \"reps\": " << v.size() << "}";
    first = false;
  };
  for (const auto& d : end_to_end_metrics()) row(d, "end_to_end");
  for (const auto& d : layer_metrics()) row(d, "per_layer");
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace ptlr_bench
