#include "obs/report.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>

#include "common/error.hpp"

namespace ptlr::obs {

namespace {

std::string bar(double frac, int width = 40) {
  const int k = std::max(0, std::min(width, static_cast<int>(frac * width)));
  return std::string(static_cast<std::size_t>(k), '#');
}

}  // namespace

RankHistogram rank_histogram(const tlr::TlrMatrix& m, int bucket_width) {
  PTLR_CHECK(bucket_width >= 1, "rank_histogram: bucket_width must be >= 1");
  RankHistogram h;
  h.bucket_width = bucket_width;
  h.tile_size = m.tile_size();
  long long sum = 0;
  int minr = -1, maxr = 0;
  for (int i = 0; i < m.nt(); ++i) {
    for (int j = 0; j <= i; ++j) {
      const tlr::Tile& t = m.at(i, j);
      if (i == j) {
        h.dense_diag++;
        continue;
      }
      if (t.is_dense()) {
        h.dense_offdiag++;
        continue;
      }
      const int r = t.rank();
      h.lowrank_tiles++;
      sum += r;
      minr = minr < 0 ? r : std::min(minr, r);
      maxr = std::max(maxr, r);
      const std::size_t bucket = static_cast<std::size_t>(r / bucket_width);
      if (h.counts.size() <= bucket) h.counts.resize(bucket + 1, 0);
      h.counts[bucket]++;
    }
  }
  h.min_rank = std::max(minr, 0);
  h.max_rank = maxr;
  h.mean_rank = h.lowrank_tiles > 0
                    ? static_cast<double>(sum) /
                          static_cast<double>(h.lowrank_tiles)
                    : 0.0;
  return h;
}

std::string to_ascii(const RankHistogram& h) {
  std::ostringstream os;
  os << "rank distribution (" << h.lowrank_tiles << " low-rank tiles, "
     << h.dense_offdiag << " densified band tiles, " << h.dense_diag
     << " diagonal tiles)\n";
  os << "min/mean/max rank = " << h.min_rank << "/" << h.mean_rank << "/"
     << h.max_rank << " (tile size " << h.tile_size << ")\n";
  long long most = 1;
  for (const long long c : h.counts) most = std::max(most, c);
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const int lo = static_cast<int>(b) * h.bucket_width;
    os << "  [" << lo << "," << lo + h.bucket_width << ") " << h.counts[b]
       << "\t"
       << bar(static_cast<double>(h.counts[b]) / static_cast<double>(most))
       << "\n";
  }
  return os.str();
}

std::string to_json(const RankHistogram& h) {
  std::ostringstream os;
  os.precision(17);  // doubles round-trip exactly
  os << "{\"bucket_width\": " << h.bucket_width
     << ", \"tile_size\": " << h.tile_size
     << ", \"lowrank_tiles\": " << h.lowrank_tiles
     << ", \"dense_offdiag\": " << h.dense_offdiag
     << ", \"dense_diag\": " << h.dense_diag
     << ", \"min_rank\": " << h.min_rank << ", \"mean_rank\": " << h.mean_rank
     << ", \"max_rank\": " << h.max_rank << ", \"counts\": [";
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    if (b > 0) os << ", ";
    os << h.counts[b];
  }
  os << "]}";
  return os.str();
}

MemoryReport memory_report(const tlr::TlrMatrix& m, int static_maxrank) {
  MemoryReport r;
  r.n = m.n();
  r.tile_size = m.tile_size();
  r.band_size = m.band_size();
  r.static_maxrank =
      static_maxrank > 0 ? static_maxrank : std::max(1, m.tile_size() / 2);
  const double bytes_per = 8.0;
  r.exact_mb =
      static_cast<double>(m.footprint_elements()) * bytes_per / 1e6;
  r.static_mb =
      static_cast<double>(m.static_footprint_elements(r.static_maxrank)) *
      bytes_per / 1e6;
  // Dense lower triangle incl. diagonal, the storage a dense POTRF needs.
  const double n = static_cast<double>(m.n());
  r.dense_mb = n * (n + 1) / 2.0 * bytes_per / 1e6;
  r.ratio_vs_dense = r.dense_mb > 0 ? r.exact_mb / r.dense_mb : 0.0;
  r.ratio_vs_static = r.static_mb > 0 ? r.exact_mb / r.static_mb : 0.0;
  return r;
}

std::string to_ascii(const MemoryReport& r) {
  std::ostringstream os;
  os << "memory footprint, N = " << r.n << ", b = " << r.tile_size
     << ", BAND_SIZE = " << r.band_size << "\n";
  os << "  exact-rank (New):       " << r.exact_mb << " MB\n";
  os << "  static maxrank=" << r.static_maxrank
     << " (Prev): " << r.static_mb << " MB\n";
  os << "  dense lower triangle:   " << r.dense_mb << " MB\n";
  os << "  exact/dense = " << r.ratio_vs_dense
     << ", exact/static = " << r.ratio_vs_static << "\n";
  return os.str();
}

std::string to_json(const MemoryReport& r) {
  std::ostringstream os;
  os.precision(17);  // doubles round-trip exactly
  os << "{\"n\": " << r.n << ", \"tile_size\": " << r.tile_size
     << ", \"band_size\": " << r.band_size
     << ", \"static_maxrank\": " << r.static_maxrank
     << ", \"exact_mb\": " << r.exact_mb
     << ", \"static_mb\": " << r.static_mb
     << ", \"dense_mb\": " << r.dense_mb
     << ", \"ratio_vs_dense\": " << r.ratio_vs_dense
     << ", \"ratio_vs_static\": " << r.ratio_vs_static << "}";
  return os.str();
}

namespace {

/// First start over one run's spans: the run's time origin.
double run_origin(const std::vector<Span>& spans) {
  double t = spans.empty() ? 0.0 : spans.front().t0;
  for (const Span& s : spans) t = std::min(t, s.t0);
  return t;
}

}  // namespace

CriticalPathReport critical_path(const rt::TaskGraph& g,
                                 const std::vector<Span>& spans) {
  const int n = g.size();
  CriticalPathReport r;
  if (n == 0) return r;

  std::vector<double> seconds(static_cast<std::size_t>(n), 0.0);
  const double origin = run_origin(spans);
  for (const Span& s : spans) {
    if (s.task < 0 || s.task >= n) continue;
    seconds[static_cast<std::size_t>(s.task)] = s.t1 - s.t0;
    r.serial_seconds += s.t1 - s.t0;
    r.makespan = std::max(r.makespan, s.t1 - origin);
  }
  auto duration = [&](rt::TaskId t) {
    return seconds[static_cast<std::size_t>(t)];
  };

  // Longest weighted path via Kahn topological order (the generator emits
  // forward edges, but explicit add_dependency edges need not be sorted).
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (rt::TaskId t = 0; t < n; ++t)
    indeg[static_cast<std::size_t>(t)] = g.num_predecessors(t);
  std::queue<rt::TaskId> q;
  for (rt::TaskId t = 0; t < n; ++t)
    if (indeg[static_cast<std::size_t>(t)] == 0) q.push(t);

  std::vector<double> dist(static_cast<std::size_t>(n), 0.0);
  std::vector<int> hops(static_cast<std::size_t>(n), 1);
  int seen = 0;
  while (!q.empty()) {
    const rt::TaskId t = q.front();
    q.pop();
    seen++;
    const double d = dist[static_cast<std::size_t>(t)] + duration(t);
    dist[static_cast<std::size_t>(t)] = d;
    if (d > r.path_seconds ||
        (d == r.path_seconds &&
         hops[static_cast<std::size_t>(t)] > r.path_tasks)) {
      r.path_seconds = d;
      r.path_tasks = hops[static_cast<std::size_t>(t)];
    }
    for (const rt::TaskId s : g.successors(t)) {
      auto& ds = dist[static_cast<std::size_t>(s)];
      if (d > ds) {
        ds = d;
        hops[static_cast<std::size_t>(s)] =
            hops[static_cast<std::size_t>(t)] + 1;
      }
      if (--indeg[static_cast<std::size_t>(s)] == 0) q.push(s);
    }
  }
  PTLR_CHECK(seen == n, "critical_path: graph has a dependency cycle");
  r.avg_parallelism =
      r.path_seconds > 0.0 ? r.serial_seconds / r.path_seconds : 0.0;
  return r;
}

std::vector<double> panel_release_times(const std::vector<Span>& spans) {
  int max_panel = -1;
  for (const Span& s : spans) max_panel = std::max(max_panel, s.panel);
  std::vector<double> out(static_cast<std::size_t>(max_panel + 1), 0.0);
  const double origin = run_origin(spans);
  for (const Span& s : spans) {
    if (s.panel < 0) continue;
    double& t = out[static_cast<std::size_t>(s.panel)];
    t = std::max(t, s.t1 - origin);
  }
  return out;
}

std::vector<KindStats> kind_breakdown(const std::vector<Span>& spans) {
  std::map<int, KindStats> agg;
  for (const Span& s : spans) {
    KindStats& k = agg[s.kind];
    k.kind = s.kind;
    k.count++;
    k.seconds += s.t1 - s.t0;
  }
  std::vector<KindStats> out;
  out.reserve(agg.size());
  for (const auto& [kind, k] : agg) out.push_back(k);
  std::sort(out.begin(), out.end(), [](const KindStats& a, const KindStats& b) {
    return a.seconds > b.seconds;
  });
  return out;
}

std::string to_ascii(const CriticalPathReport& r) {
  std::ostringstream os;
  os << "critical path: " << r.path_seconds << " s over " << r.path_tasks
     << " tasks; serial " << r.serial_seconds << " s; makespan "
     << r.makespan << " s; avg parallelism " << r.avg_parallelism << "\n";
  return os.str();
}

std::string to_json(const CriticalPathReport& r) {
  std::ostringstream os;
  os.precision(17);  // doubles round-trip exactly
  os << "{\"path_seconds\": " << r.path_seconds
     << ", \"path_tasks\": " << r.path_tasks
     << ", \"serial_seconds\": " << r.serial_seconds
     << ", \"makespan\": " << r.makespan
     << ", \"avg_parallelism\": " << r.avg_parallelism << "}";
  return os.str();
}

}  // namespace ptlr::obs
