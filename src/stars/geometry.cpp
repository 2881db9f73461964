#include "stars/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/morton.hpp"

namespace ptlr::stars {

std::uint64_t morton_key(const Point& p, int dim) {
  constexpr int kBits = 16;
  const auto qx = morton::quantize(p.x, kBits);
  const auto qy = morton::quantize(p.y, kBits);
  if (dim == 2) return morton::encode2(qx, qy);
  const auto qz = morton::quantize(p.z, kBits);
  return morton::encode3(qx, qy, qz);
}

void morton_sort(std::vector<Point>& pts, int dim) {
  PTLR_CHECK(dim == 2 || dim == 3, "morton_sort supports dim 2 or 3");
  std::stable_sort(pts.begin(), pts.end(),
                   [dim](const Point& a, const Point& b) {
                     return morton_key(a, dim) < morton_key(b, dim);
                   });
}

std::vector<Point> grid2d(int n, Rng& rng, double jitter) {
  PTLR_CHECK(n > 0, "need at least one point");
  const int g = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double h = 1.0 / g;
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(g) * g);
  for (int i = 0; i < g && static_cast<int>(pts.size()) < n; ++i)
    for (int j = 0; j < g && static_cast<int>(pts.size()) < n; ++j) {
      Point p;
      p.x = (i + 0.5 + rng.uniform(-jitter, jitter)) * h;
      p.y = (j + 0.5 + rng.uniform(-jitter, jitter)) * h;
      pts.push_back(p);
    }
  morton_sort(pts, 2);
  return pts;
}

std::vector<Point> grid3d(int n, Rng& rng, double jitter) {
  PTLR_CHECK(n > 0, "need at least one point");
  const int g =
      static_cast<int>(std::ceil(std::cbrt(static_cast<double>(n))));
  const double h = 1.0 / g;
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(g) * g * g);
  for (int i = 0; i < g && static_cast<int>(pts.size()) < n; ++i)
    for (int j = 0; j < g && static_cast<int>(pts.size()) < n; ++j)
      for (int k = 0; k < g && static_cast<int>(pts.size()) < n; ++k) {
        Point p;
        p.x = (i + 0.5 + rng.uniform(-jitter, jitter)) * h;
        p.y = (j + 0.5 + rng.uniform(-jitter, jitter)) * h;
        p.z = (k + 0.5 + rng.uniform(-jitter, jitter)) * h;
        pts.push_back(p);
      }
  morton_sort(pts, 3);
  return pts;
}

std::vector<Point> uniform_cloud(int n, int dim, Rng& rng) {
  PTLR_CHECK(dim == 2 || dim == 3, "uniform_cloud supports dim 2 or 3");
  std::vector<Point> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform();
    p.y = rng.uniform();
    p.z = dim == 3 ? rng.uniform() : 0.0;
  }
  morton_sort(pts, dim);
  return pts;
}

}  // namespace ptlr::stars
