// Spatial point geometries for geostatistics problems.
//
// STARS-H-style generators: n spatial locations on a jittered regular grid
// in the unit square/cube, sorted by Morton (Z-order) keys so that matrix
// index locality matches spatial locality — the prerequisite for the good
// off-diagonal compression ratios the paper exploits (Section IV, [31]).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace ptlr::stars {

/// A spatial location; z is 0 for 2D problems.
struct Point {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// Euclidean distance between two points. Inline, so the tile generator's
/// column loop (problem.cpp) vectorizes over it.
inline double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

/// n points on a jittered ⌈n^(1/2)⌉² grid in [0,1]², Morton-sorted.
std::vector<Point> grid2d(int n, Rng& rng, double jitter = 0.4);

/// n points on a jittered ⌈n^(1/3)⌉³ grid in [0,1]³, Morton-sorted.
std::vector<Point> grid3d(int n, Rng& rng, double jitter = 0.4);

/// n i.i.d. uniform points in the unit cube (dim 2 or 3), Morton-sorted.
std::vector<Point> uniform_cloud(int n, int dim, Rng& rng);

/// Sort points in place by Morton key (dim 2 uses x,y only).
void morton_sort(std::vector<Point>& pts, int dim);

/// Morton key of a point quantized to 16 bits per axis.
std::uint64_t morton_key(const Point& p, int dim);

}  // namespace ptlr::stars
