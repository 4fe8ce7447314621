#include "pointcloud/ops.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace gp {

std::vector<std::size_t> knn(const PointCloud& cloud, const Vec3& query, std::size_t k) {
  check_arg(!cloud.empty(), "knn over empty cloud");
  k = std::min(k, cloud.size());
  std::vector<std::size_t> idx(cloud.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      return (cloud[a].position - query).norm2() <
                             (cloud[b].position - query).norm2();
                    });
  idx.resize(k);
  return idx;
}

std::vector<std::size_t> ball_query(const PointCloud& cloud, const Vec3& query, double radius,
                                    std::size_t max_count) {
  check_arg(radius > 0.0, "ball_query radius must be positive");
  std::vector<std::pair<double, std::size_t>> hits;
  const double r2 = radius * radius;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const double d2 = (cloud[i].position - query).norm2();
    if (d2 <= r2) hits.emplace_back(d2, i);
  }
  std::sort(hits.begin(), hits.end());
  if (max_count > 0 && hits.size() > max_count) hits.resize(max_count);
  std::vector<std::size_t> out;
  out.reserve(hits.size());
  for (const auto& [d2, i] : hits) out.push_back(i);
  return out;
}

void farthest_point_sample_into(const PointCloud& cloud, std::size_t n, std::size_t start,
                                ResampleScratch& scratch) {
  check_arg(!cloud.empty(), "FPS over empty cloud");
  check_arg(start < cloud.size(), "FPS start index out of range");
  std::vector<std::size_t>& selected = scratch.selected;
  selected.clear();
  if (n >= cloud.size()) {
    selected.resize(cloud.size());
    std::iota(selected.begin(), selected.end(), 0);
    return;
  }

  selected.reserve(n);
  scratch.min_dist2.assign(cloud.size(), std::numeric_limits<double>::infinity());
  std::vector<double>& min_dist2 = scratch.min_dist2;
  std::size_t current = start;
  for (std::size_t round = 0; round < n; ++round) {
    selected.push_back(current);
    std::size_t farthest = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      const double d2 = (cloud[i].position - cloud[current].position).norm2();
      min_dist2[i] = std::min(min_dist2[i], d2);
      if (min_dist2[i] > best) {
        best = min_dist2[i];
        farthest = i;
      }
    }
    current = farthest;
  }
}

void resample_into(const PointCloud& cloud, std::size_t n, Rng& rng, ResampleScratch& scratch,
                   PointCloud& out) {
  check_arg(!cloud.empty(), "resample of empty cloud");
  check_arg(n > 0, "resample to zero points");
  out.clear();
  out.reserve(n);
  if (cloud.size() >= n) {
    // One index() draw for the FPS start point.
    farthest_point_sample_into(cloud, n, rng.index(cloud.size()), scratch);
    for (std::size_t i : scratch.selected) out.push_back(cloud[i]);
  } else {
    out.insert(out.end(), cloud.begin(), cloud.end());
    while (out.size() < n) out.push_back(cloud[rng.index(cloud.size())]);
  }
}

PointCloud normalize_centroid(const PointCloud& cloud, double scale) {
  check_arg(scale != 0.0, "normalize_centroid scale must be non-zero");
  if (cloud.empty()) return {};
  const Vec3 c = centroid(cloud);
  PointCloud out = cloud;
  for (auto& p : out) p.position = (p.position - c) / scale;
  return out;
}

}  // namespace gp
