// Geometric operations on point clouds: neighbour queries, farthest point
// sampling, ball grouping and normalisation. These are the primitives the
// PointNet++-style set abstraction in GesIDNet is built from.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "common/vec3.hpp"
#include "pointcloud/point.hpp"

namespace gp {

/// Indices of the k nearest neighbours of `query` within `cloud`, ordered by
/// increasing distance. k is clamped to cloud.size(). Brute force: gesture
/// clouds are a few hundred points, so an index structure would not pay off.
std::vector<std::size_t> knn(const PointCloud& cloud, const Vec3& query, std::size_t k);

/// Indices of all points within `radius` of `query`, capped at `max_count`
/// (0 = unlimited), nearest first.
std::vector<std::size_t> ball_query(const PointCloud& cloud, const Vec3& query, double radius,
                                    std::size_t max_count = 0);

/// Reusable working memory for resample_into (FPS selection + distance
/// table); one per hot caller keeps resampling allocation-free.
struct ResampleScratch {
  std::vector<std::size_t> selected;
  std::vector<double> min_dist2;
};

/// Farthest point sampling: greedily selects n indices maximising pairwise
/// coverage, starting from `start`, into `scratch.selected`. If the cloud
/// has fewer than n points all indices are selected (no padding here;
/// callers pad). Allocation-free once `scratch` has grown.
void farthest_point_sample_into(const PointCloud& cloud, std::size_t n, std::size_t start,
                                ResampleScratch& scratch);

/// Resamples a cloud to exactly n points into `out`: FPS when shrinking,
/// repetition with jitter-free duplication when growing. Deterministic
/// given `rng`; reuses `out`'s capacity and `scratch`'s tables.
void resample_into(const PointCloud& cloud, std::size_t n, Rng& rng, ResampleScratch& scratch,
                   PointCloud& out);

/// Translates the cloud so its centroid is at origin and divides positions
/// by `scale` (pass 1.0 to only centre). Velocity/SNR are untouched.
PointCloud normalize_centroid(const PointCloud& cloud, double scale = 1.0);

/// Pairwise Euclidean distance between two points' positions.
inline double point_distance(const RadarPoint& a, const RadarPoint& b) {
  return distance(a.position, b.position);
}

}  // namespace gp
