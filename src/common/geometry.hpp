#pragma once

#include <algorithm>
#include <cmath>

namespace dagt {

/// 2-D point in micron-scale layout coordinates.
struct Point {
  float x = 0.0f;
  float y = 0.0f;

  bool operator==(const Point&) const = default;
};

/// Manhattan (L1) distance — the routing-relevant metric.
inline float manhattan(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Axis-aligned rectangle [lo, hi].
struct Rect {
  Point lo;
  Point hi;

  bool operator==(const Rect&) const = default;

  float width() const { return hi.x - lo.x; }
  float height() const { return hi.y - lo.y; }
  float area() const { return width() * height(); }

  bool contains(const Point& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  /// Grow to include p.
  void expand(const Point& p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  /// Half-perimeter wirelength of the bounding box.
  float halfPerimeter() const { return width() + height(); }
};

}  // namespace dagt
