// Timestamped (time, value) series with windowed sums and rate binning: one
// 16-byte point per sample, scanned in full by every query. Flows record
// runs in the compact FlowLog (stats/flow_log.h); this is the plain
// reference its queries are tested against.
#pragma once

#include <stdexcept>
#include <vector>

#include "util/types.h"

namespace libra {

class TimeSeries {
 public:
  struct Point {
    SimTime time = 0;
    double value = 0.0;
  };

  void add(SimTime t, double v) { points_.push_back({t, v}); }

  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  /// Sum of values with time in [t0, t1).
  double sum_in(SimTime t0, SimTime t1) const {
    double s = 0.0;
    for (const Point& p : points_)
      if (p.time >= t0 && p.time < t1) s += p.value;
    return s;
  }

  /// Mean of values with time in [t0, t1); 0 if no points fall inside.
  double mean_in(SimTime t0, SimTime t1) const {
    double s = 0.0;
    std::size_t n = 0;
    for (const Point& p : points_)
      if (p.time >= t0 && p.time < t1) { s += p.value; ++n; }
    return n > 0 ? s / static_cast<double>(n) : 0.0;
  }

  /// Bins point *values as byte counts* into rates (bits/s) per `bin` window
  /// over [0, horizon). Events outside the horizon are ignored.
  std::vector<double> to_rate_bins(SimDuration bin, SimDuration horizon) const {
    if (bin <= 0 || horizon <= 0) throw std::invalid_argument("to_rate_bins: bad args");
    std::vector<double> bits(static_cast<std::size_t>((horizon + bin - 1) / bin), 0.0);
    for (const Point& p : points_) {
      if (p.time < 0 || p.time >= horizon) continue;
      bits[static_cast<std::size_t>(p.time / bin)] += p.value * 8.0;
    }
    for (double& b : bits) b /= to_seconds(bin);
    return bits;
  }

 private:
  std::vector<Point> points_;
};

}  // namespace libra
