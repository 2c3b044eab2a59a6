#include "linalg/stats.hpp"

#include <cmath>

#include "common/error.hpp"

namespace essex::la {

Vector column_mean(const Matrix& a) {
  ESSEX_REQUIRE(a.cols() > 0, "column_mean of an empty ensemble");
  Vector mean(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j);
    mean[i] = s / static_cast<double>(a.cols());
  }
  return mean;
}

Matrix anomalies_about(const Matrix& a, const Vector& center) {
  ESSEX_REQUIRE(center.size() == a.rows(), "anomaly center length mismatch");
  Matrix out = a;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out(i, j) -= center[i];
  return out;
}

double correlation(const Vector& x, const Vector& y) {
  ESSEX_REQUIRE(x.size() == y.size() && x.size() >= 2,
                "correlation needs two equally-long samples (n >= 2)");
  const auto n = static_cast<double>(x.size());
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double rms(const Vector& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s / static_cast<double>(v.size()));
}

double rms_diff(const Vector& a, const Vector& b) {
  ESSEX_REQUIRE(a.size() == b.size(), "rms_diff length mismatch");
  if (a.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(a.size()));
}

}  // namespace essex::la
