#include "checks.hpp"

#include <cmath>

namespace wallbench::checks {

bool agrees(double got, double expected, double tolerance) {
  return std::isfinite(got) && std::isfinite(expected) &&
         std::fabs(got - expected) <= tolerance;
}

double stage_log_success(double work, double phi, double lambda, double speed) {
  return work * std::log1p(-phi) - lambda * work / speed;
}

double chain_pfail(std::size_t stages, double work, double phi, double lambda,
                   double speed) {
  return -std::expm1(static_cast<double>(stages) *
                     stage_log_success(work, phi, lambda, speed));
}

double cyclic_chain_pfail(const std::vector<double>& back, double log_success) {
  // x_i = P(reach End | in stage i):
  //   x_i − s·back_i·x_{i−1} − s·(1 − back_i)·x_{i+1} = 0,  x_n = 1 (End),
  // with back_0 = 0. Forward sweep eliminates the sub-diagonal; the diagonal
  // stays >= 1 − s > 0 because every row is strictly dominant.
  const std::size_t n = back.size();
  if (n == 0) return 0.0;
  const double s = std::exp(log_success);
  std::vector<double> upper(n);  // normalised super-diagonal c'_i
  std::vector<double> rhs(n);    // normalised right-hand side d'_i
  for (std::size_t i = 0; i < n; ++i) {
    const double down = i == 0 ? 0.0 : -s * back[i];
    const double forward = s * (i == 0 ? 1.0 : 1.0 - back[i]);
    const double c = i + 1 < n ? -forward : 0.0;
    const double d = i + 1 < n ? 0.0 : forward;
    const double diagonal = 1.0 - (i == 0 ? 0.0 : down * upper[i - 1]);
    upper[i] = c / diagonal;
    rhs[i] = (d - (i == 0 ? 0.0 : down * rhs[i - 1])) / diagonal;
  }
  double x = rhs[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) x = rhs[i] - upper[i] * x;
  return 1.0 - x;
}

bool response_matches(const sorel::resil::RequestOutcome& outcome,
                      const std::string& expected) {
  return outcome.transport_ok && outcome.ok && outcome.response == expected;
}

}  // namespace wallbench::checks
