#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::optional<double>
percentile(std::vector<double> v, double p)
{
    const std::size_t n = v.size();
    if (n == 0 || p <= 0.0 || p >= 100.0)
        return std::nullopt;
    // The epsilon keeps p * n / 100 that is exact in decimal (990 of
    // 1000 at p99) from rounding up a rank through binary error.
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               p * static_cast<double>(n) / 100.0 - 1e-9)));
    if (n - rank < kMinBeyond)
        return std::nullopt;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

} // namespace perfbench
