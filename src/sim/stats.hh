/**
 * @file
 * Statistics primitives used by every model: running averages and
 * fixed-bucket histograms. Counts are plain integer members that
 * hot paths increment directly; the telemetry registry
 * (sim/telemetry.hh) reads all of them, and its Sampler records
 * them over simulated time (the substrate for the Xmesh profiles
 * in Figures 10, 11, 20, 22 and 24 of the paper).
 */

#ifndef GS_SIM_STATS_HH
#define GS_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace gs::stats
{

/** Running mean / min / max / count over observed samples. */
class Average
{
  public:
    void
    sample(double x)
    {
        sum += x;
        n += 1;
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }

    void
    reset()
    {
        sum = 0;
        n = 0;
        lo = std::numeric_limits<double>::max();
        hi = std::numeric_limits<double>::lowest();
    }

    /**
     * Fold @p o into this average (shard aggregation). count/min/max
     * are exact; the merged total sums shard subtotals, so its
     * floating-point association differs from a single global
     * accumulator by at most the usual summation-reorder ulps.
     */
    void
    merge(const Average &o)
    {
        sum += o.sum;
        n += o.n;
        lo = std::min(lo, o.lo);
        hi = std::max(hi, o.hi);
    }

    std::uint64_t count() const { return n; }
    double total() const { return sum; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

    /** @name Checkpoint/restore: the four accumulator fields. */
    /// @{
    void
    saveCkpt(ckpt::Serializer &s) const
    {
        s.putF64(sum);
        s.put64(n);
        s.putF64(lo);
        s.putF64(hi);
    }

    void
    restoreCkpt(ckpt::Deserializer &d)
    {
        sum = d.getF64();
        n = d.get64();
        lo = d.getF64();
        hi = d.getF64();
    }
    /// @}

  private:
    double sum = 0;
    std::uint64_t n = 0;
    double lo = std::numeric_limits<double>::max();
    double hi = std::numeric_limits<double>::lowest();
};

/** Fixed-bucket histogram with overflow bucket. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets)
        : lower(lo), upper(hi), counts(buckets + 1, 0)
    {
        gs_assert(buckets > 0 && hi > lo);
    }

    void
    sample(double x)
    {
        stat.sample(x);
        if (x < lower) {
            counts.front() += 1;
        } else if (x > upper) {
            counts.back() += 1;
        } else {
            auto idx = static_cast<std::size_t>(
                (x - lower) / (upper - lower)
                * static_cast<double>(counts.size() - 1));
            // The inclusive upper edge (and any rounding that lands
            // on it) belongs to the last real bucket, not overflow.
            idx = std::min(idx, counts.size() - 2);
            counts[idx] += 1;
        }
    }

    const Average &summary() const { return stat; }
    const std::vector<std::uint64_t> &buckets() const { return counts; }

    /**
     * Percentile estimate (q in [0,1]) by linear interpolation
     * within the containing bucket: the histogram's one estimator,
     * served by the registry's p50/p95/p99 telemetry queries.
     *
     * Method: with n samples, the rank is r = q*n counted over the
     * cumulative bucket counts; the containing bucket is the first
     * whose cumulative count reaches r (inclusive upper edge, so
     * q = 1 resolves inside the last occupied bucket, matching
     * sample()'s inclusive treatment of the range's upper edge). The
     * estimate interpolates linearly across that bucket's nominal
     * [lower, upper) span by the rank's fractional position in the
     * bucket. Underflow samples count at the first bucket's nominal
     * span; the overflow bucket spans [range upper, observed max].
     * An empty histogram reports NaN, never a made-up 0 that would
     * read like a real measurement.
     */
    double
    percentile(double q) const
    {
        if (stat.count() == 0)
            return std::numeric_limits<double>::quiet_NaN();
        q = std::clamp(q, 0.0, 1.0);
        const double target = q * static_cast<double>(stat.count());
        const double width =
            (upper - lower) / static_cast<double>(counts.size() - 1);
        double seen = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0)
                continue;
            const auto n = static_cast<double>(counts[i]);
            if (seen + n >= target) {
                const bool overflow = (i == counts.size() - 1);
                const double bLo =
                    overflow ? upper
                             : lower + static_cast<double>(i) * width;
                const double bHi = overflow ? stat.max() : bLo + width;
                const double frac =
                    std::max(target - seen, 0.0) / n;
                return bLo + frac * (bHi - bLo);
            }
            seen += n;
        }
        return upper; // unreachable: the loop covers every sample
    }

    /** Drop every sample (geometry is construction-time). */
    void
    reset()
    {
        std::fill(counts.begin(), counts.end(), 0);
        stat.reset();
    }

    /** @name Checkpoint/restore (geometry is construction-time). */
    /// @{
    void
    saveCkpt(ckpt::Serializer &s) const
    {
        s.put32(static_cast<std::uint32_t>(counts.size()));
        for (std::uint64_t c : counts)
            s.put64(c);
        stat.saveCkpt(s);
    }

    void
    restoreCkpt(ckpt::Deserializer &d)
    {
        if (d.get32() != counts.size() && d.ok()) {
            d.fail("histogram bucket count mismatch");
            return;
        }
        for (std::uint64_t &c : counts)
            c = d.get64();
        stat.restoreCkpt(d);
    }
    /// @}

  private:
    double lower, upper;
    std::vector<std::uint64_t> counts;
    Average stat;
};

} // namespace gs::stats

#endif // GS_SIM_STATS_HH
