/**
 * @file
 * Lightweight statistics containers used across the simulator.
 *
 * Components own their stats and register them with a StatSet for textual
 * dumping; benches also read them programmatically through accessors.
 */

#ifndef SBULK_SIM_STATS_HH
#define SBULK_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace sbulk
{

/** A named 64-bit counter. */
class Scalar
{
  public:
    Scalar() = default;

    void inc(std::uint64_t n = 1) { _value += n; }
    void set(std::uint64_t v) { _value = v; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running average over samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    double mean() const { return _count ? _sum / double(_count) : 0.0; }
    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    void reset() { _sum = 0.0; _count = 0; }

    /** Fold @p other 's samples in (per-shard stats aggregation). */
    void
    merge(const Average& other)
    {
        _sum += other._sum;
        _count += other._count;
    }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
};

/**
 * Bucketized histogram over non-negative integer samples.
 *
 * Buckets are fixed-width; samples beyond the last bucket accumulate in an
 * overflow bucket. Mean/min/max are exact (computed from raw samples, not
 * bucket midpoints). Percentiles are bucket-resolution.
 */
class Distribution
{
  public:
    /**
     * @param bucket_width Width of each bucket.
     * @param num_buckets Number of regular buckets before overflow.
     */
    explicit Distribution(std::uint64_t bucket_width = 1,
                          std::size_t num_buckets = 64)
        : _bucketWidth(bucket_width ? bucket_width : 1),
          _buckets(num_buckets + 1, 0)
    {}

    void
    sample(std::uint64_t v)
    {
        std::size_t idx = std::min<std::size_t>(v / _bucketWidth,
                                                _buckets.size() - 1);
        ++_buckets[idx];
        _sum += v;
        ++_count;
        _min = _count == 1 ? v : std::min(_min, v);
        _max = std::max(_max, v);
    }

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? double(_sum) / double(_count) : 0.0; }
    std::uint64_t min() const { return _count ? _min : 0; }
    std::uint64_t max() const { return _max; }
    std::uint64_t bucketWidth() const { return _bucketWidth; }
    const std::vector<std::uint64_t>& buckets() const { return _buckets; }

    /**
     * Smallest sample value v such that at least @p p (0..1) of the samples
     * are <= v, at bucket resolution: the upper edge of the bucket that
     * reaches p, never above max(). The overflow bucket has no upper edge;
     * a percentile that lands there reads max().
     */
    std::uint64_t
    percentile(double p) const
    {
        if (_count == 0)
            return 0;
        std::uint64_t target =
            std::uint64_t(p * double(_count) + 0.5);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i + 1 < _buckets.size(); ++i) {
            cum += _buckets[i];
            if (cum >= target)
                return std::min<std::uint64_t>((i + 1) * _bucketWidth, _max);
        }
        return _max;
    }

    /**
     * Fold @p other into this distribution. Requires identical geometry
     * (bucket width and count) — merging per-run histograms into a
     * cross-run aggregate, as the per-tenant sweep reports do.
     */
    void
    merge(const Distribution& other)
    {
        if (other._count == 0)
            return;
        for (std::size_t i = 0; i < _buckets.size(); ++i)
            _buckets[i] += other._buckets[i];
        _sum += other._sum;
        _min = _count == 0 ? other._min : std::min(_min, other._min);
        _max = std::max(_max, other._max);
        _count += other._count;
    }

    void
    reset()
    {
        std::fill(_buckets.begin(), _buckets.end(), 0);
        _sum = 0;
        _count = 0;
        _min = 0;
        _max = 0;
    }

  private:
    std::uint64_t _bucketWidth;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _sum = 0;
    std::uint64_t _count = 0;
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
};

/**
 * A name → value registry for dumping a component tree's statistics.
 *
 * Values are snapshots taken at record time (simple and allocation-free at
 * simulation time).
 */
class StatSet
{
  public:
    void record(const std::string& name, double value) { _values[name] = value; }
    void
    record(const std::string& name, const Average& avg)
    {
        _values[name + ".mean"] = avg.mean();
        _values[name + ".count"] = double(avg.count());
    }
    void
    record(const std::string& name, const Distribution& d)
    {
        _values[name + ".mean"] = d.mean();
        _values[name + ".count"] = double(d.count());
        _values[name + ".max"] = double(d.max());
        _values[name + ".p90"] = double(d.percentile(0.90));
    }

    double get(const std::string& name) const;
    bool has(const std::string& name) const { return _values.count(name) > 0; }
    void dump(std::ostream& os) const;
    const std::map<std::string, double>& values() const { return _values; }

  private:
    std::map<std::string, double> _values;
};

} // namespace sbulk

#endif // SBULK_SIM_STATS_HH
