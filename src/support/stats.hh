/**
 * @file
 * Lightweight statistics: named counters, ratios and histograms, plus a
 * fixed-width table formatter used by the benchmark harnesses to print
 * paper-shaped result rows.
 */

#ifndef EL_SUPPORT_STATS_HH
#define EL_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace el
{

/** A named group of integer counters with formatted reporting. */
class StatGroup
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set counter @p name to @p value. */
    void set(const std::string &name, uint64_t value)
    {
        counters_[name] = value;
    }

    /** Read counter @p name (0 if absent). */
    uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Ratio of two counters as a double; 0 when the denominator is 0. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        uint64_t d = get(den);
        return d ? static_cast<double>(get(num)) / static_cast<double>(d)
                 : 0.0;
    }

    /**
     * Fold another group's counters into this one (summing). Used to
     * merge per-session/per-worker groups into the shared group on the
     * owning thread, so workers never touch shared counters.
     */
    void
    merge(const StatGroup &other)
    {
        for (const auto &[name, value] : other.counters_)
            counters_[name] += value;
    }

    /** Reset all counters to zero. */
    void clear() { counters_.clear(); }

    /** All counters, sorted by name. */
    const std::map<std::string, uint64_t> &all() const { return counters_; }

  private:
    std::map<std::string, uint64_t> counters_;
};

/** Simple fixed-bucket histogram for distribution-style statistics. */
class Histogram
{
  public:
    /**
     * @param lo Lowest bucket start.
     * @param bucket_width Width of each bucket; values <= 0 are clamped
     *        to 1 (a non-positive width would divide by zero in
     *        sample()).
     * @param n_buckets Number of buckets; samples above go to overflow.
     */
    Histogram(int64_t lo, int64_t bucket_width, unsigned n_buckets)
        : lo_(lo), width_(bucket_width > 0 ? bucket_width : 1),
          buckets_(n_buckets, 0)
    {}

    void sample(int64_t value, uint64_t count = 1);

    uint64_t totalSamples() const { return total_; }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    const std::vector<uint64_t> &buckets() const { return buckets_; }
    int64_t bucketWidth() const { return width_; }

    /** Mean of all sampled values. */
    double mean() const;

    /**
     * Approximate p-th percentile (p in [0, 100]) by linear
     * interpolation inside the bucket holding the rank. Underflow
     * samples clamp to lo, overflow samples to the top edge. Returns
     * lo when the histogram is empty.
     */
    double percentile(double p) const;

    /** Text rendering: one "[lo, hi)  count  bar" line per bucket. */
    std::string dump() const;

  private:
    int64_t lo_;
    int64_t width_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    double sum_ = 0.0;
};

/** Fixed-width text table used by the bench binaries. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with a header rule, column-aligned. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Geometric mean of a vector of positive values (0 if empty). */
double geomean(const std::vector<double> &values);

} // namespace el

#endif // EL_SUPPORT_STATS_HH
