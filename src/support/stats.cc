#include "support/stats.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace el
{

void
Histogram::sample(int64_t value, uint64_t count)
{
    total_ += count;
    sum_ += static_cast<double>(value) * static_cast<double>(count);
    if (value < lo_) {
        underflow_ += count;
        return;
    }
    uint64_t idx = static_cast<uint64_t>(value - lo_) /
                   static_cast<uint64_t>(width_);
    if (idx >= buckets_.size())
        overflow_ += count;
    else
        buckets_[idx] += count;
}

double
Histogram::mean() const
{
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (!total_)
        return static_cast<double>(lo_);
    p = std::min(100.0, std::max(0.0, p));
    double rank = p / 100.0 * static_cast<double>(total_);

    double cum = static_cast<double>(underflow_);
    if (rank <= cum)
        return static_cast<double>(lo_); // clamped: true value unknown
    for (size_t i = 0; i < buckets_.size(); ++i) {
        double n = static_cast<double>(buckets_[i]);
        if (rank <= cum + n && n > 0) {
            double frac = (rank - cum) / n;
            return static_cast<double>(lo_) +
                   static_cast<double>(width_) *
                       (static_cast<double>(i) + frac);
        }
        cum += n;
    }
    // Rank lands in overflow: clamp to the top edge.
    return static_cast<double>(lo_) +
           static_cast<double>(width_) *
               static_cast<double>(buckets_.size());
}

std::string
Histogram::dump() const
{
    // Scale in double: 40 * n overflows uint64_t for counts beyond
    // ~4.6e17, and the max(1, ...) keeps an all-empty histogram (or one
    // whose only samples landed in a single bucket) off a zero divisor.
    uint64_t peak = std::max<uint64_t>(1, std::max(underflow_, overflow_));
    for (uint64_t n : buckets_)
        peak = std::max(peak, n);
    auto bar = [&](uint64_t n) {
        double frac = static_cast<double>(n) / static_cast<double>(peak);
        return std::string(static_cast<size_t>(40.0 * frac), '#');
    };

    std::string out;
    if (underflow_)
        out += strfmt("%20s  %8llu  %s\n", "(underflow)",
                      static_cast<unsigned long long>(underflow_),
                      bar(underflow_).c_str());
    for (size_t i = 0; i < buckets_.size(); ++i) {
        long long b_lo = lo_ + width_ * static_cast<int64_t>(i);
        out += strfmt("[%8lld, %8lld)  %8llu  %s\n", b_lo,
                      b_lo + width_,
                      static_cast<unsigned long long>(buckets_[i]),
                      bar(buckets_[i]).c_str());
    }
    if (overflow_)
        out += strfmt("%20s  %8llu  %s\n", "(overflow)",
                      static_cast<unsigned long long>(overflow_),
                      bar(overflow_).c_str());
    return out;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    el_assert(cells.size() == headers_.size(),
              "row width %zu != header width %zu", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto fmt_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (size_t c = 0; c < row.size(); ++c) {
            line += strfmt("%-*s", static_cast<int>(width[c] + 2),
                           row[c].c_str());
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = fmt_row(headers_);
    size_t rule_len = 0;
    for (size_t c = 0; c < width.size(); ++c)
        rule_len += width[c] + 2;
    out += std::string(rule_len, '-') + "\n";
    for (const auto &row : rows_)
        out += fmt_row(row);
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace el
