/**
 * @file
 * LatencyRecorder: the benchmark's own latency histogram.
 *
 * Log-linear buckets with 2^kSubBits sub-buckets per octave: values
 * below 2^(kSubBits+1) ns are exact, and every bucket above is at most
 * 1/2^kSubBits (0.8 %) of its lower edge wide. A percentile is
 * placed inside the bucket that holds the exact value, so its error
 * is under that width, well under the benchmark's end-to-end bounds.
 * (obs::LogLinearHistogram has 4 sub-buckets per octave, so its
 * buckets are up to 25 % wide.)
 *
 * A recorder belongs to one client thread; merge() combines them
 * after the threads have joined.
 */
#ifndef PERFBENCH_LATENCY_RECORDER_HPP
#define PERFBENCH_LATENCY_RECORDER_HPP

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyRecorder
{
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    /** Values are clamped to 2^kMaxBits - 1 ns (about 18 minutes). */
    static constexpr unsigned kMaxBits = 40;
    static constexpr std::size_t kBuckets =
        (kMaxBits - kSubBits) * kSub + kSub;

    LatencyRecorder() : counts_(kBuckets, 0) {}

    void
    record(std::uint64_t ns)
    {
        ++counts_[indexOf(std::min(ns, (std::uint64_t{1} << kMaxBits) - 1))];
        ++count_;
    }

    void
    merge(const LatencyRecorder &other)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            counts_[i] += other.counts_[i];
        count_ += other.count_;
    }

    std::uint64_t count() const { return count_; }

    /** Value at quantile q in (0, 1]: the sample of rank ceil(q * n),
     *  placed inside its bucket by linear interpolation over the
     *  bucket's samples (so it never leaves the bucket that holds the
     *  exact value). 0 when empty. */
    double
    percentile(double q) const
    {
        if (count_ == 0)
            return 0;
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(q * static_cast<double>(count_))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            if (seen + counts_[i] >= rank) {
                const std::uint64_t lo = lowerEdge(i);
                const double width =
                    static_cast<double>(lowerEdge(i + 1) - lo - 1);
                const double at = (static_cast<double>(rank - seen) - 0.5) /
                                  static_cast<double>(counts_[i]);
                return static_cast<double>(lo) + width * at;
            }
            seen += counts_[i];
        }
        return static_cast<double>(lowerEdge(kBuckets - 1));
    }

    static std::size_t
    indexOf(std::uint64_t v)
    {
        if (v < 2 * kSub)
            return static_cast<std::size_t>(v);
        const unsigned shift =
            static_cast<unsigned>(std::bit_width(v)) - kSubBits - 1;
        return static_cast<std::size_t>(shift * kSub + (v >> shift));
    }

    static std::uint64_t
    lowerEdge(std::size_t i)
    {
        if (i < 2 * kSub)
            return i;
        const std::uint64_t shift = i / kSub - 1;
        return (kSub + i % kSub) << shift;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LATENCY_RECORDER_HPP
