/**
 * Checks LatencyRecorder's percentiles against an exact sort of the
 * same generated samples: every reported percentile must lie within
 * one bucket width (1/128 of the value) of the exact order statistic.
 * Exit 0 on success; prints the first mismatch and exits 1 otherwise.
 *
 *   ./latency_recorder_test
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "latency_recorder.hpp"

using perfbench::LatencyRecorder;

namespace {

bool
checkSamples(const char *name, const std::vector<std::uint64_t> &samples)
{
    LatencyRecorder rec;
    LatencyRecorder half_a;
    LatencyRecorder half_b;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        rec.record(samples[i]);
        (i % 2 == 0 ? half_a : half_b).record(samples[i]);
    }
    half_a.merge(half_b);
    std::vector<std::uint64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const auto rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(sorted.size()))));
        const double exact = static_cast<double>(sorted[rank - 1]);
        const double got = rec.percentile(q);
        const double tolerance = exact / 128.0 + 0.5;
        if (std::fabs(got - exact) > tolerance ||
            half_a.percentile(q) != got) {
            std::printf("FAIL %s q=%.3f exact=%.0f recorder=%.1f "
                        "merged=%.1f\n",
                        name, q, exact, got, half_a.percentile(q));
            return false;
        }
    }
    std::printf("ok   %s (%zu samples)\n", name, samples.size());
    return true;
}

} // namespace

int
main()
{
    std::mt19937_64 gen(12);
    bool ok = true;

    std::vector<std::uint64_t> uniform(200000);
    std::uniform_int_distribution<std::uint64_t> u(0, 5000);
    for (auto &v : uniform)
        v = u(gen);
    ok &= checkSamples("uniform 0-5us", uniform);

    std::vector<std::uint64_t> lognormal(200000);
    std::lognormal_distribution<double> ln(7.0, 1.2);
    for (auto &v : lognormal)
        v = static_cast<std::uint64_t>(ln(gen));
    ok &= checkSamples("lognormal tail", lognormal);

    std::vector<std::uint64_t> wide(50000);
    std::uniform_int_distribution<unsigned> bits(0, 39);
    for (auto &v : wide)
        v = (std::uint64_t{1} << bits(gen)) + (gen() & 1023);
    ok &= checkSamples("1ns-550s", wide);

    // Bucket edges must tile the range: every value lands in the
    // bucket whose [lowerEdge(i), lowerEdge(i+1)) contains it.
    for (std::uint64_t v = 0; v < (1u << 20); v += 7) {
        const std::size_t i = LatencyRecorder::indexOf(v);
        if (v < LatencyRecorder::lowerEdge(i) ||
            v >= LatencyRecorder::lowerEdge(i + 1)) {
            std::printf("FAIL value %llu outside bucket %zu\n",
                        static_cast<unsigned long long>(v), i);
            ok = false;
            break;
        }
    }

    LatencyRecorder empty;
    ok &= empty.percentile(0.5) == 0;
    std::printf(ok ? "PASS\n" : "FAIL\n");
    return ok ? 0 : 1;
}
