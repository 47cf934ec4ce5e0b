/**
 * @file
 * The closed-loop client engine, the value codecs and output checks,
 * and the report sink.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"

namespace perfbench {

using proteus::nowNanos;
using proteus::Rng;
using proteus::kvstore::KvOp;

const char *
opKindName(int kind)
{
    static const char *const kNames[] = {"get", "put", "del", "txn",
                                         "snap"};
    return kNames[kind];
}

namespace {

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
loadWord(const char *p)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof w);
    return w;
}

} // namespace

// ----------------------------------------------------------------- codecs
std::size_t
bytesLenFor(std::uint64_t key, std::uint64_t version)
{
    return 64 + mix64(key * 31 + version) % 129;
}

namespace {

std::uint64_t
fillerWord(std::uint64_t key, std::uint64_t version, std::size_t off)
{
    return mix64(key ^ (version << 8) ^ off);
}

} // namespace

std::string
encodeBytes(std::uint64_t key, std::uint64_t version, std::size_t len)
{
    std::string out(len, '\0');
    std::memcpy(out.data(), &key, 8);
    std::memcpy(out.data() + 8, &version, 8);
    for (std::size_t off = 16; off + 8 <= len; off += 8) {
        const std::uint64_t w = fillerWord(key, version, off);
        std::memcpy(out.data() + off, &w, 8);
    }
    return out;
}

namespace {

std::string
checkWriter(unsigned writer, std::uint64_t seq, const Writers &writers)
{
    if (writer >= writers.issued.size())
        return "unknown writer " + std::to_string(writer);
    if (seq > writers.issued[writer].load(std::memory_order_acquire))
        return "version " + std::to_string(seq) + " of writer " +
               std::to_string(writer) + " was never written";
    return {};
}

} // namespace

std::string
checkWord(std::uint64_t key, std::uint64_t value, const Writers &writers)
{
    if ((value >> 32) != key)
        return "key " + std::to_string(key) + " holds a value tagged " +
               std::to_string(value >> 32);
    // The low 24 bits wrap, so only the writer is checked for words.
    return checkWriter(static_cast<unsigned>((value >> 24) & 0xff), 0,
                       writers);
}

std::string
checkBytes(std::uint64_t key, const std::string &value,
           const Writers &writers)
{
    if (value.size() < 64)
        return "key " + std::to_string(key) + " holds a " +
               std::to_string(value.size()) + "-byte value";
    const std::uint64_t tag = loadWord(value.data());
    const std::uint64_t version = loadWord(value.data() + 8);
    if (tag != key)
        return "key " + std::to_string(key) + " holds a value tagged " +
               std::to_string(tag);
    // The first and last filler words pin the value to one version;
    // comparing every word would make the check dearer than the get.
    const std::size_t len = value.size();
    const std::size_t last = 16 + (len - 24) / 8 * 8;
    if (len != bytesLenFor(key, version) ||
        loadWord(value.data() + 16) != fillerWord(key, version, 16) ||
        loadWord(value.data() + last) != fillerWord(key, version, last))
        return "key " + std::to_string(key) + " holds a torn value";
    return checkWriter(static_cast<unsigned>(version >> 40),
                       version & ((std::uint64_t{1} << 40) - 1),
                       writers);
}

CrossPairs
crossShardPairs(const KvStore &store)
{
    CrossPairs pairs(kGroups);
    for (int g = 0; g < kGroups; ++g) {
        for (int a = 0; a < kGroupSize; ++a) {
            for (int b = 0; b < kGroupSize; ++b) {
                if (a != b && store.shardOf(accountKey(g, a)) !=
                                  store.shardOf(accountKey(g, b)))
                    pairs[g].push_back({a, b});
            }
        }
    }
    return pairs;
}

// ------------------------------------------------------------ the clients
namespace {

/** Aggregate CPU ticks of the machine: (steal, total), from the first
 *  line of /proc/stat; (0, 0) when unreadable. */
std::pair<std::uint64_t, std::uint64_t>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
    std::uint64_t v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
    return {steal, total};
}

/** Everything one client thread owns; merged after join. */
struct ClientState
{
    std::vector<std::array<LatencyRecorder, kNumOpKinds>> latency;
    std::vector<std::uint64_t> windowOps;
    std::vector<std::uint64_t> phaseOps;
    std::array<std::uint64_t, kNumOpKinds> opsByKind{};
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Span> spans;
};

struct Shared
{
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> window{0};
    std::atomic<std::size_t> phase{0};
    std::atomic<int> running{0};
    /** Window in which the first client ran out of work. */
    std::atomic<std::size_t> firstDone{SIZE_MAX};
};

void
clientLoop(KvStore &store, const ClientConfig &cfg, Writers &writers,
           const CrossPairs &pairs, Shared &shared, ClientState &st,
           int id)
{
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(id) + 1);
    KvStore::Session session = store.openSession();
    const std::size_t max_windows = st.windowOps.size();
    std::vector<KvOp> ops;
    ops.reserve(kGroupSize);
    std::string buf;
    // Versions keep counting across runs on one store.
    std::uint64_t seq = writers.issued[id + 1].load();
    bool planted = id != 0 || cfg.plant == Plant::kNone;
    const auto note_failure = [&](std::string why) {
        ++st.failed;
        if (st.failures.size() < 4)
            st.failures.push_back(std::move(why));
    };

    shared.running.fetch_add(1);
    while (!shared.go.load(std::memory_order_acquire))
        std::this_thread::yield();

    for (std::uint64_t n = 0;; ++n) {
        if (cfg.opsPerClient > 0 ? n >= cfg.opsPerClient
                                 : shared.stop.load(std::memory_order_relaxed))
            break;
        const std::size_t w = std::min(
            shared.window.load(std::memory_order_relaxed), max_windows - 1);
        const std::size_t p = shared.phase.load(std::memory_order_relaxed);
        const Mix &mix = cfg.phases[p];

        const double draw = rng.nextDouble();
        int kind = kGet;
        if (draw < mix.txn)
            kind = kTxn;
        else if (draw < mix.txn + mix.snap)
            kind = kSnap;
        else if (draw < mix.txn + mix.snap + mix.put)
            kind = kPut;
        else if (draw < mix.txn + mix.snap + mix.put + mix.del)
            kind = kDel;
        const std::uint64_t key = mix.zipf > 0
                                      ? rng.zipf(mix.keySpace, mix.zipf)
                                      : rng.nextBounded(mix.keySpace);
        const int group = static_cast<int>(rng.nextBounded(kGroups));

        // Inputs are built before the clock starts.
        std::uint64_t word = 0;
        ops.clear();
        if (kind == kPut) {
            ++seq;
            writers.issued[id + 1].store(seq, std::memory_order_release);
            const std::uint64_t version =
                (static_cast<std::uint64_t>(id + 1) << 40) | seq;
            if (mix.bytes)
                buf = encodeBytes(key, version, bytesLenFor(key, version));
            else
                word = encodeWord(key, static_cast<unsigned>(id + 1), seq);
        } else if (kind == kTxn) {
            const auto [a, b] =
                pairs[group][rng.nextBounded(pairs[group].size())];
            const auto amount =
                1 + static_cast<std::int64_t>(rng.nextBounded(100));
            std::int64_t credit = amount;
            if (!planted && cfg.plant == Plant::kSumDrift) {
                credit += 1;
                planted = true;
            }
            ops.push_back({KvOp::Kind::kAdd, accountKey(group, a),
                           static_cast<std::uint64_t>(-amount), false});
            ops.push_back({KvOp::Kind::kAdd, accountKey(group, b),
                           static_cast<std::uint64_t>(credit), false});
        } else if (kind == kSnap) {
            for (int m = 0; m < kGroupSize; ++m)
                ops.push_back({KvOp::Kind::kGet, accountKey(group, m), 0,
                               false});
        }

        bool ok = true;
        std::uint64_t got = 0;
        const std::uint64_t t0 = nowNanos();
        switch (kind) {
          case kGet:
            ok = mix.bytes ? store.getBytes(session, key, &buf)
                           : store.get(session, key, &got);
            break;
          case kPut:
            ok = mix.bytes ? static_cast<bool>(store.putBytes(
                                 session, key, buf.data(), buf.size()))
                           : static_cast<bool>(store.put(session, key, word));
            break;
          case kDel: {
            const proteus::kvstore::KvResult r = store.del(session, key);
            ok = r || r.status == proteus::kvstore::KvStatus::kNotFound;
            break;
          }
          case kTxn:
          case kSnap:
            ok = static_cast<bool>(store.multiOp(session, ops));
            break;
        }
        const std::uint64_t t1 = nowNanos();

        st.latency[w][kind].record(t1 - t0);
        ++st.windowOps[w];
        ++st.phaseOps[p];
        ++st.opsByKind[kind];
        ++st.ops;
        if (st.spans.size() < cfg.spanCap)
            st.spans.push_back({t0, t1, static_cast<std::uint32_t>(n),
                                static_cast<std::uint8_t>(kind),
                                static_cast<std::uint8_t>(id)});

        // Output checks (outside the timed call).
        if (kind == kGet) {
            if (!planted && cfg.plant == Plant::kForeignTag) {
                got = encodeWord(key + 1, 0, 0);
                if (mix.bytes)
                    buf = encodeBytes(key + 1, 0, bytesLenFor(key + 1, 0));
                planted = true;
            }
            if (!ok) {
                if (!cfg.missesAllowed)
                    note_failure("get of preloaded key " +
                                 std::to_string(key) + " missed");
            } else {
                std::string why = mix.bytes ? checkBytes(key, buf, writers)
                                            : checkWord(key, got, writers);
                if (!why.empty())
                    note_failure("get: " + why);
            }
        } else if (kind == kSnap) {
            if (!planted && cfg.plant == Plant::kTornAudit) {
                ops[0].value += 1;
                planted = true;
            }
            std::uint64_t sum = 0;
            bool all_found = ok;
            for (const KvOp &op : ops) {
                sum += op.value;
                all_found &= op.ok;
            }
            if (!all_found || sum != groupTotal())
                note_failure("audit of group " + std::to_string(group) +
                             " read sum " + std::to_string(sum));
        } else if (!ok) {
            note_failure(std::string(opKindName(kind)) + " of key " +
                         std::to_string(key) + " was not acknowledged");
        }
    }
    std::size_t none = SIZE_MAX;
    shared.firstDone.compare_exchange_strong(
        none, shared.window.load(std::memory_order_relaxed));
    store.closeSession(session);
    shared.running.fetch_sub(1);
}

} // namespace

RunResult
runClients(KvStore &store, const ClientConfig &cfg, Writers &writers,
           const CrossPairs &pairs)
{
    const std::size_t max_windows =
        cfg.opsPerClient > 0 ? static_cast<std::size_t>(cfg.windows) * 6
                             : static_cast<std::size_t>(cfg.windows);
    std::vector<ClientState> states(static_cast<std::size_t>(cfg.clients));
    for (ClientState &st : states) {
        st.latency.resize(max_windows);
        st.windowOps.assign(max_windows, 0);
        st.phaseOps.assign(cfg.phases.size(), 0);
        st.spans.reserve(cfg.spanCap);
    }
    Shared shared;
    std::vector<std::thread> threads;
    for (int c = 0; c < cfg.clients; ++c)
        threads.emplace_back(clientLoop, std::ref(store), std::cref(cfg),
                             std::ref(writers), std::cref(pairs),
                             std::ref(shared), std::ref(states[c]), c);
    while (shared.running.load() < cfg.clients)
        std::this_thread::yield();

    RunResult r;
    r.phaseSeconds.assign(cfg.phases.size(), 0);
    const double window_len = cfg.seconds / cfg.windows;
    const std::uint64_t start = nowNanos();
    r.startNanos = start;
    shared.go.store(true, std::memory_order_release);
    std::uint64_t window_start = start;
    auto ticks = cpuTicks();
    std::uint64_t phase_start = start;
    std::size_t phase = 0;
    for (std::size_t w = 0;; ++w) {
        // A fixed-work run's last window stretches until every client
        // is done.
        const bool last = w + 1 >= max_windows;
        const std::uint64_t window_end =
            last && cfg.opsPerClient > 0
                ? UINT64_MAX
                : start + static_cast<std::uint64_t>((w + 1) * window_len *
                                                     1e9);
        bool finished = false;
        while (nowNanos() < window_end) {
            if (cfg.opsPerClient > 0 && shared.running.load() == 0) {
                finished = true;
                break;
            }
            if (cfg.spanCap > 0) {
                bool full = false;
                for (const ClientState &st : states)
                    full |= st.spans.size() >= cfg.spanCap;
                if (full) {
                    finished = true;
                    break;
                }
            }
            if (cfg.phaseSeconds > 0) {
                const std::size_t want =
                    static_cast<std::size_t>(
                        static_cast<double>(nowNanos() - start) / 1e9 /
                        cfg.phaseSeconds) %
                    cfg.phases.size();
                if (want != phase) {
                    const std::uint64_t now = nowNanos();
                    r.phaseSeconds[phase] +=
                        static_cast<double>(now - phase_start) / 1e9;
                    phase_start = now;
                    phase = want;
                    shared.phase.store(phase, std::memory_order_relaxed);
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const std::uint64_t now = nowNanos();
        r.windowSeconds.push_back(static_cast<double>(now - window_start) /
                                  1e9);
        window_start = now;
        const auto next = cpuTicks();
        r.windowSteal.push_back(
            next.second > ticks.second
                ? static_cast<double>(next.first - ticks.first) /
                      static_cast<double>(next.second - ticks.second)
                : 0.0);
        ticks = next;
        if (finished || last)
            break;
        shared.window.store(w + 1, std::memory_order_relaxed);
    }
    shared.stop.store(true);
    if (cfg.onStop)
        cfg.onStop();
    for (std::thread &t : threads)
        t.join();
    const std::uint64_t end = nowNanos();
    r.phaseSeconds[phase] += static_cast<double>(end - phase_start) / 1e9;
    r.seconds = static_cast<double>(end - start) / 1e9;

    const std::size_t windows = r.windowSeconds.size();
    r.windowOps.assign(windows, 0);
    r.windowLatency.resize(windows);
    r.phaseOps.assign(cfg.phases.size(), 0);
    for (ClientState &st : states) {
        for (std::size_t w = 0; w < windows; ++w) {
            r.windowOps[w] += st.windowOps[w];
            for (int k = 0; k < kNumOpKinds; ++k)
                r.windowLatency[w][k].merge(st.latency[w][k]);
        }
        for (std::size_t p = 0; p < cfg.phases.size(); ++p)
            r.phaseOps[p] += st.phaseOps[p];
        for (int k = 0; k < kNumOpKinds; ++k)
            r.opsByKind[k] += st.opsByKind[k];
        r.ops += st.ops;
        r.failed += st.failed;
        for (std::string &f : st.failures)
            r.failures.push_back(std::move(f));
        r.spans.push_back(std::move(st.spans));
    }
    if (cfg.spanCap > 0)
        r.completeWindows = 0; // a span run reports whole-run figures
    else if (cfg.opsPerClient > 0)
        r.completeWindows = std::min(windows, shared.firstDone.load());
    else
        r.completeWindows = windows;
    return r;
}

void
appendRun(RunResult &all, const RunResult &part)
{
    if (all.windowSeconds.empty() && all.ops == 0)
        all.startNanos = part.startNanos;
    all.seconds += part.seconds;
    all.ops += part.ops;
    all.failed += part.failed;
    for (int k = 0; k < kNumOpKinds; ++k)
        all.opsByKind[k] += part.opsByKind[k];
    for (std::size_t w = 0; w < part.completeWindows; ++w) {
        all.windowSeconds.push_back(part.windowSeconds[w]);
        all.windowOps.push_back(part.windowOps[w]);
        all.windowLatency.push_back(part.windowLatency[w]);
        all.windowSteal.push_back(part.windowSteal[w]);
    }
    all.completeWindows = all.windowSeconds.size();
    all.phaseOps.resize(part.phaseOps.size(), 0);
    all.phaseSeconds.resize(part.phaseSeconds.size(), 0);
    for (std::size_t p = 0; p < part.phaseOps.size(); ++p) {
        all.phaseOps[p] += part.phaseOps[p];
        all.phaseSeconds[p] += part.phaseSeconds[p];
    }
}

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<std::size_t>
quietWindows(const RunResult &r)
{
    std::vector<std::size_t> order(r.completeWindows);
    for (std::size_t w = 0; w < order.size(); ++w)
        order[w] = w;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return r.windowSteal[a] < r.windowSteal[b];
                     });
    order.resize(std::min(order.size(),
                          std::max<std::size_t>(6, (order.size() + 3) / 4)));
    return order;
}

double
windowedOpsPerSecond(const RunResult &r)
{
    if (r.completeWindows < 3)
        return static_cast<double>(r.ops) / r.seconds;
    std::vector<double> rates;
    for (const std::size_t w : quietWindows(r))
        rates.push_back(static_cast<double>(r.windowOps[w]) /
                        r.windowSeconds[w]);
    return medianOf(rates);
}

double
mergedPercentile(const RunResult &r, int kind, double q)
{
    LatencyRecorder all;
    for (const auto &w : r.windowLatency)
        all.merge(w[kind]);
    return all.percentile(q);
}

double
windowedPercentile(const RunResult &r, int kind, double q)
{
    if (r.completeWindows < 3)
        return mergedPercentile(r, kind, q);
    std::vector<double> values;
    for (const std::size_t w : quietWindows(r))
        values.push_back(r.windowLatency[w][kind].percentile(q));
    return medianOf(values);
}

// ------------------------------------------------------------------ report
void
Report::add(const std::string &name, double value, const char *unit)
{
    std::printf("  %-28s %16.4f %s\n", name.c_str(), value, unit);
    metrics_.push_back({name, {value, unit}});
}

void
Report::notApplicable(const std::string &name, const char *unit,
                      const std::string &why)
{
    std::printf("  %-28s %16s %s  (n/a: %s)\n", name.c_str(), "0", unit,
                why.c_str());
    metrics_.push_back({name, {0.0, unit}});
}

void
Report::absorb(const RunResult &run)
{
    attempted += run.ops;
    failed += run.failed;
    if (run.failed > 0)
        correct = false;
    for (const std::string &f : run.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
}

void
Report::adopt(const Report &other, const std::string &prefix)
{
    attempted += other.attempted;
    failed += other.failed;
    correct = correct && other.correct;
    for (const std::string &f : other.failures)
        if (failures.size() < 16)
            failures.push_back(f);
    for (const auto &[name, value] : other.metrics_)
        if (name.rfind(prefix, 0) == 0)
            add(name, value.first, value.second.c_str());
}

void
Report::fail(const std::string &what)
{
    correct = false;
    ++failed;
    if (failures.size() < 16)
        failures.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
}

std::string
Report::json() const
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out << (i ? ", " : "") << '"' << metrics_[i].first
            << "\": {\"value\": " << metrics_[i].second.first
            << ", \"unit\": \"" << metrics_[i].second.second << "\"}";
    }
    out << "}}";
    return out.str();
}

// ---------------------------------------------------------- process stats
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

IoCounters
readIo()
{
    IoCounters io;
    std::ifstream in("/proc/self/io");
    std::string name;
    std::uint64_t value = 0;
    while (in >> name >> value) {
        if (name == "syscw:")
            io.syscw = value;
        else if (name == "wchar:")
            io.wchar = value;
    }
    return io;
}

} // namespace perfbench
