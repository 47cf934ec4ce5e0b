/**
 * @file
 * The three workloads: set-up, the timed run, the output checks, the
 * timed reopen, and (traced run) the span A/B, counter deltas, the
 * menu sweep and the ledger.
 */
#include <algorithm>
#include <exception>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "kvstore/kv_tunable.hpp"
#include "rectm/engine.hpp"
#include "rectm/matrix_io.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using proteus::nowNanos;
using proteus::Rng;
using proteus::kvstore::Durability;
using proteus::kvstore::Health;
using proteus::kvstore::KvAutoTuner;
using proteus::kvstore::KvStoreOptions;
using proteus::kvstore::KvTunableOptions;
using proteus::polytm::TmConfig;
using proteus::tm::BackendKind;

namespace {

constexpr int kSetups = 3;
constexpr int kWindows = 20;
constexpr std::uint64_t kPreloadBatch = 512;
/** Per-client op budget of the fixed-work workload, per second of
 *  --seconds (about what one client completes per second on the
 *  reference host, so a run lasts about --seconds there). */
constexpr std::uint64_t kMixedOpsPerClientPerSecond = 200000;

struct Spec
{
    std::string name;
    KvStoreOptions store;
    std::uint64_t plainKeys = 0;
    bool bytes = false;
    std::vector<Mix> phases;
    /** Phases alternate this many times over the run. */
    int phaseCount = 1;
    bool fixedWork = false;
    bool tuned = false;
    /** Timed reopens of the closed log (median reported). */
    int reopens = 3;
    /** Ops per client served after the end-of-run checkpoint. */
    std::uint64_t tailOpsPerClient = 0;
    /** The traced run also measures the tuning layer, by running
     *  tuned_shift (whose end-to-end figures are too unsteady for it
     *  to be a timed workload of its own). */
    bool tunerRung = false;
};

Spec
makeSpec(const std::string &name)
{
    Spec s;
    s.name = name;
    s.store.numShards = 4;
    s.store.durability = Durability::kBuffered;
    // Account groups ride along in every workload so every workload
    // measures transfers and audits; their shares stay small outside
    // mixed_2pc_wal.
    if (name == "ycsb_b_large") {
        s.plainKeys = 1750000;
        s.bytes = true;
        // 437.5k keys per shard: 2^20 slots keep the load at 42 %
        // without a grow during preload.
        s.store.log2SlotsPerShard = 20;
        s.store.initial = {BackendKind::kNorec, 4, {}};
        // Reopening 224 MB takes seconds; once is enough to be steady.
        s.reopens = 1;
        Mix m;
        m.put = 0.05;
        m.txn = 0.005;
        m.snap = 0.005;
        m.keySpace = s.plainKeys;
        m.bytes = true;
        s.phases = {m};
    } else if (name == "mixed_2pc_wal") {
        s.plainKeys = 1 << 14;
        s.store.log2SlotsPerShard = 13;
        s.store.initial = {BackendKind::kNorec, 4, {}};
        Mix m;
        m.put = 0.18;
        m.txn = 0.10;
        m.snap = 0.02;
        m.keySpace = s.plainKeys;
        s.phases = {m};
        s.fixedWork = true;
        s.tunerRung = true;
    } else if (name == "tuned_shift") {
        s.plainKeys = 1 << 14;
        s.store.log2SlotsPerShard = 13;
        s.store.initial = {BackendKind::kTl2, 4, {}};
        // TrafficMix::preset(kReadHeavy) and (kWriteHeavy), plus the
        // account traffic.
        Mix read;
        read.put = 0.05;
        read.txn = 0.005;
        read.snap = 0.005;
        read.keySpace = s.plainKeys;
        Mix write;
        write.put = 0.85;
        write.del = 0.05;
        write.txn = 0.005;
        write.snap = 0.005;
        write.keySpace = 1 << 8;
        write.zipf = 0.95;
        s.phases = {read, write};
        s.phaseCount = 4;
        s.tuned = true;
        s.tailOpsPerClient = 100000;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return s;
}

/** Closed-loop clients: one core fewer than the host has (at most 4),
 *  so the clock thread, WAL writes and the tuner's controllers never
 *  preempt a client inside a transaction. */
int
clientCount()
{
    const unsigned cores = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(cores > 1 ? cores - 1 : 1u, 1u, 4u));
}

/** Synthetic training matrix over the menu's columns, exactly as
 *  kv_service trains its engine. */
std::unique_ptr<proteus::rectm::RecTmEngine>
trainEngine(std::size_t cols)
{
    proteus::rectm::UtilityMatrix train(16, cols);
    Rng rng(2026);
    for (std::size_t r = 0; r < 16; ++r) {
        const double scale = rng.uniform(1.0, 100.0);
        for (std::size_t c = 0; c < cols; ++c) {
            const double x = static_cast<double>(c);
            const double mid = static_cast<double>(cols) / 2.0;
            train.set(r, c,
                      scale * (1.0 + x - 0.12 * (x - mid) * (x - mid)) *
                          rng.uniform(0.97, 1.03));
        }
    }
    proteus::rectm::RecTmEngine::Options opts;
    opts.tuner.trials = 8;
    return std::make_unique<proteus::rectm::RecTmEngine>(train, opts);
}

KvTunableOptions
tunableOptions()
{
    KvTunableOptions o;
    o.menu = KvTunableOptions::defaultMenu();
    o.periodSeconds = 0.015;
    return o;
}

proteus::rectm::RuntimeOptions
runtimeOptions()
{
    proteus::rectm::RuntimeOptions o;
    o.smbo.maxExplorations = 6;
    o.cusum.warmup = 3;
    o.cusum.threshold = 6.0;
    return o;
}

/** Run `body(session, i)` for i in [0, n) split over `threads`
 *  threads, each with its own session. */
template <typename F>
void
parallelFor(KvStore &store, std::uint64_t n, int threads, F body)
{
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                KvStore::Session session = store.openSession();
                for (std::uint64_t i = static_cast<std::uint64_t>(t); i < n;
                     i += static_cast<std::uint64_t>(threads))
                    body(session, i);
                store.closeSession(session);
            } catch (...) {
                errors[static_cast<std::size_t>(t)] = std::current_exception();
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

/** A store with its preload, ready for the timed run. */
struct Loaded
{
    std::unique_ptr<KvStore> store;
    std::unique_ptr<proteus::rectm::RecTmEngine> engine;
};

Loaded
setUp(const Spec &spec, const std::string &dir, int threads)
{
    fs::remove_all(dir);
    Loaded l;
    KvStoreOptions opts = spec.store;
    opts.walDir = dir;
    l.store = std::make_unique<KvStore>(opts);
    KvStore &store = *l.store;
    // Bulk load through batches: one transaction and one log record
    // per touched shard per batch.
    const std::uint64_t accounts = kGroups * kGroupSize;
    const std::uint64_t total = spec.plainKeys + accounts;
    const std::uint64_t batches = (total + kPreloadBatch - 1) / kPreloadBatch;
    parallelFor(store, batches, threads,
                [&](KvStore::Session &s, std::uint64_t b) {
                    KvStore::Batch batch;
                    const std::uint64_t end =
                        std::min(total, (b + 1) * kPreloadBatch);
                    for (std::uint64_t i = b * kPreloadBatch; i < end; ++i) {
                        if (i >= spec.plainKeys)
                            batch.put(kAccountBase + (i - spec.plainKeys),
                                      kInitialBalance);
                        else if (spec.bytes)
                            batch.putBytes(i, encodeBytes(i, 0,
                                                          bytesLenFor(i, 0)));
                        else
                            batch.put(i, encodeWord(i, 0, 0));
                    }
                    if (!store.applyBatch(s, batch))
                        throw std::runtime_error("preload batch failed");
                });
    if (spec.tuned)
        l.engine = trainEngine(KvTunableOptions::defaultMenu().size());
    return l;
}

/** Per-period observations of one shard's tuner, taken on its
 *  controller thread before each period. */
struct PeriodObs
{
    std::uint64_t nanos;
    int episodes;
    int reconfigurations;
};

/** A live tuner over the store for the length of one client run. */
class TunerRun
{
  public:
    /** `seconds` bounds the run; stopping normally comes first. */
    TunerRun(KvStore &store, const proteus::rectm::RecTmEngine &engine,
             double seconds)
        : store_(store),
          tuner_(store, engine, tunableOptions(), runtimeOptions()),
          obs_(static_cast<std::size_t>(store.numShards()))
    {
        thread_ = std::thread([this, seconds] {
            try {
                const int periods = static_cast<int>(
                    seconds / tunableOptions().periodSeconds) + 200;
                tuner_.run(periods, [this](std::size_t s, int) {
                    if (stop_.load())
                        throw Stop{};
                    obs_[s].push_back(
                        {nowNanos(), tuner_.episodes(s),
                         tuner_.tunable(s).reconfigurations()});
                });
            } catch (const Stop &) {
            } catch (const std::exception &e) {
                error_ = e.what();
            }
        });
    }
    TunerRun(const TunerRun &) = delete;
    TunerRun &operator=(const TunerRun &) = delete;
    ~TunerRun() { finish(); }

    /** Stop the controllers between periods, then unpark clients. */
    void
    finish()
    {
        if (!thread_.joinable())
            return;
        stop_.store(true);
        thread_.join();
        store_.resumeAllForShutdown();
    }

    const std::vector<std::vector<PeriodObs>> &obs() const { return obs_; }
    const KvAutoTuner &tuner() const { return tuner_; }
    const std::string &error() const { return error_; }

  private:
    struct Stop
    {
    };
    KvStore &store_;
    KvAutoTuner tuner_;
    std::vector<std::vector<PeriodObs>> obs_;
    std::atomic<bool> stop_{false};
    std::string error_;
    std::thread thread_;
};

struct TunerStats
{
    double reconfigurations = 0;
    double detections = 0;
    /** Per (shard, shift): time from the shift to the shard's first
     *  CUSUM detection after it, and to its last reconfiguration
     *  before the next shift. */
    std::vector<double> detectMs;
    std::vector<double> settleMs;
};

/** Checks the tuner's end state and reads its reaction to each
 *  phase shift from the per-period observations. */
TunerStats
tunerStats(const TunerRun &tr, KvStore &store, const RunResult &run,
           double phase_seconds, int phase_count,
           const std::vector<TmConfig> &menu, Report &report)
{
    TunerStats out;
    if (!tr.error().empty())
        report.fail("tuner failed: " + tr.error());
    std::vector<std::uint64_t> shifts;
    for (int k = 1; k <= phase_count; ++k)
        shifts.push_back(run.startNanos +
                         static_cast<std::uint64_t>(k * phase_seconds * 1e9));
    for (std::size_t s = 0; s < static_cast<std::size_t>(store.numShards());
         ++s) {
        const auto &t = tr.tuner().tunable(s);
        const auto &o = tr.obs()[s];
        if (t.appliedConfig() >= menu.size() ||
            !(store.shard(s).poly().currentConfig() ==
              menu[t.appliedConfig()]))
            report.fail("shard " + std::to_string(s) +
                        " did not end on a menu entry");
        out.reconfigurations += t.reconfigurations();
        bool retuned = false;
        for (std::size_t k = 0; k + 1 < shifts.size(); ++k) {
            std::optional<std::uint64_t> detect;
            std::optional<std::uint64_t> settle;
            for (std::size_t p = 1; p < o.size(); ++p) {
                if (o[p].nanos < shifts[k] || o[p].nanos >= shifts[k + 1])
                    continue;
                if (o[p].episodes > o[p - 1].episodes && !detect)
                    detect = o[p].nanos - shifts[k];
                if (o[p].reconfigurations > o[p - 1].reconfigurations)
                    settle = o[p].nanos - shifts[k];
            }
            if (detect) {
                retuned = true;
                out.detectMs.push_back(static_cast<double>(*detect) / 1e6);
            }
            if (settle)
                out.settleMs.push_back(static_cast<double>(*settle) / 1e6);
        }
        for (std::size_t p = 1; p < o.size(); ++p)
            out.detections += o[p].episodes > o[p - 1].episodes ? 1 : 0;
        if (!retuned)
            report.fail("shard " + std::to_string(s) +
                        " never re-tuned after a phase shift");
        std::printf("shard %zu ended on %s after %d reconfigurations\n", s,
                    t.configAt(t.appliedConfig()).label().c_str(),
                    t.reconfigurations());
    }
    return out;
}

/** Every menu entry, statically on every shard, for 0.3 s on each
 *  phase's mix: ops/s per [phase][entry]. */
std::vector<std::vector<double>>
menuSweep(KvStore &store, const ClientConfig &base,
          const std::vector<Mix> &phases, Writers &writers,
          const CrossPairs &pairs, Report &report)
{
    ClientConfig sw = base;
    sw.phaseSeconds = 0;
    sw.opsPerClient = 0;
    sw.plant = Plant::kNone;
    sw.windows = 1;
    sw.seconds = 0.3;
    std::vector<std::vector<double>> sweep;
    for (const Mix &mix : phases) {
        sw.phases = {mix};
        sweep.emplace_back();
        for (const TmConfig &config : KvTunableOptions::defaultMenu()) {
            for (int s = 0; s < store.numShards(); ++s)
                store.shard(static_cast<std::size_t>(s))
                    .poly()
                    .reconfigure(config);
            const RunResult r = runClients(store, sw, writers, pairs);
            report.absorb(r);
            sweep.back().push_back(static_cast<double>(r.ops) / r.seconds);
        }
    }
    return sweep;
}

/** Every group must still hold its initial sum. */
void
checkGroups(KvStore &store, Report &report)
{
    KvStore::Session s = store.openSession();
    for (int g = 0; g < kGroups; ++g) {
        std::uint64_t sum = 0;
        for (int m = 0; m < kGroupSize; ++m) {
            std::uint64_t v = 0;
            if (!store.get(s, accountKey(g, m), &v))
                report.fail("account " + std::to_string(m) + " of group " +
                            std::to_string(g) + " is missing");
            sum += v;
        }
        ++report.attempted;
        if (sum != groupTotal())
            report.fail("group " + std::to_string(g) + " ends with sum " +
                        std::to_string(sum));
    }
    store.closeSession(s);
}

/** Per-key digest of every plain key and account (0 = absent). */
std::vector<std::uint64_t>
digest(KvStore &store, const Spec &spec, int threads)
{
    const std::uint64_t n = spec.plainKeys + kGroups * kGroupSize;
    std::vector<std::uint64_t> out(n, 0);
    parallelFor(store, n, threads, [&](KvStore::Session &s, std::uint64_t i) {
        const bool account = i >= spec.plainKeys;
        const std::uint64_t key =
            account ? kAccountBase + (i - spec.plainKeys) : i;
        if (spec.bytes && !account) {
            std::string v;
            if (store.getBytes(s, key, &v))
                out[i] = std::hash<std::string>{}(v) | 1;
        } else {
            std::uint64_t v = 0;
            if (store.get(s, key, &v))
                out[i] = (v * 0x9e3779b97f4a7c15ull) | 1;
        }
    });
    return out;
}

void
writeSpans(const std::string &path, const RunResult &r)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const auto &client : r.spans)
        out.write(reinterpret_cast<const char *>(client.data()),
                  static_cast<std::streamsize>(client.size() * sizeof(Span)));
}

double
pct(double part, double whole)
{
    return whole == 0 ? 0 : 100.0 * part / whole;
}

} // namespace

int
runWorkload(const Args &args, Report &report)
{
    const Spec spec = makeSpec(args.workload);
    const int threads = clientCount();
    const std::string dir = args.workDir + "/wal-" + spec.name;
    fs::create_directories(args.workDir);
    std::printf("workload %s: %d clients, seed %llu, %.0f s, %s\n",
                spec.name.c_str(), threads,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? "traced" : "timed");

    // Set-up runs kSetups times, each on a fresh directory and memory.
    // The untuned workloads split the timed run over the set-ups (a
    // third each) and report medians over all their windows, so one
    // unlucky memory placement cannot move a whole run; the tuned
    // workload keeps one run of full length on the last set-up so its
    // phases stay long.
    ClientConfig cc;
    cc.clients = threads;
    cc.seed = args.seed;
    cc.phases = spec.phases;
    cc.windows = kWindows;
    cc.missesAllowed = spec.tuned;
    cc.plant = args.plant;
    const int timed_rounds = spec.tuned ? 1 : kSetups;
    cc.seconds = args.seconds / timed_rounds;
    if (spec.fixedWork) {
        cc.opsPerClient = static_cast<std::uint64_t>(
            kMixedOpsPerClientPerSecond * args.seconds / timed_rounds);
    }
    if (spec.phaseCount > 1)
        cc.phaseSeconds = cc.seconds / spec.phaseCount;

    std::vector<double> setups;
    Loaded loaded;
    std::unique_ptr<Writers> writers;
    RunResult run;
    RunResult last; // the last timed round, which the counters cover
    std::optional<TunerRun> tuner;
    TunerStats tstats;
    proteus::obs::TelemetrySnapshot tel0;
    proteus::obs::TelemetrySnapshot tel1;
    IoCounters io0;
    IoCounters io1;
    const auto menu = KvTunableOptions::defaultMenu();
    const auto unpark = [&loaded] { loaded.store->resumeAllForShutdown(); };
    cc.onStop = unpark;
    for (int round = 0; round < kSetups; ++round) {
        loaded = {};
        const std::uint64_t t0 = nowNanos();
        loaded = setUp(spec, dir, threads);
        setups.push_back(static_cast<double>(nowNanos() - t0) / 1e9);
        if (round + timed_rounds < kSetups)
            continue;
        KvStore &store = *loaded.store;
        writers = std::make_unique<Writers>(threads);
        tel0 = store.telemetry();
        io0 = readIo();
        if (spec.tuned) {
            tuner.emplace(store, *loaded.engine, cc.seconds);
            cc.onStop = [&] { tuner->finish(); };
        }
        const RunResult part =
            runClients(store, cc, *writers, crossShardPairs(store));
        io1 = readIo();
        tel1 = store.telemetry();
        report.absorb(part);
        std::printf("timed round %d: %llu ops in %.3f s (%zu complete "
                    "windows), %llu failed; ops/s per window:",
                    round, static_cast<unsigned long long>(part.ops),
                    part.seconds, part.completeWindows,
                    static_cast<unsigned long long>(part.failed));
        for (std::size_t w = 0; w < part.windowOps.size(); ++w)
            std::printf(" %.0f", static_cast<double>(part.windowOps[w]) /
                                     part.windowSeconds[w]);
        std::printf("\n  cpu steal per window (%%):");
        for (const double st : part.windowSteal)
            std::printf(" %.1f", 100 * st);
        std::printf("\n");

        // Tuner outcome: every shard on a menu entry, and re-tuned
        // after a shift. Then stop the tuner for good and pin every
        // shard to a 4-thread config so later sessions never park.
        if (spec.tuned) {
            tstats = tunerStats(*tuner, store, part, cc.phaseSeconds,
                                spec.phaseCount, menu, report);
            tuner.reset();
            for (int s = 0; s < store.numShards(); ++s)
                store.shard(static_cast<std::size_t>(s))
                    .poly()
                    .reconfigure(spec.store.initial);
        }
        cc.onStop = unpark;
        checkGroups(store, report);
        if (store.health() != Health::kHealthy)
            report.fail(std::string("store health is ") +
                        proteus::kvstore::healthName(store.health()));
        appendRun(run, part);
        last = part;
    }
    std::printf("set-up: %.3f / %.3f / %.3f s\n", setups[0], setups[1],
                setups[2]);
    KvStore &store = *loaded.store;
    const CrossPairs pairs = crossShardPairs(store);
    for (int k = 0; k < kNumOpKinds; ++k)
        std::printf("  %-5s %12llu ops\n", opKindName(k),
                    static_cast<unsigned long long>(run.opsByKind[k]));

    // ------------------------------------------- traced-only runs
    double span_overhead = 0;
    std::vector<std::vector<double>> sweep; // [phase][config] ops/s
    if (args.trace && !args.tunerOnly) {
        // Back-to-back A/B on phase 0: plain clients, then the same
        // clients keeping a span per call.
        ClientConfig ab = cc;
        ab.phases = {spec.phases[0]};
        ab.phaseSeconds = 0;
        ab.opsPerClient = 0;
        ab.plant = Plant::kNone;
        ab.seconds = std::clamp(args.seconds / 4, 0.5, 2.0);
        ab.windows = 1;
        const RunResult plain = runClients(store, ab, *writers, pairs);
        ab.spanCap = std::size_t{1} << 20;
        const RunResult traced = runClients(store, ab, *writers, pairs);
        const double plain_rate = static_cast<double>(plain.ops) / plain.seconds;
        const double traced_rate =
            static_cast<double>(traced.ops) / traced.seconds;
        span_overhead = pct(plain_rate - traced_rate, plain_rate);
        writeSpans(args.workDir + "/spans-" + spec.name + ".bin", traced);
        report.absorb(plain);
        report.absorb(traced);
    }
    if (args.trace && spec.tuned) {
        sweep = menuSweep(store, cc, spec.phases, *writers, pairs, report);
        for (int s = 0; s < store.numShards(); ++s)
            store.shard(static_cast<std::size_t>(s))
                .poly()
                .reconfigure(spec.store.initial);
        proteus::rectm::UtilityMatrix matrix(sweep.size(), menu.size());
        for (std::size_t p = 0; p < sweep.size(); ++p)
            for (std::size_t c = 0; c < menu.size(); ++c)
                matrix.set(p, c, sweep[p][c]);
        const std::string path = args.matrixOut.empty()
                                     ? args.workDir + "/kv_utility_matrix.csv"
                                     : args.matrixOut;
        proteus::rectm::saveCsvFile(matrix, path);
        std::printf("menu sweep written to %s (rows: read, write; "
                    "columns:",
                    path.c_str());
        for (const TmConfig &config : menu)
            std::printf(" %s", config.label().c_str());
        std::printf(")\n");
    }

    // -------------------------------------------------- end of run
    // A time-based run leaves a log as long as its throughput allows,
    // so those workloads shut down with a checkpoint, as kv_service
    // does, and tuned_shift then serves a fixed tail of write-phase
    // ops: every run reopens a log of the same size. The checkpoint
    // runs twice because a checkpoint keeps the generation before it,
    // and recovery reads every generation it finds.
    if (!spec.fixedWork) {
        KvStore::Session s = store.openSession();
        for (int i = 0; i < 2; ++i)
            if (!store.checkpoint(s))
                report.fail("end-of-run checkpoint failed");
        store.closeSession(s);
    }
    if (spec.tailOpsPerClient > 0) {
        ClientConfig tail = cc;
        tail.phases = {spec.phases.back()};
        tail.phaseSeconds = 0;
        tail.opsPerClient = spec.tailOpsPerClient;
        tail.windows = 1;
        tail.plant = Plant::kNone;
        report.absorb(runClients(store, tail, *writers, pairs));
    }

    // ------------------------------------------------ output checks
    const double live_bytes = [&] {
        double b = 0;
        for (int s = 0; s < store.numShards(); ++s)
            b += static_cast<double>(
                store.shard(static_cast<std::size_t>(s)).arena().bytesLive());
        return b;
    }();
    const std::uint64_t grows = store.telemetry().value("shard_grows");
    const std::vector<std::uint64_t> before = digest(store, spec, threads);
    std::size_t empty_keys = 0;
    for (std::size_t i = 0; i < spec.plainKeys; ++i)
        empty_keys += before[i] == 0 ? 1 : 0;
    if (!spec.tuned && empty_keys > 0)
        report.fail(std::to_string(empty_keys) +
                    " preloaded keys are missing before close");

    // ---------------------------------------------- close and reopen
    // Reopening checkpoints what it replayed, so each repeat reopens a
    // fresh copy of the log the run left; the last one is checked.
    store.flushWal();
    loaded = {};
    const double rss_before = peakRssMb();
    const std::string pristine = dir + ".closed";
    KvStoreOptions reopen_opts = spec.store;
    reopen_opts.walDir = dir;
    std::unique_ptr<KvStore> reopened;
    std::vector<double> reopens;
    if (spec.reopens > 1) {
        fs::remove_all(pristine);
        fs::copy(dir, pristine, fs::copy_options::recursive);
    }
    for (int i = 0; i < spec.reopens; ++i) {
        reopened.reset();
        if (i > 0) {
            fs::remove_all(dir);
            fs::copy(pristine, dir, fs::copy_options::recursive);
        }
        const std::uint64_t r0 = nowNanos();
        reopened = std::make_unique<KvStore>(reopen_opts);
        reopens.push_back(static_cast<double>(nowNanos() - r0) / 1e9);
    }
    fs::remove_all(pristine);
    const double recovery_s = medianOf(reopens);
    const double rss_growth = peakRssMb() - rss_before;
    const std::uint64_t recovered_records =
        reopened->recoveryInfo().replayedRecords +
        reopened->recoveryInfo().checkpointEntries;
    if (args.plant == Plant::kLostWrite) {
        KvStore::Session s = reopened->openSession();
        reopened->del(s, 0);
        reopened->closeSession(s);
    }
    const std::vector<std::uint64_t> after = digest(*reopened, spec, threads);
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        if (before[i] != after[i] && mismatched++ < 4)
            report.fail("after reopen, key index " + std::to_string(i) +
                        " differs from the value read before close");
    }
    if (mismatched > 4)
        report.fail(std::to_string(mismatched) +
                    " keys differ after reopen in total");
    report.attempted += before.size();
    if (reopened->health() != Health::kHealthy)
        report.fail("reopened store is not healthy");
    reopened.reset();
    fs::remove_all(dir);
    std::printf("reopen: %.3f s, %llu records, %zu keys compared, %zu "
                "differ\n",
                recovery_s,
                static_cast<unsigned long long>(recovered_records),
                before.size(), mismatched);

    // ------------------------------------------------------- metrics
    const bool windowed = !spec.tuned;
    const auto lat = [&](int kind, double q) {
        return windowed ? windowedPercentile(run, kind, q)
                        : mergedPercentile(run, kind, q);
    };
    if (!args.trace) {
        report.add("ops_per_s",
                   windowed ? windowedOpsPerSecond(run)
                            : static_cast<double>(run.ops) / run.seconds,
                   "ops/s");
        report.add("get_p50_ns", lat(kGet, 0.50), "ns");
        report.add("get_p99_ns", lat(kGet, 0.99), "ns");
        report.add("put_p50_ns", lat(kPut, 0.50), "ns");
        report.add("put_p99_ns", lat(kPut, 0.99), "ns");
        report.add("txn_p50_ns", lat(kTxn, 0.50), "ns");
        report.add("txn_p99_ns", lat(kTxn, 0.99), "ns");
        report.add("snap_p50_ns", lat(kSnap, 0.50), "ns");
        report.add("snap_p99_ns", lat(kSnap, 0.99), "ns");
        report.add("setup_s", medianOf(setups), "s");
        report.add("recovery_s", recovery_s, "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return 0;
    }

    // Per-layer metrics: the ledger, then counter deltas over the
    // last timed round.
    if (!args.tunerOnly) {
        const auto delta = [&](const char *name) {
            return static_cast<double>(tel1.value(name) - tel0.value(name));
        };
        const double ops = static_cast<double>(last.ops);
        const double commits = delta("tm_commits");
        const double aborts = delta("tm_aborts");
        const double txns = static_cast<double>(last.opsByKind[kTxn]);
        const double audits = static_cast<double>(last.opsByKind[kSnap]);
        const double writes = static_cast<double>(
            last.opsByKind[kPut] + last.opsByKind[kDel] + last.opsByKind[kTxn]);
        // User bytes: key + value of every put, key + delta of each leg
        // of a transfer, the key of a delete.
        const double value_bytes = spec.bytes ? 128.0 : 8.0;
        const double user_bytes =
            static_cast<double>(last.opsByKind[kPut]) * (8 + value_bytes) +
            static_cast<double>(last.opsByKind[kDel]) * 8 + txns * 2 * 16;

        runLedger({spec.store.initial, spec.store.log2SlotsPerShard,
                   spec.plainKeys / 4, spec.phases[0].zipf,
                   args.workDir + "/ledger", args.seed},
                  report);

        report.add("tm.commits_per_op", commits / ops, "count");
        report.add("tm.aborts_per_op", aborts / ops, "count");
        report.add("tm.commit_ratio", commits / std::max(1.0, commits + aborts),
                   "ratio");
        report.add("shard.grows", static_cast<double>(grows), "count");
        report.add("arena.bytes_live_per_key",
                   live_bytes / static_cast<double>(spec.plainKeys), "B");
        report.add("txn.aborts_per_txn",
                   txns > 0 ? delta("twophase_aborts") / txns : 0, "count");
        report.add("snap.rounds_per_read",
                   audits > 0 ? delta("snapshot_rounds") / audits : 0, "count");
        report.add("snap.retries", delta("snapshot_retries"), "count");
        report.add("snap.pending_waits", delta("snapshot_pending_waits"),
                   "count");
        report.add("wal.bytes_per_write", delta("wal_bytes") / writes, "B");
        report.add("wal.appends_per_write", delta("wal_appends") / writes,
                   "count");
        report.add("wal.write_calls_per_write",
                   static_cast<double>(io1.syscw - io0.syscw) / writes, "count");
        report.add("wal.bytes_per_user_byte",
                   static_cast<double>(io1.wchar - io0.wchar) / user_bytes,
                   "ratio");
        report.add("recovery.records", static_cast<double>(recovered_records),
                   "count");
        report.add("recovery.ns_per_record",
                   recovery_s * 1e9 /
                       std::max<double>(1, static_cast<double>(recovered_records)),
                   "ns");
        report.add("recovery.rss_growth_mb", rss_growth, "MB");
        report.add("trace.overhead_pct", span_overhead, "%");
    }

    // Tuning layer.
    if (!spec.tuned) {
        if (spec.tunerRung) {
            Args sub = args;
            sub.workload = "tuned_shift";
            // Capped so the traced run stays well inside its time limit.
            sub.seconds = std::min(args.seconds, 20.0);
            sub.tunerOnly = true;
            sub.plant = Plant::kNone;
            Report tuned;
            runWorkload(sub, tuned);
            report.adopt(tuned, "tuner.");
        } else {
            for (const auto &[m, unit] :
                 {std::pair{"tuner.read_dfo_pct", "%"},
                  {"tuner.write_dfo_pct", "%"},
                  {"tuner.best_read_ops_per_s", "ops/s"},
                  {"tuner.best_write_ops_per_s", "ops/s"},
                  {"tuner.reconfigurations", "count"},
                  {"tuner.cusum_detections", "count"},
                  {"tuner.detect_ms", "ms"},
                  {"tuner.settle_ms", "ms"}})
                report.notApplicable(m, unit,
                                     "measured in mixed_2pc_wal's traced run");
        }
        return 0;
    }
    // Tuning layer: distance from the best static menu entry per
    // phase, and how fast each shard reacted to each shift.
    const double best_read = *std::max_element(sweep[0].begin(), sweep[0].end());
    const double best_write =
        *std::max_element(sweep[1].begin(), sweep[1].end());
    const double tuned_read = static_cast<double>(run.phaseOps[0]) /
                              run.phaseSeconds[0];
    const double tuned_write = static_cast<double>(run.phaseOps[1]) /
                               run.phaseSeconds[1];
    report.add("tuner.read_dfo_pct", pct(best_read - tuned_read, best_read),
               "%");
    report.add("tuner.write_dfo_pct",
               pct(best_write - tuned_write, best_write), "%");
    report.add("tuner.best_read_ops_per_s", best_read, "ops/s");
    report.add("tuner.best_write_ops_per_s", best_write, "ops/s");
    report.add("tuner.reconfigurations", tstats.reconfigurations, "count");
    report.add("tuner.cusum_detections", tstats.detections, "count");
    report.add("tuner.detect_ms", medianOf(tstats.detectMs), "ms");
    report.add("tuner.settle_ms", medianOf(tstats.settleMs), "ms");
    return 0;
}

} // namespace perfbench
