/**
 * @file
 * Shared declarations of the ProteusKV benchmark: command-line
 * arguments, the value encodings every output check decodes, the
 * closed-loop client engine, and the metric sink the workloads
 * report into.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kvstore/kvstore.hpp"
#include "latency_recorder.hpp"

namespace perfbench {

using proteus::kvstore::KvStore;

/** A fault planted into the benchmark's view of the store's outputs,
 *  to prove that the matching check fails the run. */
enum class Plant
{
    kNone,
    kTornAudit,  //!< one audit sees its group sum off by one
    kForeignTag, //!< one get returns a value tagged with another key
    kLostWrite,  //!< one acknowledged write is missing after reopen
    kSumDrift,   //!< one transfer credits one unit more than it debits
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for WAL files, spans and the utility matrix. */
    std::string workDir = ".bench_build/work";
    Plant plant = Plant::kNone;
    /** Where the traced tuned_shift run writes the measured utility
     *  matrix ("" = <workDir>/kv_utility_matrix.csv). */
    std::string matrixOut;
    /** Set for the tuning rung of another workload's traced run: only
     *  the tuner's metrics are wanted. */
    bool tunerOnly = false;
};

/** Operation classes the clients time separately. */
enum OpKind : int
{
    kGet = 0,
    kPut,
    kDel,
    kTxn,  //!< cross-shard transfer (writing multiOp, 2PC)
    kSnap, //!< read-only multiOp audit of one account group
    kNumOpKinds
};
const char *opKindName(int kind);

// ------------------------------------------------------------- key space
/** Plain keys are [0, keySpace); accounts live far above them. */
constexpr std::uint64_t kAccountBase = std::uint64_t{1} << 40;
constexpr int kGroups = 64;
constexpr int kGroupSize = 8;
constexpr std::uint64_t kInitialBalance = 1000000;

inline std::uint64_t
accountKey(int group, int member)
{
    return kAccountBase +
           static_cast<std::uint64_t>(group * kGroupSize + member);
}

/** A group's conserved total (uint64 arithmetic wraps, transfers
 *  move signed deltas, so the sum is exact modulo 2^64). */
inline std::uint64_t
groupTotal()
{
    return kInitialBalance * kGroupSize;
}

// --------------------------------------------------------- value codecs
/**
 * Word values: key in the high 32 bits, the writing client (0 =
 * preload, c+1 = client c) in bits 24..31, the writer's sequence in
 * the low 24 bits.
 */
inline std::uint64_t
encodeWord(std::uint64_t key, unsigned writer, std::uint64_t seq)
{
    return (key << 32) | (std::uint64_t{writer} << 24) | (seq & 0xffffff);
}

/**
 * Byte values, 64..192 B: [key][version][filler], where version =
 * writer << 40 | seq and the filler words are a hash of (key,
 * version, position), so a copy torn between two versions fails.
 */
std::string encodeBytes(std::uint64_t key, std::uint64_t version,
                        std::size_t len);
/** Length of the value a (key, version) pair is written with. */
std::size_t bytesLenFor(std::uint64_t key, std::uint64_t version);

/** Tracks every writer's issued sequence numbers so a read can be
 *  checked against "a version some client wrote". */
struct Writers
{
    explicit Writers(int clients) : issued(clients + 1) {}
    std::vector<std::atomic<std::uint64_t>> issued;
};

/** Empty when `value` is a word some writer wrote for `key`, else why
 *  not. */
std::string checkWord(std::uint64_t key, std::uint64_t value,
                      const Writers &writers);
std::string checkBytes(std::uint64_t key, const std::string &value,
                       const Writers &writers);

// ------------------------------------------------------------- workload
/** One traffic phase. Shares are of all ops; the rest are gets. */
struct Mix
{
    double put = 0;
    double del = 0;
    double txn = 0;
    double snap = 0;
    std::uint64_t keySpace = 1;
    /** 0 = uniform, else Zipf skew. */
    double zipf = 0;
    /** Plain keys hold byte values (getBytes/putBytes). */
    bool bytes = false;
};

/** Group member pairs on different shards (transfers commit by 2PC). */
using CrossPairs = std::vector<std::vector<std::pair<int, int>>>;
CrossPairs crossShardPairs(const KvStore &store);

struct Span
{
    std::uint64_t start;
    std::uint64_t end;
    std::uint32_t opId;
    std::uint8_t kind;
    std::uint8_t client;
};

struct ClientConfig
{
    int clients = 4;
    std::uint64_t seed = 1;
    std::vector<Mix> phases;
    /** Time-based run length; with opsPerClient > 0 it only sets the
     *  window length (seconds / windows). */
    double seconds = 1;
    int windows = 10;
    /** > 0: fixed work — every client runs exactly this many ops. */
    std::uint64_t opsPerClient = 0;
    /** Phase p is active over [p, p+1) * phaseSeconds, cycling through
     *  `phases` (0 = stay in phase 0). */
    double phaseSeconds = 0;
    /** Gets may miss (the mix deletes). */
    bool missesAllowed = false;
    /** Keep a span per op, at most this many per client (0 = none). */
    std::size_t spanCap = 0;
    Plant plant = Plant::kNone;
    /** Runs on the clock thread once the clients were told to stop
     *  and before they are joined (join the tuner, unpark clients). */
    std::function<void()> onStop;
};

struct RunResult
{
    double seconds = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< the first few, for the log
    std::array<std::uint64_t, kNumOpKinds> opsByKind{};
    /** Per window: actual length, ops, and latency per op kind. */
    std::vector<double> windowSeconds;
    std::vector<std::uint64_t> windowOps;
    std::vector<std::array<LatencyRecorder, kNumOpKinds>> windowLatency;
    /** Share of the machine's CPU time the hypervisor stole from this
     *  VM in each window (/proc/stat; 0 on bare metal). */
    std::vector<double> windowSteal;
    /** Windows every client was running through to their end. */
    std::size_t completeWindows = 0;
    /** Ops and seconds spent in each entry of the phase table. */
    std::vector<std::uint64_t> phaseOps;
    std::vector<double> phaseSeconds;
    std::vector<std::vector<Span>> spans;
    /** Wall-clock start (nowNanos) — aligns tuner timestamps. */
    std::uint64_t startNanos = 0;
};

/** Closed-loop clients: one session and thread each; every call into
 *  KvStore is timed and its output checked. */
RunResult runClients(KvStore &store, const ClientConfig &config,
                     Writers &writers, const CrossPairs &pairs);

/** Appends part's totals and its complete windows to all. */
void appendRun(RunResult &all, const RunResult &part);

/** The complete windows with the least CPU steal: the quietest
 *  quarter, at least 6. On a shared VM, other tenants' load shows up
 *  as steal, and these windows measure the store rather than its
 *  neighbours. */
std::vector<std::size_t> quietWindows(const RunResult &r);

/** Median over the quiet windows of ops/s and per-kind percentiles;
 *  falls back to whole-run figures when fewer than 3 windows are
 *  complete. */
double windowedOpsPerSecond(const RunResult &r);
double windowedPercentile(const RunResult &r, int kind, double q);
/** Whole-run figures. */
double mergedPercentile(const RunResult &r, int kind, double q);

// --------------------------------------------------------------- output
class Report
{
  public:
    void add(const std::string &name, double value, const char *unit);
    /** A per-layer metric that this workload cannot measure: reported
     *  as 0 with the reason printed. */
    void notApplicable(const std::string &name, const char *unit,
                       const std::string &why);
    /** One failed check, counted as one failed op. */
    void fail(const std::string &what);
    /** A client run's ops and the failures its checks counted. */
    void absorb(const RunResult &run);
    /** Takes over other's op counts and failures, and the metrics
     *  whose names start with `prefix`. */
    void adopt(const Report &other, const std::string &prefix);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> failures;
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

int runWorkload(const Args &args, Report &report);

/** Ledger rungs (traced run): one thread, the workload's backend,
 *  table size, load factor and key distribution. */
struct LedgerSpec
{
    proteus::polytm::TmConfig config;
    unsigned log2SlotsPerShard = 14;
    std::uint64_t keysPerShard = 1 << 13;
    double zipf = 0;
    std::string workDir;
    std::uint64_t seed = 1;
};
void runLedger(const LedgerSpec &spec, Report &report);

/** Resident-set figures of this process, in MB. */
double peakRssMb();
double currentRssMb();
/** syscw / wchar from /proc/self/io (0 when unreadable). */
struct IoCounters
{
    std::uint64_t syscw = 0;
    std::uint64_t wchar = 0;
};
IoCounters readIo();

double medianOf(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
