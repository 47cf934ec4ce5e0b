/**
 * @file
 * The layer ledger: the same operation timed on one thread at each
 * rung of the stack, each rung adding one layer, so the gap between
 * two rungs is that layer's cost.
 *
 *   1. a read-modify-write through the tm backend API   tm.txn_ns
 *   2. the same through PolyTm::run                      polytm.run_ns
 *   3. get / absent get / put on a standalone Shard      shard.*_ns
 *      and getBytes / putBytes of 64-192 B values        arena.*_ns
 *   4. KvStore get / put, durability off                 kvstore.*_ns
 *   5. KvStore put with a buffered WAL                   wal.put_ns
 *   6. ShardWal::append and appendAndBarrier             wal.append*_ns
 *   7. a cross-shard transfer and a read-only audit,     txn.transfer_ns,
 *      without and with the WAL                          snap.audit_ns,
 *                                                        wal.transfer_ns
 *
 * Rungs 3-5 share one table shape: one shard of the workload's size,
 * load factor and key distribution, so rung 4's store has one shard.
 */
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "kvstore/shard.hpp"
#include "kvstore/wal.hpp"
#include "polytm/polytm.hpp"
#include "tm/backend.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using proteus::nowNanos;
using proteus::Rng;
using proteus::kvstore::Durability;
using proteus::kvstore::KvOp;
using proteus::kvstore::KvStoreOptions;
using proteus::kvstore::Shard;
using proteus::kvstore::ShardOptions;
namespace wal = proteus::kvstore::wal;

namespace {

constexpr std::size_t kKeys = 1 << 20;
constexpr int kTrials = 3;

/** ns per call of fn(i), i in [0, n): median of kTrials passes after
 *  an untimed warm-up pass over the first quarter. */
template <typename F>
double
timeRung(std::size_t n, F &&fn)
{
    for (std::size_t i = 0; i < n / 4; ++i)
        fn(i);
    std::vector<double> trials;
    for (int t = 0; t < kTrials; ++t) {
        const std::uint64_t t0 = nowNanos();
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        trials.push_back(static_cast<double>(nowNanos() - t0) /
                         static_cast<double>(n));
    }
    return medianOf(trials);
}

void
transferOps(std::vector<KvOp> &ops, const CrossPairs &pairs, std::size_t i)
{
    const int g = static_cast<int>(i % kGroups);
    const auto [a, b] = pairs[g][i % pairs[g].size()];
    ops.clear();
    ops.push_back({KvOp::Kind::kAdd, accountKey(g, a),
                   static_cast<std::uint64_t>(std::int64_t{-1}), false});
    ops.push_back({KvOp::Kind::kAdd, accountKey(g, b), 1, false});
}

/** Rung 7 on one store: transfer ns, audit ns. */
std::pair<double, double>
multiOpRung(KvStoreOptions opts, std::size_t n)
{
    opts.numShards = 4;
    opts.log2SlotsPerShard = 10;
    KvStore store(opts);
    KvStore::Session s = store.openSession();
    for (std::uint64_t i = 0; i < kGroups * kGroupSize; ++i)
        store.put(s, kAccountBase + i, kInitialBalance);
    const CrossPairs pairs = crossShardPairs(store);
    std::vector<KvOp> ops;
    const double transfer = timeRung(n, [&](std::size_t i) {
        transferOps(ops, pairs, i);
        store.multiOp(s, ops);
    });
    const double audit = timeRung(n, [&](std::size_t i) {
        const int g = static_cast<int>(i % kGroups);
        ops.clear();
        for (int m = 0; m < kGroupSize; ++m)
            ops.push_back({KvOp::Kind::kGet, accountKey(g, m), 0, false});
        store.multiOp(s, ops);
    });
    store.closeSession(s);
    return {transfer, audit};
}

} // namespace

void
runLedger(const LedgerSpec &spec, Report &report)
{
    fs::remove_all(spec.workDir);
    fs::create_directories(spec.workDir);
    const std::uint64_t n_keys = spec.keysPerShard;
    Rng rng(spec.seed ^ 0x1ed9e7);
    std::vector<std::uint64_t> keys(kKeys);
    for (auto &k : keys)
        k = spec.zipf > 0 ? rng.zipf(n_keys, spec.zipf) : rng.nextBounded(n_keys);
    const auto key = [&](std::size_t i) { return keys[i % kKeys]; };
    const auto absent = [&](std::size_t i) {
        return keys[i % kKeys] + (std::uint64_t{1} << 41);
    };
    const std::size_t fast = 400000;
    const std::size_t slow = 40000;
    std::uint64_t sink = 0;

    // 1-2. Backend transaction, then PolyTm::run, on one word array
    // the size of the table.
    {
        std::vector<std::uint64_t> words(std::size_t{1} << spec.log2SlotsPerShard,
                                         1);
        const std::size_t mask = words.size() - 1;
        proteus::polytm::PolyTm owner(spec.config);
        proteus::tm::TmBackend &backend = owner.backendFor(spec.config.backend);
        proteus::tm::TxDesc desc(0, 77);
        backend.registerThread(desc);
        const double tm_ns = timeRung(fast, [&](std::size_t i) {
            std::uint64_t *w = &words[(key(i) * 0x9e3779b97f4a7c15ull) & mask];
            for (;;) {
                try {
                    desc.htmBudgetLeft = 5;
                    backend.txBegin(desc);
                    backend.txWrite(desc, w, backend.txRead(desc, w) + 1);
                    backend.txCommit(desc);
                    return;
                } catch (const proteus::tm::TxAbort &) {
                }
            }
        });
        backend.deregisterThread(desc);

        proteus::polytm::PolyTm poly(spec.config);
        proteus::polytm::ThreadToken token = poly.registerThread();
        const double poly_ns = timeRung(fast, [&](std::size_t i) {
            std::uint64_t *w = &words[(key(i) * 0x9e3779b97f4a7c15ull) & mask];
            poly.run(token, [&](proteus::polytm::Tx &tx) {
                tx.writeWord(w, tx.readWord(w) + 1);
            });
        });
        poly.deregisterThread(token);
        report.add("tm.txn_ns", tm_ns, "ns");
        report.add("polytm.run_ns", poly_ns, "ns");
    }

    // 3. Standalone shards: word values, then byte values.
    {
        ShardOptions so;
        so.log2Slots = spec.log2SlotsPerShard;
        so.initial = spec.config;
        Shard shard(so);
        auto token = shard.registerWorker();
        for (std::uint64_t k = 0; k < n_keys; ++k)
            shard.put(token, k, encodeWord(k, 0, 0));
        std::uint64_t v = 0;
        report.add("shard.get_ns", timeRung(fast, [&](std::size_t i) {
                       shard.get(token, key(i), &v);
                       sink += v;
                   }),
                   "ns");
        report.add("shard.miss_ns", timeRung(fast, [&](std::size_t i) {
                       sink += shard.get(token, absent(i), &v) ? 1 : 0;
                   }),
                   "ns");
        report.add("shard.put_ns", timeRung(fast, [&](std::size_t i) {
                       shard.put(token, key(i), encodeWord(key(i), 0, i));
                   }),
                   "ns");
        shard.deregisterWorker(token);
    }
    {
        ShardOptions so;
        so.log2Slots = spec.log2SlotsPerShard;
        so.initial = spec.config;
        Shard shard(so);
        auto token = shard.registerWorker();
        std::vector<std::string> values;
        for (std::uint64_t i = 0; i < 256; ++i)
            values.push_back(encodeBytes(i, 0, 64 + i % 129));
        for (std::uint64_t k = 0; k < n_keys; ++k) {
            const std::string &b = values[k % values.size()];
            shard.putBytes(token, k, b.data(), b.size());
        }
        std::string out;
        report.add("arena.get_bytes_ns", timeRung(fast, [&](std::size_t i) {
                       shard.getBytes(token, key(i), &out);
                       sink += out.size();
                   }),
                   "ns");
        report.add("arena.put_bytes_ns", timeRung(fast, [&](std::size_t i) {
                       const std::string &b = values[i % values.size()];
                       shard.putBytes(token, key(i), b.data(), b.size());
                   }),
                   "ns");
        shard.deregisterWorker(token);
    }

    // 4-5. KvStore with one shard of the same shape: off, buffered.
    KvStoreOptions one;
    one.numShards = 1;
    one.log2SlotsPerShard = spec.log2SlotsPerShard;
    one.initial = spec.config;
    {
        KvStore store(one);
        KvStore::Session s = store.openSession();
        for (std::uint64_t k = 0; k < n_keys; ++k)
            store.put(s, k, encodeWord(k, 0, 0));
        std::uint64_t v = 0;
        report.add("kvstore.get_ns", timeRung(fast, [&](std::size_t i) {
                       store.get(s, key(i), &v);
                       sink += v;
                   }),
                   "ns");
        report.add("kvstore.put_ns", timeRung(fast, [&](std::size_t i) {
                       store.put(s, key(i), encodeWord(key(i), 0, i));
                   }),
                   "ns");
        store.closeSession(s);
    }
    {
        KvStoreOptions durable = one;
        durable.durability = Durability::kBuffered;
        durable.walDir = spec.workDir + "/store";
        KvStore store(durable);
        KvStore::Session s = store.openSession();
        for (std::uint64_t k = 0; k < n_keys; ++k)
            store.put(s, k, encodeWord(k, 0, 0));
        report.add("wal.put_ns", timeRung(slow, [&](std::size_t i) {
                       store.put(s, key(i), encodeWord(key(i), 0, i));
                   }),
                   "ns");
        store.closeSession(s);
    }

    // 6. The log alone: one single-put batch record per call.
    {
        wal::ShardWal log(spec.workDir + "/ledger.log", Durability::kBuffered,
                          KvStoreOptions{}.walFlushBytes, wal::WalObs{});
        wal::Record rec;
        rec.type = wal::RecordType::kBatch;
        rec.ops.push_back({wal::WalOp::Kind::kPut, 0, 0, 0, {}});
        std::uint64_t lsn = 0;
        report.add("wal.append_ns", timeRung(fast, [&](std::size_t i) {
                       rec.lsn = ++lsn;
                       rec.ops[0].key = key(i);
                       sink += log.append(rec).end;
                   }),
                   "ns");
        report.add("wal.append_barrier_ns", timeRung(slow, [&](std::size_t i) {
                       rec.lsn = ++lsn;
                       rec.ops[0].key = key(i);
                       sink += log.appendAndBarrier(rec).end;
                   }),
                   "ns");
    }

    // 7. Cross-shard transfer and audit, without and with the WAL.
    {
        const auto [transfer, audit] = multiOpRung(one, slow);
        KvStoreOptions durable = one;
        durable.durability = Durability::kBuffered;
        durable.walDir = spec.workDir + "/multi";
        const auto [wal_transfer, wal_audit] = multiOpRung(durable, slow);
        (void)wal_audit;
        report.add("txn.transfer_ns", transfer, "ns");
        report.add("snap.audit_ns", audit, "ns");
        report.add("wal.transfer_ns", wal_transfer, "ns");
    }
    fs::remove_all(spec.workDir);
    if (sink == 42)
        std::printf("(sink)\n");
}

} // namespace perfbench
