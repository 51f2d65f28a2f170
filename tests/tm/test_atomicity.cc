/**
 * @file
 * Property tests of transactional atomicity and isolation, swept over
 * every (algorithm x contention manager x serial-lock) configuration
 * via parameterized gtest.
 *
 * Properties:
 *  - counter increments are never lost (atomicity of read-modify-write)
 *  - bank-transfer conservation (no torn or partially applied txns)
 *  - snapshot consistency (a reader never observes a half-updated pair)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;
using tmemc::tests::algoName;
using tmemc::tests::cmName;

struct Cfg
{
    tm::AlgoKind algo;
    tm::CmKind cm;
    bool serialLock;
};

class AtomicityTest : public ::testing::TestWithParam<Cfg>
{
  protected:
    void
    SetUp() override
    {
        const Cfg &p = GetParam();
        tm::RuntimeCfg cfg;
        cfg.algo = p.algo;
        cfg.cm = p.cm;
        cfg.useSerialLock = p.serialLock;
        tm::Runtime::get().configure(cfg);
        tm::Runtime::get().resetStats();
    }
};

const tm::TxnAttr incrAttr{"prop:incr", tm::TxnKind::Atomic, false};
const tm::TxnAttr xferAttr{"prop:xfer", tm::TxnKind::Atomic, false};
const tm::TxnAttr auditAttr{"prop:audit", tm::TxnKind::Atomic, false};

TEST_P(AtomicityTest, NoLostIncrements)
{
    constexpr int threads = 4;
    constexpr int perThread = 2000;
    static std::uint64_t counter;
    counter = 0;

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < perThread; ++i) {
                tm::run(incrAttr, [](tm::TxDesc &tx) {
                    tm::txStore<std::uint64_t>(
                        tx, &counter, tm::txLoad(tx, &counter) + 1);
                });
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(counter, static_cast<std::uint64_t>(threads) * perThread);
}

TEST_P(AtomicityTest, NoLostIncrementsAcrossExtension)
{
    // Forces timestamp extension on the counter's load: each
    // transaction first reads `noise`, which the other threads keep
    // bumping, so by the time it reads `counter` a commit has usually
    // moved the counter's orec past its start time. An extension that
    // revalidates the older reads but keeps the counter word sampled
    // before it lets a commit landing in between go unseen, and the
    // increment then commits on a stale value.
    constexpr int threads = 4;
    constexpr int perThread = 5000;
    struct alignas(64) Word
    {
        std::uint64_t v;
    };
    static Word noise, counter;
    noise.v = 0;
    counter.v = 0;
    static const tm::TxnAttr bumpAttr{"prop:ext-bump", tm::TxnKind::Atomic,
                                      false};

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < perThread; ++i) {
                tm::run(bumpAttr, [](tm::TxDesc &tx) {
                    tm::txStore<std::uint64_t>(
                        tx, &noise.v, tm::txLoad(tx, &noise.v) + 1);
                });
                tm::run(incrAttr, [](tm::TxDesc &tx) {
                    (void)tm::txLoad(tx, &noise.v);
                    tm::txStore<std::uint64_t>(
                        tx, &counter.v, tm::txLoad(tx, &counter.v) + 1);
                });
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(counter.v, static_cast<std::uint64_t>(threads) * perThread);
    EXPECT_EQ(noise.v, static_cast<std::uint64_t>(threads) * perThread);
}

TEST_P(AtomicityTest, BankConservation)
{
    constexpr int accounts = 16;
    constexpr int threads = 4;
    constexpr int perThread = 1500;
    constexpr std::uint64_t initial = 1000;
    static std::int64_t bank[accounts];
    for (auto &a : bank)
        a = initial;

    std::vector<std::thread> workers;
    std::atomic<bool> torn{false};
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            XorShift128 rng(1000 + t);
            for (int i = 0; i < perThread; ++i) {
                const int from = rng.nextBounded(accounts);
                const int to = rng.nextBounded(accounts);
                if (from == to)
                    continue;
                tm::run(xferAttr, [&](tm::TxDesc &tx) {
                    const std::int64_t f = tm::txLoad(tx, &bank[from]);
                    const std::int64_t g = tm::txLoad(tx, &bank[to]);
                    tm::txStore<std::int64_t>(tx, &bank[from], f - 1);
                    tm::txStore<std::int64_t>(tx, &bank[to], g + 1);
                });
                // Periodic transactional audit: total must always be
                // conserved in any consistent snapshot.
                if (i % 100 == 0) {
                    const std::int64_t total =
                        tm::run(auditAttr, [&](tm::TxDesc &tx) {
                            std::int64_t sum = 0;
                            for (int a = 0; a < accounts; ++a)
                                sum += tm::txLoad(tx, &bank[a]);
                            return sum;
                        });
                    if (total !=
                        static_cast<std::int64_t>(accounts * initial))
                        torn.store(true);
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_FALSE(torn.load());
    std::int64_t total = 0;
    for (auto a : bank)
        total += a;
    EXPECT_EQ(total, static_cast<std::int64_t>(accounts * initial));
}

TEST_P(AtomicityTest, PairedWritesNeverTorn)
{
    // Writers keep (x, y) with y == 2*x; readers must never see a
    // violation inside a transaction.
    static std::uint64_t x, y;
    x = 1;
    y = 2;
    std::atomic<bool> stop{false};
    std::atomic<bool> torn{false};

    std::thread writer([&] {
        static const tm::TxnAttr w{"prop:pair-w", tm::TxnKind::Atomic,
                                   false};
        for (int i = 2; i < 3000; ++i) {
            tm::run(w, [&](tm::TxDesc &tx) {
                tm::txStore<std::uint64_t>(tx, &x, i);
                tm::txStore<std::uint64_t>(tx, &y, 2 * i);
            });
        }
        stop.store(true);
    });
    std::thread reader([&] {
        static const tm::TxnAttr r{"prop:pair-r", tm::TxnKind::Atomic,
                                   false};
        while (!stop.load()) {
            const auto [gx, gy] = tm::run(r, [&](tm::TxDesc &tx) {
                return std::pair{tm::txLoad(tx, &x), tm::txLoad(tx, &y)};
            });
            if (gy != 2 * gx)
                torn.store(true);
        }
    });
    writer.join();
    reader.join();
    EXPECT_FALSE(torn.load());
}

TEST_P(AtomicityTest, ByteGranularWritesDoNotClobberNeighbors)
{
    // Two threads write interleaved byte ranges of one array; bytes
    // owned by the other thread must survive untouched.
    constexpr int len = 256;
    static unsigned char buf[len];
    std::memset(buf, 0, sizeof(buf));
    static const tm::TxnAttr w{"prop:bytes", tm::TxnKind::Atomic, false};

    auto worker = [&](int parity, unsigned char tag) {
        for (int round = 0; round < 200; ++round) {
            for (int i = parity; i < len; i += 2) {
                tm::run(w, [&](tm::TxDesc &tx) {
                    tm::txStore<unsigned char>(tx, &buf[i], tag);
                });
            }
        }
    };
    std::thread a(worker, 0, 0xaa);
    std::thread b(worker, 1, 0xbb);
    a.join();
    b.join();
    for (int i = 0; i < len; ++i)
        EXPECT_EQ(buf[i], (i % 2 == 0) ? 0xaa : 0xbb) << "index " << i;
}

std::vector<Cfg>
allConfigs()
{
    std::vector<Cfg> out;
    for (auto algo : {tm::AlgoKind::GccEager, tm::AlgoKind::Lazy,
                      tm::AlgoKind::NOrec, tm::AlgoKind::RA,
                      tm::AlgoKind::Serial}) {
        for (auto cm : {tm::CmKind::SerialAfterN, tm::CmKind::NoCM,
                        tm::CmKind::Backoff, tm::CmKind::Hourglass}) {
            out.push_back({algo, cm, true});
        }
    }
    // NoLock mode: no SerialAfterN (needs the lock), no Serial algo.
    for (auto algo :
         {tm::AlgoKind::GccEager, tm::AlgoKind::Lazy, tm::AlgoKind::NOrec,
          tm::AlgoKind::RA}) {
        for (auto cm :
             {tm::CmKind::NoCM, tm::CmKind::Backoff, tm::CmKind::Hourglass})
            out.push_back({algo, cm, false});
    }
    return out;
}

std::string
cfgName(const ::testing::TestParamInfo<Cfg> &info)
{
    const Cfg &c = info.param;
    return algoName(c.algo) + "_" + cmName(c.cm) +
           (c.serialLock ? "_Lock" : "_NoLock");
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, AtomicityTest,
                         ::testing::ValuesIn(allConfigs()), cfgName);

} // namespace
