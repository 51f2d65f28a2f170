/**
 * @file
 * Privatization-safety tests (paper Figure 1 and Section 3.1).
 *
 * The IP branch pattern: data guarded by a transactional boolean lock
 * is accessed *outside* transactions once the lock is held. This is
 * explicit privatization; the Draft C++ TM Specification requires the
 * TM to make it safe, and GCC's default algorithm provides it via
 * commit-time quiescence. These tests drive that pattern hard.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "litmus_harness.h"
#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;

const tm::TxnAttr lockAttr{"priv:lock", tm::TxnKind::Atomic, false};
const tm::TxnAttr touchAttr{"priv:touch", tm::TxnKind::Atomic, false};

class PrivatizationTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void
    SetUp() override
    {
        tmemc::tests::useRuntime(GetParam(), tm::CmKind::NoCM);
    }
};

/** Transactional boolean lock (the paper's itemlock replacement). */
struct TmBoolLock
{
    std::uint64_t held = 0;

    bool
    tryAcquire()
    {
        return tm::run(lockAttr, [&](tm::TxDesc &tx) {
            if (tm::txLoad(tx, &held) != 0)
                return false;
            tm::txStore<std::uint64_t>(tx, &held, 1);
            return true;
        });
    }

    void
    release()
    {
        tm::run(lockAttr, [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &held, 0);
        });
    }
};

TEST_P(PrivatizationTest, PrivatizedDataNotClobbered)
{
    // Thread A privatizes `data` by committing the tm-bool acquire,
    // then mutates it with plain accesses (func2a in Figure 1a).
    // Thread B reads the lock and, when free, uses the data inside a
    // transaction (func1a). The data must always be internally
    // consistent: pair (u, v) with v == u + 1.
    static TmBoolLock lock;
    static std::uint64_t u, v;
    lock.held = 0;
    u = 10;
    v = 11;
    std::atomic<bool> bad{false};
    constexpr int rounds = 3000;

    std::thread privatizer([&] {
        for (int i = 0; i < rounds; ++i) {
            if (!lock.tryAcquire())
                continue;
            // Privatized: non-transactional read-modify-write.
            const std::uint64_t nu = u + 1;
            u = nu;
            v = nu + 1;
            if (v != u + 1)
                bad = true;
            lock.release();
        }
    });
    std::thread reader([&] {
        for (int i = 0; i < rounds; ++i) {
            const bool ok = tm::run(touchAttr, [&](tm::TxDesc &tx) {
                if (tm::txLoad(tx, &lock.held) != 0)
                    return true;  // Lock held: stay away.
                const std::uint64_t su = tm::txLoad(tx, &u);
                const std::uint64_t sv = tm::txLoad(tx, &v);
                return sv == su + 1;
            });
            if (!ok)
                bad = true;
        }
    });
    privatizer.join();
    reader.join();
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(v, u + 1);
}

TEST_P(PrivatizationTest, UnlinkThenReclaimIsSafe)
{
    // The classic privatization idiom: transactionally unlink a node
    // from a shared list, then read/write and free it privately.
    struct Node
    {
        std::uint64_t value;
        Node *next;
    };
    static Node *head;
    static const tm::TxnAttr popAttr{"priv:pop", tm::TxnKind::Atomic,
                                     false};
    static const tm::TxnAttr scanAttr{"priv:scan", tm::TxnKind::Atomic,
                                      false};

    constexpr int nodes = 2000;
    head = nullptr;
    for (int i = 0; i < nodes; ++i) {
        Node *n = new Node{static_cast<std::uint64_t>(i), head};
        head = n;
    }

    std::atomic<bool> bad{false};
    std::atomic<bool> done{false};
    std::thread scanner([&] {
        // Repeatedly walks the list transactionally; must never touch
        // a freed node (crash/UB under ASan) nor see a torn value.
        while (!done.load()) {
            tm::run(scanAttr, [&](tm::TxDesc &tx) {
                Node *cur = tm::txLoad(tx, &head);
                int steps = 0;
                while (cur != nullptr && steps < 64) {
                    const std::uint64_t val = tm::txLoad(tx, &cur->value);
                    if (val >= nodes)
                        bad = true;
                    cur = tm::txLoad(tx, &cur->next);
                    ++steps;
                }
            });
        }
    });
    std::thread popper([&] {
        for (int i = 0; i < nodes; ++i) {
            Node *mine = tm::run(popAttr, [&](tm::TxDesc &tx) -> Node * {
                Node *h = tm::txLoad(tx, &head);
                if (h == nullptr)
                    return nullptr;
                tm::txStore<Node *>(tx, &head,
                                    tm::txLoad(tx, &h->next));
                return h;
            });
            if (mine == nullptr)
                break;
            // Privatized: plain access, then reclamation.
            mine->value = ~0ull;
            delete mine;
        }
        done = true;
    });
    popper.join();
    scanner.join();
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(head, nullptr);
}

TEST_P(PrivatizationTest, ReaderStartIsVisibleToPrivatizerScan)
{
    // Store buffering between a reader's start publication and a
    // privatizer's quiescence scan, raced round by round. The reader
    // publishes its start and reads `flag`; the privatizer commits
    // flag = 1, scans for older readers, then writes `data` with a
    // plain store. If the reader's flag read can pass its own start
    // publication, the scan can miss a reader that saw flag == 0, and
    // that reader then sees the privatized write. The reader's start
    // is staggered over the rounds to sweep the alignment of the two.
    struct alignas(64) Word
    {
        std::uint64_t v;
    };
    static Word flag, data;
    constexpr int rounds = 20000;
    std::atomic<std::uint64_t> seen{0};
    int violations = 0;
    int stagger = 0;

    litmus::litmusRun(
        rounds,
        [&] {
            flag.v = 0;
            data.v = 0;
        },
        {[&](unsigned) {
             for (int spin = stagger++ % 32; spin > 0; --spin)
                 cpuRelax();
             seen.store(tm::run(touchAttr, [](tm::TxDesc &tx) {
                 if (tm::txLoad(tx, &flag.v) != 0)
                     return std::uint64_t{0};  // Privatized: stay away.
                 for (int spin = 0; spin < 64; ++spin)
                     cpuRelax();
                 return tm::txLoad(tx, &data.v) + 1;
             }));
         },
         [&](unsigned) {
             tm::run(lockAttr, [](tm::TxDesc &tx) {
                 tm::txStore<std::uint64_t>(tx, &flag.v, 1);
             });
             data.v = 1;  // Privatized: plain write.
         }},
        [&](int) {
            // 2 = saw flag == 0 and the write made after privatizing.
            if (seen.load() == 2)
                ++violations;
        });
    EXPECT_EQ(violations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Algos, PrivatizationTest,
    ::testing::Values(tm::AlgoKind::GccEager, tm::AlgoKind::Lazy,
                      tm::AlgoKind::NOrec, tm::AlgoKind::RA),
    [](const ::testing::TestParamInfo<tm::AlgoKind> &info) {
        return tmemc::tests::algoName(info.param);
    });

} // namespace
