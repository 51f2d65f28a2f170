/**
 * @file
 * Algorithm-specific behaviours: rollback restoring memory (direct
 * update), redo-log merging (buffered update), conflict detection,
 * abort statistics, and timestamp extension when a write locks an orec
 * newer than the writer's start time.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;
using tmemc::tests::useRuntime;

const tm::TxnAttr attr{"algo:test", tm::TxnKind::Atomic, false};

class AlgoTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void SetUp() override { useRuntime(GetParam(), tm::CmKind::NoCM); }
};

TEST_P(AlgoTest, AbortRestoresMemory)
{
    if (GetParam() == tm::AlgoKind::Serial)
        GTEST_SKIP() << "serial transactions never abort";
    static std::uint64_t cell;
    cell = 77;
    int runs = 0;
    tm::run(attr, [&](tm::TxDesc &tx) {
        ++runs;
        tm::txStore<std::uint64_t>(tx, &cell, 123);
        if (runs == 1) {
            // Force one abort after the speculative write. For direct
            // update the write is already in memory and must be undone
            // before the retry re-reads it.
            throw tm::TxAbort{};
        }
        EXPECT_EQ(tm::txLoad(tx, &cell), 123u);
    });
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(cell, 123u);
    const auto snap = tm::Runtime::get().snapshot();
    EXPECT_EQ(snap.total.aborts, 1u);
    EXPECT_EQ(snap.total.commits, 1u);
}

TEST_P(AlgoTest, AbortedTransactionInvisibleToOthers)
{
    if (GetParam() == tm::AlgoKind::Serial)
        GTEST_SKIP() << "serial transactions never abort";
    static std::uint64_t cell;
    cell = 5;
    static std::atomic<int> phase{0};
    phase = 0;

    std::thread t([&] {
        int attempts = 0;
        tm::run(attr, [&](tm::TxDesc &tx) {
            if (++attempts > 1)
                return;  // Second attempt: commit without writing.
            tm::txStore<std::uint64_t>(tx, &cell, 999);
            phase.store(1);
            while (phase.load() != 2)
                std::this_thread::yield();
            throw tm::TxAbort{};
        });
    });
    // This thread waits for the speculative write, then observes
    // memory non-transactionally after the abort completes.
    while (phase.load() != 1)
        std::this_thread::yield();
    phase.store(2);
    t.join();
    EXPECT_EQ(cell, 5u);
}

TEST_P(AlgoTest, PartialWordWritesMerge)
{
    static std::uint64_t word;
    word = 0x1111111111111111ull;
    tm::run(attr, [](tm::TxDesc &tx) {
        auto *bytes = reinterpret_cast<unsigned char *>(&word);
        tm::txStore<unsigned char>(tx, bytes + 2, 0xff);
        tm::txStore<unsigned char>(tx, bytes + 5, 0xee);
        // Read back the whole word through the transaction: must merge
        // buffered bytes over memory for lazy algorithms.
        const std::uint64_t seen = tm::txLoad(tx, &word);
        EXPECT_EQ(seen & 0xff0000u, 0xff0000u);
        EXPECT_EQ((seen >> 40) & 0xff, 0xeeu);
        EXPECT_EQ(seen & 0xff, 0x11u);
    });
    EXPECT_EQ(word, 0x1111ee1111ff1111ull);
}

TEST_P(AlgoTest, WriteWriteConflictSerializesOutcome)
{
    // Two threads do read-modify-write on the same word; whatever the
    // interleaving, the result equals sequential application.
    static std::uint64_t cell;
    cell = 0;
    constexpr int per = 3000;
    auto worker = [&] {
        for (int i = 0; i < per; ++i) {
            tm::run(attr, [](tm::TxDesc &tx) {
                tm::txStore<std::uint64_t>(tx, &cell,
                                           tm::txLoad(tx, &cell) + 1);
            });
        }
    };
    std::thread a(worker);
    std::thread b(worker);
    a.join();
    b.join();
    EXPECT_EQ(cell, 2u * per);
}

TEST_P(AlgoTest, LargeWriteSetCommits)
{
    constexpr int n = 4096;
    static std::uint64_t arr[n];
    std::memset(arr, 0, sizeof(arr));
    tm::run(attr, [](tm::TxDesc &tx) {
        for (int i = 0; i < n; ++i)
            tm::txStore<std::uint64_t>(tx, &arr[i], i);
    });
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(arr[i], static_cast<std::uint64_t>(i));
}

TEST_P(AlgoTest, ReadOnlyCommitCounted)
{
    static std::uint64_t cell = 3;
    tm::Runtime::get().resetStats();
    tm::run(attr, [](tm::TxDesc &tx) { (void)tm::txLoad(tx, &cell); });
    const auto snap = tm::Runtime::get().snapshot();
    if (GetParam() == tm::AlgoKind::Serial) {
        EXPECT_EQ(snap.total.serialCommits, 1u);
    } else {
        EXPECT_EQ(snap.total.readOnlyCommits, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Algos, AlgoTest,
    ::testing::Values(tm::AlgoKind::GccEager, tm::AlgoKind::Lazy,
                      tm::AlgoKind::NOrec, tm::AlgoKind::RA,
                      tm::AlgoKind::Serial),
    [](const ::testing::TestParamInfo<tm::AlgoKind> &info) {
        return tmemc::tests::algoName(info.param);
    });

/**
 * Extension at lock time, driven deterministically. A transaction
 * reads one word and is parked while another thread commits; it then
 * writes a word whose orec that commit made newer than its start time.
 * GccEager meets the newer orec in storeWord, Lazy and RA in the
 * commit's lock phase; both go through the same acquire helper.
 */
class LockTimeExtensionTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void SetUp() override { useRuntime(GetParam(), tm::CmKind::NoCM); }

    /** Words on separate cache lines, so each has its own orec. */
    struct alignas(64) Cell
    {
        std::uint64_t v = 0;
    };

    static tm::OrecWord &
    orecOf(const std::uint64_t *word)
    {
        return tm::Runtime::get().homeDomain().orecs().forWord(
            tm::wordBase(word));
    }

    /**
     * Commit @p val to every cell of @p words from another thread and
     * return once the commit has released its orecs. Its quiescence
     * then waits for the caller's older transaction, so join the
     * thread only after that transaction ends.
     */
    static std::thread
    commitFromOtherThread(std::vector<std::uint64_t *> words,
                          std::uint64_t val)
    {
        std::vector<std::uint64_t> before;
        for (const std::uint64_t *w : words)
            before.push_back(orecOf(w).load(std::memory_order_acquire));
        std::thread t([words, val] {
            tm::run(attr, [&](tm::TxDesc &tx) {
                for (std::uint64_t *w : words)
                    tm::txStore<std::uint64_t>(tx, w, val);
            });
        });
        for (std::size_t i = 0; i < words.size(); ++i) {
            for (;;) {
                const std::uint64_t o =
                    orecOf(words[i]).load(std::memory_order_acquire);
                if ((o & 1) == 0 && o != before[i])
                    break;
                std::this_thread::yield();
            }
        }
        return t;
    }
};

TEST_P(LockTimeExtensionTest, BlindWriteToNewerOrecExtendsAndCommits)
{
    static Cell read;
    static Cell written;
    read.v = 1;
    written.v = 0;
    std::thread other;
    int attempts = 0;
    tm::run(attr, [&](tm::TxDesc &tx) {
        ++attempts;
        const std::uint64_t r = tm::txLoad(tx, &read.v);
        if (attempts == 1)
            other = commitFromOtherThread({&written.v}, 7);
        // The read is still valid, so the newer orec only needs the
        // start time extended past it: no abort.
        tm::txStore<std::uint64_t>(tx, &written.v, r + 100);
    });
    other.join();
    EXPECT_EQ(attempts, 1);
    EXPECT_EQ(written.v, 101u);
    EXPECT_EQ(tm::Runtime::get().snapshot().total.aborts, 0u);
}

TEST_P(LockTimeExtensionTest, WriteAfterOverwrittenReadAbortsThenRetries)
{
    static Cell read;
    static Cell written;
    read.v = 1;
    written.v = 0;
    std::thread other;
    int attempts = 0;
    tm::run(attr, [&](tm::TxDesc &tx) {
        ++attempts;
        const std::uint64_t r = tm::txLoad(tx, &read.v);
        if (attempts == 1)
            other = commitFromOtherThread({&read.v, &written.v}, 7);
        // The extension must revalidate the read and fail: committing
        // here would publish a value computed from the stale r == 1.
        tm::txStore<std::uint64_t>(tx, &written.v, r + 100);
    });
    other.join();
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(written.v, 107u);
    EXPECT_EQ(tm::Runtime::get().snapshot().total.aborts, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    OrecAlgos, LockTimeExtensionTest,
    ::testing::Values(tm::AlgoKind::GccEager, tm::AlgoKind::Lazy,
                      tm::AlgoKind::RA),
    [](const ::testing::TestParamInfo<tm::AlgoKind> &info) {
        return tmemc::tests::algoName(info.param);
    });

} // namespace
