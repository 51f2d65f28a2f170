/**
 * @file
 * Commit-time quiescence, driven deterministically: a transaction is
 * parked inside its body while another thread commits a writer, and
 * the tests check which parked transactions the commit waits for.
 *
 *  - an older transaction in the same domain: the commit waits, and
 *    returns once that transaction ends;
 *  - a transaction that began after the commit: no wait;
 *  - a transaction in another TxDomain: no wait;
 *  - threads registering and exiting while writers commit: the
 *    lock-free scan never touches freed memory (run under ASan/TSan).
 *
 * A passing run never depends on timing. The "still waiting" checks
 * can only miss a broken quiescence, never flag a working one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;
using namespace std::chrono_literals;

const tm::TxnAttr parkAttr{"quiesce:park", tm::TxnKind::Atomic, false};
const tm::TxnAttr writeAttr{"quiesce:write", tm::TxnKind::Atomic, false};

/** Wait until @p flag is set or @p limit passes. */
bool
waitFor(const std::atomic<bool> &flag, std::chrono::milliseconds limit)
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!flag.load()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(1ms);
    }
    return true;
}

/** Sum of the domain's commit clocks: moves on any writer commit. */
std::uint64_t
commitStamp(tm::TxDomain &dom)
{
    return dom.clock.load() + dom.norecSeq.load();
}

/**
 * A thread that runs one transaction in @p domain (the home domain if
 * null), reads a word, and parks inside the body until released.
 */
class ParkedTx
{
  public:
    explicit ParkedTx(tm::TxDomain *domain = nullptr)
        : thread_([this, domain] {
              tm::DomainScope scope(domain);
              tm::run(parkAttr, [&](tm::TxDesc &tx) {
                  (void)tm::txLoad(tx, &word_);
                  inside_.store(true);
                  while (!release_.load())
                      std::this_thread::yield();
              });
          })
    {
        EXPECT_TRUE(waitFor(inside_, 10s)) << "parked txn never began";
    }

    ~ParkedTx() { end(); }

    void
    end()
    {
        release_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

  private:
    std::uint64_t word_ = 0;
    std::atomic<bool> inside_{false};
    std::atomic<bool> release_{false};
    std::thread thread_;
};

/** A thread that commits one writer transaction in the home domain. */
class Writer
{
  public:
    Writer()
        : thread_([this] {
              tm::run(writeAttr, [&](tm::TxDesc &tx) {
                  tm::txStore<std::uint64_t>(tx, &word_, 1);
              });
              returned_.store(true);
          })
    {
    }

    ~Writer()
    {
        if (thread_.joinable())
            thread_.join();
    }

    /** True once the commit (quiescence included) has returned. */
    bool returned() const { return returned_.load(); }

    bool
    waitReturned(std::chrono::milliseconds limit) const
    {
        return waitFor(returned_, limit);
    }

  private:
    std::uint64_t word_ = 0;
    std::atomic<bool> returned_{false};
    std::thread thread_;
};

class QuiescenceTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void
    SetUp() override
    {
        tmemc::tests::useRuntime(GetParam(), tm::CmKind::NoCM,
                                 /*serial_lock=*/false);
    }
};

TEST_P(QuiescenceTest, CommitWaitsForOlderTransactionInDomain)
{
    tm::TxDomain &home = tm::Runtime::get().homeDomain();
    ParkedTx older;
    const std::uint64_t before = commitStamp(home);
    Writer writer;
    // The writer's commit lands after the parked transaction began,
    // so its quiescence must hold it until that transaction ends.
    while (commitStamp(home) == before)
        std::this_thread::yield();
    std::this_thread::sleep_for(50ms);
    EXPECT_FALSE(writer.returned())
        << "commit returned while an older transaction was running";
    older.end();
    EXPECT_TRUE(writer.waitReturned(10s))
        << "commit still waiting after the older transaction ended";
}

TEST_P(QuiescenceTest, CommitDoesNotWaitForYoungerTransaction)
{
    tm::TxDomain &home = tm::Runtime::get().homeDomain();
    // Hold the writer in quiescence behind an older transaction...
    auto older = std::make_unique<ParkedTx>();
    const std::uint64_t before = commitStamp(home);
    Writer writer;
    while (commitStamp(home) == before)
        std::this_thread::yield();
    // ...then park one that began after the writer's commit time.
    ParkedTx younger;
    ASSERT_FALSE(writer.returned());
    older.reset();
    EXPECT_TRUE(writer.waitReturned(10s))
        << "commit waited for a transaction that began after it";
}

TEST_P(QuiescenceTest, CommitDoesNotWaitForOtherDomain)
{
    tm::TxDomain other(8);
    ParkedTx foreign(&other);
    Writer writer;
    EXPECT_TRUE(writer.waitReturned(10s))
        << "commit waited for a transaction in another domain";
}

TEST_P(QuiescenceTest, ThreadChurnDuringCommitsIsSafe)
{
    // Writers quiesce continuously while short-lived threads register,
    // run a transaction and exit, so scans race with slot recycling.
    static std::uint64_t words[4];
    for (auto &w : words)
        w = 0;
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
        writers.emplace_back([&, w] {
            while (!stop.load()) {
                tm::run(writeAttr, [&](tm::TxDesc &tx) {
                    tm::txStore<std::uint64_t>(
                        tx, &words[w], tm::txLoad(tx, &words[w]) + 1);
                });
            }
        });
    }
    for (int round = 0; round < 1000; ++round) {
        std::thread a([] {
            tm::run(parkAttr, [](tm::TxDesc &tx) {
                (void)tm::txLoad(tx, &words[2]);
            });
        });
        std::thread b([] {
            tm::run(writeAttr, [](tm::TxDesc &tx) {
                tm::txStore<std::uint64_t>(
                    tx, &words[3], tm::txLoad(tx, &words[3]) + 1);
            });
        });
        a.join();
        b.join();
    }
    stop.store(true);
    for (auto &w : writers)
        w.join();
    EXPECT_EQ(words[3], 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Algos, QuiescenceTest,
    ::testing::Values(tm::AlgoKind::GccEager, tm::AlgoKind::Lazy,
                      tm::AlgoKind::NOrec, tm::AlgoKind::RA),
    [](const ::testing::TestParamInfo<tm::AlgoKind> &info) {
        return tmemc::tests::algoName(info.param);
    });

} // namespace
