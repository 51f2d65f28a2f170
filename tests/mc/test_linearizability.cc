/**
 * @file
 * Linearizability harness for the cache, across every branch and
 * shard count.
 *
 * Worker threads run a random get/set/delete/incr mix against the
 * cache while a history recorder stamps each operation with invoke
 * and response timestamps from one global atomic counter. A
 * Wing & Gong style checker then searches for a linearization: a
 * total order of the operations that (a) respects real time — an
 * operation that returned before another was invoked must come first
 * — and (b) replays correctly against a trivially-correct sequential
 * model of a single key.
 *
 * Linearizability is a local (per-object) property [Herlihy & Wing
 * 1990, Thm. 1], and every recorded operation touches exactly one
 * key, so the checker decomposes the history by key and checks each
 * subhistory independently — which also keeps the search small
 * enough for an exhaustive DFS with memoization on (done-set, model
 * state).
 *
 * The suite runs every branch at shards 1, 4 and 16: the sharded
 * cache must be indistinguishable from the unsharded one for
 * single-key operations, whatever the branch's synchronization
 * (per-shard pthread locks or per-shard TM domains). A self-test
 * feeds the checker deliberately non-linearizable histories and
 * expects rejection, so a vacuously-accepting checker cannot pass.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "mc/cache_iface.h"
#include "tm/api.h"

#include "lin_checker.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

// The history recorder and Wing & Gong checker live in lin_checker.h,
// shared with the cluster suite (tests/net/test_cluster.cc), which
// runs the same checker over histories recorded against a replicated
// node fleet instead of one in-process cache.
using namespace tmemc::lintest;

// ------------------------------------------------------------ self-tests

Op
mkOp(OpKind kind, std::uint64_t invoke, std::uint64_t ret,
     OpStatus status, std::uint64_t arg = 0, const std::string &out = "",
     std::uint64_t out_num = 0)
{
    Op op;
    op.kind = kind;
    op.key = "k";
    op.arg = arg;
    op.invoke = invoke;
    op.ret = ret;
    op.status = status;
    op.out = out;
    op.outNum = out_num;
    return op;
}

TEST(LinearizabilityChecker, AcceptsSequentialHistory)
{
    std::vector<Op> h;
    h.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 7));
    h.push_back(mkOp(OpKind::Get, 2, 3, OpStatus::Ok, 0, "7"));
    h.push_back(mkOp(OpKind::Incr, 4, 5, OpStatus::Ok, 3, "", 10));
    h.push_back(mkOp(OpKind::Del, 6, 7, OpStatus::Ok));
    h.push_back(mkOp(OpKind::Get, 8, 9, OpStatus::Miss));
    EXPECT_TRUE(linearizable(h));
}

TEST(LinearizabilityChecker, AcceptsConcurrentReorder)
{
    // The get overlaps the set and already observes its value: legal,
    // the set linearizes inside its window before the get.
    std::vector<Op> h;
    h.push_back(mkOp(OpKind::Set, 0, 5, OpStatus::Ok, 42));
    h.push_back(mkOp(OpKind::Get, 1, 2, OpStatus::Ok, 0, "42"));
    EXPECT_TRUE(linearizable(h));
}

TEST(LinearizabilityChecker, RejectsPhantomRead)
{
    // Nothing ever wrote 9: no linearization can explain the get.
    std::vector<Op> h;
    h.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 7));
    h.push_back(mkOp(OpKind::Get, 2, 3, OpStatus::Ok, 0, "9"));
    EXPECT_FALSE(linearizable(h));
}

TEST(LinearizabilityChecker, RejectsStaleRead)
{
    // The second set completed before the get was invoked; real time
    // forbids linearizing the get before it.
    std::vector<Op> h;
    h.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 1));
    h.push_back(mkOp(OpKind::Set, 2, 3, OpStatus::Ok, 2));
    h.push_back(mkOp(OpKind::Get, 4, 5, OpStatus::Ok, 0, "1"));
    EXPECT_FALSE(linearizable(h));
}

TEST(LinearizabilityChecker, RejectsLostUpdate)
{
    // Two concurrent incrs both observed 0 -> 5: one update vanished.
    std::vector<Op> h;
    h.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 0));
    h.push_back(mkOp(OpKind::Incr, 2, 6, OpStatus::Ok, 5, "", 5));
    h.push_back(mkOp(OpKind::Incr, 3, 7, OpStatus::Ok, 5, "", 5));
    EXPECT_FALSE(linearizable(h));
}

TEST(LinearizabilityChecker, IndeterminateSetExplainsEitherOutcome)
{
    // A set whose reply was lost (node killed mid-request) may have
    // applied or not: a later get observing its value is legal, and
    // so is a later get observing the prior value.
    Op lost = mkOp(OpKind::Set, 2, lintest::kNeverReturned,
                   OpStatus::Miss, 9);
    lost.indeterminate = true;

    std::vector<Op> saw;
    saw.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 7));
    saw.push_back(lost);
    saw.push_back(mkOp(OpKind::Get, 3, 4, OpStatus::Ok, 0, "9"));
    EXPECT_TRUE(linearizable(saw));

    std::vector<Op> missed;
    missed.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 7));
    missed.push_back(lost);
    missed.push_back(mkOp(OpKind::Get, 3, 4, OpStatus::Ok, 0, "7"));
    EXPECT_TRUE(linearizable(missed));
}

TEST(LinearizabilityChecker, IndeterminateSetDoesNotExcusePhantoms)
{
    // The lost set wrote 9; a get observing 8 is still impossible.
    Op lost = mkOp(OpKind::Set, 2, lintest::kNeverReturned,
                   OpStatus::Miss, 9);
    lost.indeterminate = true;
    std::vector<Op> h;
    h.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 7));
    h.push_back(lost);
    h.push_back(mkOp(OpKind::Get, 3, 4, OpStatus::Ok, 0, "8"));
    EXPECT_FALSE(linearizable(h));
}

TEST(LinearizabilityChecker, IndeterminateSetCannotApplyBeforeInvoke)
{
    // The lost set was invoked after the get returned; real time
    // forbids explaining the get with it.
    Op lost = mkOp(OpKind::Set, 5, lintest::kNeverReturned,
                   OpStatus::Miss, 9);
    lost.indeterminate = true;
    std::vector<Op> h;
    h.push_back(mkOp(OpKind::Set, 0, 1, OpStatus::Ok, 7));
    h.push_back(mkOp(OpKind::Get, 2, 3, OpStatus::Ok, 0, "9"));
    h.push_back(lost);
    EXPECT_FALSE(linearizable(h));
}

TEST(LinearizabilityChecker, WideUnlinearizableHistoryFailsOnNodeBudget)
{
    // Forty overlapping sets, then a get of a value none of them
    // wrote. No order explains it, and the search cannot visit the
    // 2^40 placed sets on the way to that verdict: it must stop at its
    // node budget with an explicit FAIL instead of stalling the suite.
    std::vector<Op> h;
    for (std::uint64_t i = 0; i < 40; ++i)
        h.push_back(mkOp(OpKind::Set, i, 100 + i, OpStatus::Ok, i + 1));
    h.push_back(mkOp(OpKind::Get, 200, 201, OpStatus::Ok, 0, "0"));
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = true;
    EXPECT_NONFATAL_FAILURE(ok = linearizable(h), "node budget");
    EXPECT_FALSE(ok);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(20));
}

// ------------------------------------------------------- cache harness

class LinearizabilityTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        // Each branch runs on the runtime configuration it selects
        // (IT-RA: the fence-free RA algorithm).
        tm::Runtime::get().configure(runtimeCfgFor(GetParam()));
        tm::Runtime::get().resetStats();
    }
};

/**
 * Drive @p threads workers through a random single-key op mix and
 * return the merged history.
 */
std::vector<Op>
recordHistory(CacheIface &cache, int threads, int ops_per_thread,
              int keys, std::uint64_t seed)
{
    HistoryRecorder rec;
    std::vector<std::vector<Op>> perThread(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t]() {
            XorShift128 rng(seed + static_cast<std::uint64_t>(t));
            auto &hist = perThread[t];
            hist.reserve(static_cast<std::size_t>(ops_per_thread));
            char buf[256];
            for (int i = 0; i < ops_per_thread; ++i) {
                Op op;
                op.key =
                    "lin" + std::to_string(rng.nextBounded(
                                static_cast<std::uint64_t>(keys)));
                const std::uint64_t dice = rng.nextBounded(100);
                const auto tid = static_cast<std::uint32_t>(t);
                if (dice < 45) {
                    op.kind = OpKind::Get;
                    op.invoke = rec.stamp();
                    const auto r =
                        cache.get(tid, op.key.data(), op.key.size(),
                                  buf, sizeof(buf));
                    op.ret = rec.stamp();
                    op.status = r.status;
                    if (r.status == OpStatus::Ok)
                        op.out.assign(buf,
                                      std::min(r.vlen, sizeof(buf)));
                } else if (dice < 70) {
                    op.kind = OpKind::Set;
                    op.arg = rng.nextBounded(1000);
                    const std::string val = std::to_string(op.arg);
                    op.invoke = rec.stamp();
                    op.status = cache.store(tid, op.key.data(),
                                            op.key.size(), val.data(),
                                            val.size());
                    op.ret = rec.stamp();
                } else if (dice < 85) {
                    op.kind = OpKind::Incr;
                    op.arg = 1 + rng.nextBounded(9);
                    std::uint64_t out = 0;
                    op.invoke = rec.stamp();
                    op.status =
                        cache.arith(tid, op.key.data(), op.key.size(),
                                    op.arg, true, out);
                    op.ret = rec.stamp();
                    op.outNum = out;
                } else {
                    op.kind = OpKind::Del;
                    op.invoke = rec.stamp();
                    op.status =
                        cache.del(tid, op.key.data(), op.key.size());
                    op.ret = rec.stamp();
                }
                hist.push_back(std::move(op));
            }
        });
    }
    for (auto &th : pool)
        th.join();
    std::vector<Op> history;
    for (auto &v : perThread) {
        for (auto &op : v)
            history.push_back(std::move(op));
    }
    return history;
}

/** Shard counts to sweep: all of {1,4,16} by default; a single count
 *  when TMEMC_LIN_SHARDS is set (the CI shard-matrix legs use this to
 *  pin one configuration per sanitizer run). */
std::vector<std::uint32_t>
shardSweep()
{
    if (const char *env = std::getenv("TMEMC_LIN_SHARDS")) {
        const unsigned long v = std::strtoul(env, nullptr, 10);
        if (v > 0)
            return {static_cast<std::uint32_t>(v)};
    }
    return {1u, 4u, 16u};
}

TEST_P(LinearizabilityTest, ConcurrentHistoryIsLinearizable)
{
    // Plenty of memory and few small keys: no eviction and no expiry,
    // so the sequential model above is the complete specification.
    for (const std::uint32_t shards : shardSweep()) {
        Settings s;
        s.maxBytes = 64 * 1024 * 1024;
        auto cache = makeShardedCache(GetParam(), s, 4, shards);
        ASSERT_NE(cache, nullptr);
        ASSERT_EQ(cache->shardCount(), shards);

        const std::vector<Op> history = recordHistory(
            *cache, /*threads=*/4, /*ops_per_thread=*/40, /*keys=*/8,
            /*seed=*/20260806 + shards);
        EXPECT_TRUE(linearizable(history))
            << GetParam() << " with shards=" << shards;
    }
}

TEST_P(LinearizabilityTest, InvisibleReaderFastPathPreservesLinearizability)
{
    // The GET path's read-only sites (mc:get-copy, mc:refcount-expr)
    // run as invisible readers when RuntimeCfg::roFastPath is on:
    // sequence-validated loads, no read set, O(1) commit. Opacity of
    // that path is exactly single-key linearizability of get against
    // concurrent set/incr/del — record the same mixed history with
    // the fast path on and off and demand both check out, plus proof
    // that the "on" leg actually carried fast-path commits (on the
    // branches whose get-copy is speculative) so the pass is not
    // vacuous.
    const std::string &branch = GetParam();
    const bool hintedBranch =
        branch.find("Lib") != std::string::npos ||
        branch.find("onCommit") != std::string::npos;
    for (const bool fast : {true, false}) {
        for (const std::uint32_t shards : {1u, 4u}) {
            tm::RuntimeCfg cfg = runtimeCfgFor(branch);
            cfg.roFastPath = fast;
            tm::Runtime::get().configure(cfg);
            tm::Runtime::get().resetStats();

            Settings s;
            s.maxBytes = 64 * 1024 * 1024;
            auto cache = makeShardedCache(branch, s, 4, shards);
            ASSERT_NE(cache, nullptr);
            const std::vector<Op> history = recordHistory(
                *cache, /*threads=*/4, /*ops_per_thread=*/40,
                /*keys=*/8, /*seed=*/20260808 + shards + (fast ? 1 : 0));
            EXPECT_TRUE(linearizable(history))
                << branch << " roFastPath=" << fast
                << " shards=" << shards;

            const auto snap = tm::Runtime::get().snapshot();
            if (fast && hintedBranch) {
                EXPECT_GT(snap.total.roFastCommits, 0u)
                    << branch << ": fast path never engaged";
            }
            if (!fast) {
                EXPECT_EQ(snap.total.roFastCommits, 0u)
                    << branch << ": ablation knob ignored";
            }
            // The cache (and its maintenance thread) must be gone
            // before the next configure(), which refuses while any
            // transaction is in flight.
            cache.reset();
        }
    }
    tm::Runtime::get().configure(tm::RuntimeCfg{});
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, LinearizabilityTest,
    ::testing::ValuesIn(allBranchNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

} // namespace
