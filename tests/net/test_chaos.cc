/**
 * @file
 * Chaos tests: the server under deterministic fault injection. The
 * invariant throughout is the one the ISSUE demands — every reply the
 * server acknowledges is byte-for-byte intact, no matter what the
 * fault schedule does to the syscalls and allocators underneath it.
 *
 * Every schedule is seeded (common/fault.h), so a failure replays
 * exactly; nothing here depends on wall-clock randomness.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "net/client.h"
#include "net/server.h"
#include "tm/runtime.h"

namespace
{

using namespace tmemc;

/** Fresh cache + server per test; faults disarmed on the way out. */
class ChaosTest : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        mc::Settings settings;
        settings.maxBytes = 16 * 1024 * 1024;
        cache_ = mc::makeCache(GetParam(), settings, kWorkers);
        ASSERT_NE(cache_, nullptr);
        net::ServerCfg cfg;
        cfg.port = 0;
        cfg.workers = kWorkers;
        server_ = std::make_unique<net::Server>(*cache_, cfg);
        ASSERT_TRUE(server_->start());
    }

    void
    TearDown() override
    {
        fault::disarmAll();
        server_->stop();
    }

    net::Client
    makeClient()
    {
        net::Client c;
        EXPECT_TRUE(c.connect("127.0.0.1", server_->port(), 5000));
        c.setRecvTimeout(10000);
        return c;
    }

    /** Set/get `count` keys and verify every reply byte-for-byte. */
    void
    verifyTraffic(net::Client &c, int count, const char *tag)
    {
        for (int i = 0; i < count; ++i) {
            const std::string k = std::string(tag) + std::to_string(i);
            const std::string v =
                "payload-" + std::to_string(i) + "-" + tag;
            ASSERT_EQ(c.roundTripAscii(
                          "set " + k + " 0 0 " +
                          std::to_string(v.size()) + "\r\n" + v + "\r\n"),
                      "STORED\r\n")
                << tag << " set " << i;
            ASSERT_EQ(c.roundTripAscii("get " + k + "\r\n"),
                      "VALUE " + k + " 0 " + std::to_string(v.size()) +
                          "\r\n" + v + "\r\nEND\r\n")
                << tag << " get " << i;
        }
    }

    static constexpr std::uint32_t kWorkers = 2;
    std::unique_ptr<mc::CacheIface> cache_;
    std::unique_ptr<net::Server> server_;
};

// ----------------------------------------------------------------------
// Short I/O
// ----------------------------------------------------------------------

TEST_P(ChaosTest, ShortWritesNeverCorruptReplies)
{
    // Every server-side write is truncated to 7 bytes, so each reply
    // leaves in ragged fragments the flush loop must stitch together.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.byteCap = 7;
    fault::ScopedFault sf("net.write", p);

    net::Client c = makeClient();
    verifyTraffic(c, 30, "sw");
    EXPECT_GT(sf.firedCount(), 0u);
}

TEST_P(ChaosTest, ShortReadsStillFrameCorrectly)
{
    // Every server-side read returns at most 3 bytes: requests arrive
    // shredded and the framing layer must reassemble them.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.byteCap = 3;
    fault::ScopedFault sf("net.read", p);

    net::Client c = makeClient();
    verifyTraffic(c, 10, "sr");
    EXPECT_GT(sf.firedCount(), 0u);
}

TEST_P(ChaosTest, MixedShortReadsAndWritesUnderPipelining)
{
    fault::Policy pr;
    pr.trigger = fault::Trigger::Probability;
    pr.probability = 0.5;
    pr.seed = 1234;
    pr.byteCap = 5;
    fault::ScopedFault sfr("net.read", pr);
    fault::Policy pw = pr;
    pw.seed = 5678;
    fault::ScopedFault sfw("net.write", pw);

    net::Client c = makeClient();
    std::string batch;
    constexpr int kN = 25;
    for (int i = 0; i < kN; ++i) {
        const std::string v = "vv" + std::to_string(i);
        batch += "set mx" + std::to_string(i) + " 0 0 " +
                 std::to_string(v.size()) + "\r\n" + v + "\r\n";
    }
    for (int i = 0; i < kN; ++i)
        batch += "get mx" + std::to_string(i) + "\r\n";
    ASSERT_TRUE(c.sendAll(batch));
    for (int i = 0; i < kN; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply)) << "set reply " << i;
        EXPECT_EQ(reply, "STORED\r\n") << "set reply " << i;
    }
    for (int i = 0; i < kN; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply)) << "get reply " << i;
        const std::string v = "vv" + std::to_string(i);
        EXPECT_EQ(reply, "VALUE mx" + std::to_string(i) + " 0 " +
                             std::to_string(v.size()) + "\r\n" + v +
                             "\r\nEND\r\n");
    }
}

// ----------------------------------------------------------------------
// Accept storms
// ----------------------------------------------------------------------

TEST_P(ChaosTest, EmfileStormOnAcceptShedsAndRecovers)
{
    // Every other accept(2) fails with EMFILE. The listener must
    // count the failure, shed, and pick the pending connection up on
    // the next poll tick — clients see extra latency, never errors.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 2;
    p.errnoValue = EMFILE;
    fault::ScopedFault sf("net.accept", p);

    for (int round = 0; round < 6; ++round) {
        net::Client c = makeClient();
        ASSERT_EQ(c.roundTripAscii("set em 0 0 2\r\nok\r\n"),
                  "STORED\r\n")
            << "round " << round;
    }
    EXPECT_GT(sf.firedCount(), 0u);
    EXPECT_GT(server_->netStats().acceptFailures, 0u);
}

// ----------------------------------------------------------------------
// Allocator faults mid-request
// ----------------------------------------------------------------------

TEST_P(ChaosTest, SlabOomMidSetYieldsServerErrorNotCorruption)
{
    net::Client c = makeClient();
    // Healthy store first, so the cache has state the fault must not
    // disturb.
    ASSERT_EQ(c.roundTripAscii("set keep 0 0 4\r\nsafe\r\n"),
              "STORED\r\n");

    {
        // Chunk allocation fails on every attempt (the eviction
        // retries all hit the same wall), so the SET must surface
        // SERVER_ERROR out of memory instead of a torn item.
        fault::Policy p;
        p.trigger = fault::Trigger::EveryNth;
        p.n = 1;
        fault::ScopedFault sf("mc.slabs.alloc", p);
        const std::string reply =
            c.roundTripAscii("set doomed 0 0 5\r\nnever\r\n");
        EXPECT_EQ(reply.compare(0, 26, "SERVER_ERROR out of memory"), 0)
            << reply;
        EXPECT_GT(sf.firedCount(), 0u);
    }

    // Fault gone: the same connection serves perfectly again and the
    // doomed key never materialized. The healthy key may have been
    // evicted by the failed SET's retries (eviction is the correct
    // response to pressure) — but it must be intact or cleanly gone,
    // never torn.
    EXPECT_EQ(c.roundTripAscii("get doomed\r\n"), "END\r\n");
    const std::string keep = c.roundTripAscii("get keep\r\n");
    EXPECT_TRUE(keep == "VALUE keep 0 4\r\nsafe\r\nEND\r\n" ||
                keep == "END\r\n")
        << keep;
    EXPECT_EQ(c.roundTripAscii("set doomed 0 0 3\r\nnow\r\n"),
              "STORED\r\n");
    EXPECT_GE(server_->netStats().oomErrors, 1u);
}

TEST_P(ChaosTest, PageAllocOomIsSurvivable)
{
    net::Client c = makeClient();
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    {
        fault::ScopedFault sf("mc.slabs.page_alloc", p);
        const std::string reply =
            c.roundTripAscii("set pg 0 0 3\r\nabc\r\n");
        EXPECT_EQ(reply.compare(0, 26, "SERVER_ERROR out of memory"), 0)
            << reply;
    }
    EXPECT_EQ(c.roundTripAscii("set pg 0 0 3\r\nabc\r\n"), "STORED\r\n");
    EXPECT_EQ(c.roundTripAscii("get pg\r\n"),
              "VALUE pg 0 3\r\nabc\r\nEND\r\n");
}

TEST_P(ChaosTest, BinaryProtocolReportsOomStatus)
{
    net::Client c = makeClient();
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    {
        fault::ScopedFault sf("mc.slabs.alloc", p);
        const std::string reply =
            c.roundTripBinary(mc::binSetRequest("bk", "bv"));
        mc::BinResponse r;
        ASSERT_GT(mc::binParseResponse(reply, r), 0u);
        EXPECT_EQ(r.status, mc::BinStatus::OutOfMemory);
    }
    const std::string reply =
        c.roundTripBinary(mc::binSetRequest("bk", "bv"));
    mc::BinResponse r;
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);
    EXPECT_GE(server_->netStats().oomErrors, 1u);
}

// ----------------------------------------------------------------------
// Spurious wakeups
// ----------------------------------------------------------------------

TEST_P(ChaosTest, SpuriousEpollTimeoutsDoNotLoseEvents)
{
    // 30% of epoll_wait calls report zero events; level-triggered
    // epoll must re-deliver whatever was pending on the next call.
    fault::Policy p;
    p.trigger = fault::Trigger::Probability;
    p.probability = 0.3;
    p.seed = 99;
    fault::ScopedFault sf("net.epoll_wait", p);

    net::Client c = makeClient();
    verifyTraffic(c, 20, "ep");
    EXPECT_GT(sf.firedCount(), 0u);
}

// ----------------------------------------------------------------------
// epoll_ctl failures
// ----------------------------------------------------------------------

TEST_P(ChaosTest, FailedPauseModIsRetriedWithoutLosingReplies)
{
    // A tiny soft cap, so one 4 KiB reply pauses EPOLLIN.
    server_->stop();
    net::ServerCfg cfg;
    cfg.port = 0;
    cfg.workers = kWorkers;
    cfg.limits.wbufSoftCap = 2 * 1024;
    server_ = std::make_unique<net::Server>(*cache_, cfg);
    ASSERT_TRUE(server_->start());

    net::Client c = makeClient();
    auto valueFor = [](int i) {
        return std::string(4096, static_cast<char>('a' + i));
    };
    constexpr int kKeys = 8;
    for (int i = 0; i < kKeys; ++i)
        ASSERT_EQ(c.roundTripAscii("set pm" + std::to_string(i) +
                                   " 0 0 4096\r\n" + valueFor(i) +
                                   "\r\n"),
                  "STORED\r\n");

    // Writes stall, and the first epoll_ctl after this point -- the
    // MOD that would pause EPOLLIN and arm EPOLLOUT -- fails. The loop
    // must keep its old mask so the next event retries the MOD.
    fault::Policy stall;
    stall.trigger = fault::Trigger::EveryNth;
    stall.n = 1;
    stall.errnoValue = EAGAIN;
    fault::ScopedFault sfw("net.write", stall);
    fault::Policy once;
    once.trigger = fault::Trigger::OneShot;
    once.errnoValue = ENOMEM;
    fault::ScopedFault sfc("net.epoll_ctl", once);

    auto gets = [](int from, int to) {
        std::string burst;
        for (int i = from; i < to; ++i)
            burst += "get pm" + std::to_string(i) + "\r\n";
        return burst;
    };
    ASSERT_TRUE(c.sendAll(gets(0, kKeys / 2)));
    for (int i = 0; i < 2000 && sfc.firedCount() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(sfc.firedCount(), 1u);

    // More input is the next event on the fd: its MOD retry succeeds.
    ASSERT_TRUE(c.sendAll(gets(kKeys / 2, kKeys)));
    for (int i = 0; i < 2000 && sfc.hitCount() < 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(sfc.hitCount(), 2u);

    // Lift the write stall: every reply arrives, in order, intact.
    fault::disarm("net.write");
    for (int i = 0; i < kKeys; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply)) << "reply " << i;
        EXPECT_EQ(reply, "VALUE pm" + std::to_string(i) + " 0 4096\r\n" +
                             valueFor(i) + "\r\nEND\r\n")
            << "reply " << i;
    }
    // The connection resumed reading.
    verifyTraffic(c, 3, "pr");
}

// ----------------------------------------------------------------------
// Everything at once
// ----------------------------------------------------------------------

TEST_P(ChaosTest, CombinedFaultStormKeepsAcknowledgedRepliesIntact)
{
    fault::Policy shortio;
    shortio.trigger = fault::Trigger::Probability;
    shortio.probability = 0.4;
    shortio.seed = 7;
    shortio.byteCap = 9;
    fault::ScopedFault sfr("net.read", shortio);
    shortio.seed = 11;
    fault::ScopedFault sfw("net.write", shortio);
    fault::Policy spur;
    spur.trigger = fault::Trigger::Probability;
    spur.probability = 0.2;
    spur.seed = 13;
    fault::ScopedFault sfe("net.epoll_wait", spur);
    // High per-hit probability: a set only reports OOM when every
    // eviction retry fails too, so p must be near 1 for both reply
    // kinds to appear in the (seed-determined) schedule.
    fault::Policy oom;
    oom.trigger = fault::Trigger::Probability;
    oom.probability = 0.9;
    oom.seed = 17;
    fault::ScopedFault sfo("mc.slabs.alloc", oom);

    net::Client c = makeClient();
    int stored = 0;
    int oom_replies = 0;
    constexpr int kN = 60;
    for (int i = 0; i < kN; ++i) {
        const std::string k = "storm" + std::to_string(i);
        const std::string v = "value-" + std::to_string(i);
        const std::string reply = c.roundTripAscii(
            "set " + k + " 0 0 " + std::to_string(v.size()) + "\r\n" +
            v + "\r\n");
        if (reply == "STORED\r\n") {
            ++stored;
            // An acknowledged store must read back intact even while
            // the storm continues.
            ASSERT_EQ(c.roundTripAscii("get " + k + "\r\n"),
                      "VALUE " + k + " 0 " + std::to_string(v.size()) +
                          "\r\n" + v + "\r\nEND\r\n")
                << "key " << i;
        } else {
            ASSERT_EQ(
                reply.compare(0, 26, "SERVER_ERROR out of memory"), 0)
                << "unexpected reply: " << reply;
            ++oom_replies;
        }
    }
    // Both outcomes occur; the exact split is seed-determined.
    EXPECT_GT(stored, 0);
    EXPECT_GT(oom_replies, 0);
    EXPECT_EQ(server_->netStats().oomErrors,
              static_cast<std::uint64_t>(oom_replies));
}

INSTANTIATE_TEST_SUITE_P(Branches, ChaosTest,
                         ::testing::Values("Baseline", "IT-onCommit"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &ch : name)
                                 if (ch == '-')
                                     ch = '_';
                             return name;
                         });

} // namespace
