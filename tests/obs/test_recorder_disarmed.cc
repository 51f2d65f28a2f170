/**
 * @file
 * Counted disarmed-cost check for the trace recorder. With every arm
 * bit clear, transactions in process and ASCII and binary requests
 * through a loopback server must leave no trace: no hook may leave its
 * inline gate (every slow path creates its thread's recorder state on
 * entry, so recorderCount() stays 0) and nothing is recorded.
 *
 * Runs as its own process so no earlier test has armed the recorder.
 * Together with atomlint's AL5 on the `atom-nonblocking` gates (no
 * mutex there), this replaces a timed 5% threshold whose verdict was
 * run-to-run noise: a gate that calls into the recorder while
 * disarmed fails here on any machine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;

TEST(RecorderDisarmed, HooksNeverLeaveTheirGates)
{
    ASSERT_EQ(obs::detail::armedBits(), 0u);
    tm::Runtime::get().configure(tm::RuntimeCfg{});

    // In process, every TM hook kind: begin and commit, an in-flight
    // serial switch (cause + end) and an RO fast-path promotion.
    static const tm::TxnAttr plain{"disarmed-plain", tm::TxnKind::Atomic};
    static const tm::TxnAttr unsafe{"disarmed-unsafe",
                                    tm::TxnKind::Relaxed};
    static const tm::TxnAttr ro{"disarmed-ro", tm::TxnKind::Atomic,
                                false, true};
    static std::uint64_t word = 0;
    tm::run(plain, [](tm::TxDesc &d) {
        tm::txStore(d, &word, tm::txLoad(d, &word) + 1);
    });
    tm::run(unsafe, [](tm::TxDesc &d) { tm::unsafeOp(d, "disarmed"); });
    tm::run(ro, [](tm::TxDesc &d) {
        tm::txStore(d, &word, tm::txLoad(d, &word) + 1);
    });
    EXPECT_EQ(word, 2u);
    const tm::StatBlock &tx = tm::Runtime::get().snapshot().total;
    EXPECT_GE(tx.inflightSwitch, 1u);
    EXPECT_GE(tx.roPromotions, 1u);

    // Two shards: every served op also passes the shard-routing hook.
    mc::Settings settings;
    settings.maxBytes = 16 * 1024 * 1024;
    auto cache = mc::makeShardedCache("IT-onCommit", settings, 2, 2);
    ASSERT_NE(cache, nullptr);

    // Over loopback: both protocols through the serving path.
    net::ServerCfg cfg;
    cfg.port = 0;
    cfg.workers = 2;
    net::Server server(*cache, cfg);
    ASSERT_TRUE(server.start());
    {
        net::Client c;
        ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
        EXPECT_EQ(c.roundTripAscii("set a 0 0 5\r\nhello\r\n"),
                  "STORED\r\n");
        EXPECT_EQ(c.roundTripAscii("get a\r\n"),
                  "VALUE a 0 5\r\nhello\r\nEND\r\n");
        mc::BinResponse r;
        ASSERT_GT(mc::binParseResponse(
                      c.roundTripBinary(mc::binSetRequest("b", "val")), r),
                  0u);
        EXPECT_EQ(r.status, mc::BinStatus::Ok);
        ASSERT_GT(mc::binParseResponse(
                      c.roundTripBinary(mc::binRequest(mc::BinOp::Get, "b")),
                      r),
                  0u);
        EXPECT_EQ(r.value, "val");
    }
    server.stop();

    EXPECT_EQ(obs::recorderCount(), 0u);
    EXPECT_EQ(obs::traceRecordCount(), 0u);
    EXPECT_EQ(obs::tail::tailConsidered(), 0u);
}

} // namespace
