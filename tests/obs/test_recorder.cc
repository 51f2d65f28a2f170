/**
 * @file
 * Trace-recorder tests across its two views: flight-recorder records
 * stamped with the shard a sharded cache routed to, and one
 * transaction seen exactly once by each view when both bits are armed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "mc/cache_iface.h"
#include "mc/hash.h"
#include "mc/sharded_cache.h"
#include "obs/hist.h"
#include "obs/trace.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;

class RecorderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        reset();
    }
    void TearDown() override { reset(); }

    static void
    reset()
    {
        obs::disarmTrace();
        obs::resetTrace();
        obs::tail::disarmTail();
        obs::tail::resetTail();
    }
};

std::vector<std::string>
dumpLines()
{
    std::vector<std::string> lines;
    std::istringstream in(obs::dumpTrace());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::string
field(const std::string &line, const std::string &key)
{
    const std::size_t at = line.find(" " + key + "=");
    if (at == std::string::npos)
        return "";
    const std::size_t from = at + key.size() + 2;
    return line.substr(from, line.find(' ', from) - from);
}

bool
isTxLine(const std::string &line)
{
    return line.find(" tx_begin ") != std::string::npos ||
           line.find(" tx_commit ") != std::string::npos;
}

TEST_F(RecorderTest, RingRecordsCarryRoutedShard)
{
    constexpr std::uint32_t kShards = 4;
    mc::Settings settings;
    settings.maxBytes = 16 * 1024 * 1024;
    auto cache = mc::makeShardedCache("IT-onCommit", settings, 1, kShards);
    ASSERT_NE(cache, nullptr);

    // A key the cache routes to a shard other than 0.
    std::string key;
    std::uint32_t shard = 0;
    for (int i = 0; shard == 0; ++i) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "k%d", i);
        key = buf;
        shard = mc::shardOfHash(mc::hashKey(key.data(), key.size()),
                                kShards);
    }

    obs::armTrace();
    ASSERT_EQ(cache->store(0, key.data(), key.size(), "v", 1),
              mc::OpStatus::Ok);
    obs::disarmTrace();

    // The op's transactions ran on this thread after the cache routed
    // it: each of its begin/commit records carries that shard.
    // (Maintenance threads may record too; they never route.)
    const std::string want = std::to_string(shard);
    std::string op_thread;
    int begins = 0;
    int commits = 0;
    const std::vector<std::string> lines = dumpLines();
    for (const std::string &line : lines) {
        if (!isTxLine(line) || field(line, "shard") != want)
            continue;
        op_thread = field(line, "thread");
        begins += line.find(" tx_begin ") != std::string::npos;
        commits += line.find(" tx_commit ") != std::string::npos;
    }
    EXPECT_GE(begins, 1) << obs::dumpTrace();
    EXPECT_GE(commits, 1) << obs::dumpTrace();
    for (const std::string &line : lines) {
        if (isTxLine(line) && field(line, "thread") == op_thread) {
            EXPECT_EQ(field(line, "shard"), want) << line;
        }
    }
}

TEST_F(RecorderTest, BothBitsRecordOneTxOnceInEachView)
{
    static const tm::TxnAttr attr{"recorder-both-bits",
                                  tm::TxnKind::Atomic};
    obs::armTrace();
    obs::tail::armTail(4);

    ASSERT_NE(obs::tail::beginRequest(0, false, obs::nowNanos()), 0u);
    tm::run(attr, [](tm::TxDesc &) {});
    obs::tail::PendingTrace p = obs::tail::endRequest();
    ASSERT_NE(p, nullptr);
    obs::tail::finishRequest(std::move(p), obs::nowNanos());

    int begins = 0;
    int commits = 0;
    for (const std::string &line : dumpLines()) {
        if (field(line, "site") != attr.name)
            continue;
        begins += line.find(" tx_begin ") != std::string::npos;
        commits += line.find(" tx_commit ") != std::string::npos;
    }
    EXPECT_EQ(begins, 1) << obs::dumpTrace();
    EXPECT_EQ(commits, 1) << obs::dumpTrace();

    const auto snap = obs::tail::snapshotTail();
    ASSERT_EQ(snap.size(), 1u);
    int tx_spans = 0;
    for (const obs::tail::Span &s : snap[0]->spans) {
        if (s.kind != obs::tail::SpanKind::Tx)
            continue;
        ++tx_spans;
        EXPECT_STREQ(s.site, attr.name);
        EXPECT_EQ(s.outcome, obs::tail::TxOutcome::Commit);
    }
    EXPECT_EQ(tx_spans, 1);
}

} // namespace
