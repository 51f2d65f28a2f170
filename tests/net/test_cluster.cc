/**
 * @file
 * net::Cluster: ring placement, R=2 replication, replica failover,
 * ejection/probation health tracking, read-repair, fault-injected
 * partitions and slow nodes, the `stats cluster` render, and the
 * kill-a-node chaos case checked with the Wing & Gong linearizability
 * checker (lost-reply writes recorded as indeterminate ops).
 *
 * Three real servers run in-process on ephemeral loopback ports; a
 * "killed" node is its Server stopped and later restarted on the same
 * port with a **fresh, empty cache** — the in-process model of kill -9
 * losing all of a node's data (scripts/chaos_cluster.sh replays the
 * same scenario at process granularity).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../mc/lin_checker.h"
#include "common/fault.h"
#include "common/rng.h"
#include "mc/cache_iface.h"
#include "net/client.h"
#include "net/cluster.h"
#include "net/server.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;

// ----------------------------------------------------------------------
// Ring placement (no sockets involved)
// ----------------------------------------------------------------------

net::ClusterCfg
ringOnlyCfg(std::size_t n)
{
    net::ClusterCfg cfg;
    for (std::size_t i = 0; i < n; ++i)
        cfg.nodes.push_back(
            {"127.0.0.1", static_cast<std::uint16_t>(20000 + i)});
    return cfg;
}

TEST(ClusterRing, PlacementIsDeterministicAndBalanced)
{
    net::Cluster a(ringOnlyCfg(3));
    net::Cluster b(ringOnlyCfg(3));

    std::vector<std::size_t> primaries(3, 0);
    for (int i = 0; i < 1000; ++i) {
        const std::string key = "ring-key-" + std::to_string(i);
        const std::size_t p = a.primaryOf(key);
        EXPECT_EQ(p, b.primaryOf(key));  // Pure function of node list.
        ASSERT_LT(p, 3u);
        ++primaries[p];
    }
    // 64 virtual points per node: no node may own a degenerate share.
    for (std::size_t n = 0; n < 3; ++n)
        EXPECT_GT(primaries[n], 100u) << "node " << n << " starved";
}

TEST(ClusterRing, OwnersAreDistinctPrimaryFirst)
{
    net::Cluster c(ringOnlyCfg(3));
    for (int i = 0; i < 200; ++i) {
        const std::string key = "owner-key-" + std::to_string(i);
        const std::vector<std::size_t> owners = c.ownersOf(key);
        ASSERT_EQ(owners.size(), 2u);
        EXPECT_EQ(owners[0], c.primaryOf(key));
        EXPECT_NE(owners[0], owners[1]);
    }
}

TEST(ClusterRing, ReplicaCountClampsToNodeCount)
{
    net::ClusterCfg cfg = ringOnlyCfg(2);
    cfg.replicas = 5;
    net::Cluster c(cfg);
    const std::vector<std::size_t> owners = c.ownersOf("any");
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_NE(owners[0], owners[1]);

    net::ClusterCfg solo = ringOnlyCfg(1);
    net::Cluster s(solo);
    EXPECT_EQ(s.ownersOf("any").size(), 1u);
}

// ----------------------------------------------------------------------
// Three live nodes on loopback
// ----------------------------------------------------------------------

class ClusterTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kNodes = 3;

    void
    SetUp() override
    {
        fault::disarmAll();
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        caches_.resize(kNodes);
        servers_.resize(kNodes);
        ports_.resize(kNodes, 0);
        for (std::size_t i = 0; i < kNodes; ++i)
            ASSERT_TRUE(startNode(i, 0));
    }

    void
    TearDown() override
    {
        fault::disarmAll();
        for (auto &server : servers_) {
            if (server != nullptr)
                server->stop();
        }
    }

    /** (Re)start node @p i; port 0 asks the kernel, otherwise rebinds
     *  the remembered port. Always a fresh cache: a restart models a
     *  kill -9 that lost the node's data. */
    bool
    startNode(std::size_t i, std::uint16_t port)
    {
        mc::Settings settings;
        settings.maxBytes = 32 * 1024 * 1024;
        caches_[i] = mc::makeCache("IP-onCommit", settings, 2);
        if (caches_[i] == nullptr)
            return false;
        net::ServerCfg scfg;
        scfg.port = port;
        scfg.workers = 2;
        // The previous incarnation's listener may still be in
        // TIME_WAIT; SO_REUSEADDR plus a couple of retries covers it.
        for (int attempt = 0; attempt < 20; ++attempt) {
            servers_[i] =
                std::make_unique<net::Server>(*caches_[i], scfg);
            if (servers_[i]->start()) {
                ports_[i] = servers_[i]->port();
                return true;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return false;
    }

    void
    stopNode(std::size_t i)
    {
        servers_[i]->stop();
    }

    /** Fast-failure tuning so ejection/backoff paths run in
     *  milliseconds: maxRetries=1 and ejectAfter=2 mean one op
     *  against a dead node (2 attempts) ejects it. */
    net::ClusterCfg
    liveCfg() const
    {
        net::ClusterCfg cfg;
        for (std::size_t i = 0; i < kNodes; ++i)
            cfg.nodes.push_back({"127.0.0.1", ports_[i]});
        cfg.replicas = 2;
        cfg.nodeTimeoutMs = 200;
        cfg.requestDeadlineMs = 2000;
        cfg.maxRetries = 1;
        cfg.backoffBaseMs = 1;
        cfg.backoffCapMs = 4;
        cfg.ejectAfter = 2;
        cfg.probeIntervalMs = 50;
        return cfg;
    }

    /** A key whose primary copy lives on node @p idx. */
    static std::string
    keyOwnedBy(const net::Cluster &c, std::size_t idx)
    {
        for (int i = 0; i < 10000; ++i) {
            const std::string key = "pin" + std::to_string(i);
            if (c.primaryOf(key) == idx)
                return key;
        }
        ADD_FAILURE() << "no key maps to node " << idx;
        return "pin0";
    }

    /** Direct (non-cluster) lookup against one node's server. */
    std::string
    directGet(std::size_t idx, const std::string &key)
    {
        net::Client c;
        EXPECT_TRUE(c.connect("127.0.0.1", ports_[idx], 2000));
        c.setRecvTimeout(5000);
        return c.roundTripAscii("get " + key + "\r\n");
    }

    std::vector<std::unique_ptr<mc::CacheIface>> caches_;
    std::vector<std::unique_ptr<net::Server>> servers_;
    std::vector<std::uint16_t> ports_;
};

TEST_F(ClusterTest, SetGetDelRoundTrip)
{
    net::Cluster c(liveCfg());
    net::ClusterResult r = c.set("alpha", "12345");
    EXPECT_EQ(r.status, net::ClusterStatus::Ok);
    EXPECT_FALSE(r.degraded);

    r = c.get("alpha");
    ASSERT_EQ(r.status, net::ClusterStatus::Ok);
    EXPECT_EQ(r.value, "12345");
    EXPECT_FALSE(r.fromReplica);

    EXPECT_EQ(c.del("alpha").status, net::ClusterStatus::Ok);
    EXPECT_EQ(c.get("alpha").status, net::ClusterStatus::Miss);
    EXPECT_EQ(c.get("never-stored").status, net::ClusterStatus::Miss);

    const net::ClusterStats s = c.stats();
    EXPECT_GE(s.requests, 5u);
    EXPECT_EQ(s.ejections, 0u);
    EXPECT_EQ(s.failovers, 0u);
}

TEST_F(ClusterTest, WritesLandOnBothOwners)
{
    net::Cluster c(liveCfg());
    ASSERT_EQ(c.set("repl", "777").status, net::ClusterStatus::Ok);

    const std::vector<std::size_t> owners = c.ownersOf("repl");
    ASSERT_EQ(owners.size(), 2u);
    const std::string want = "VALUE repl 0 3\r\n777\r\nEND\r\n";
    EXPECT_EQ(directGet(owners[0], "repl"), want);
    EXPECT_EQ(directGet(owners[1], "repl"), want);
    // The third node holds no copy.
    for (std::size_t i = 0; i < kNodes; ++i) {
        if (i != owners[0] && i != owners[1])
            EXPECT_EQ(directGet(i, "repl"), "END\r\n");
    }
}

TEST_F(ClusterTest, GetFailsOverToReplicaWhenPrimaryDies)
{
    net::Cluster c(liveCfg());
    const std::string key = keyOwnedBy(c, 0);
    ASSERT_EQ(c.set(key, "42").status, net::ClusterStatus::Ok);

    stopNode(0);
    const net::ClusterResult r = c.get(key);
    ASSERT_EQ(r.status, net::ClusterStatus::Ok);
    EXPECT_EQ(r.value, "42");
    EXPECT_TRUE(r.fromReplica);

    const net::ClusterStats s = c.stats();
    EXPECT_GE(s.failovers, 1u);
    EXPECT_GE(s.net_errors, 1u);
}

TEST_F(ClusterTest, DegradedWriteAcksOnSingleCopy)
{
    net::Cluster c(liveCfg());
    const std::string key = keyOwnedBy(c, 1);
    const std::vector<std::size_t> owners = c.ownersOf(key);
    ASSERT_EQ(owners.size(), 2u);

    // Kill the replica owner: the primary still acks, flagged
    // degraded and counted as replica lag.
    stopNode(owners[1]);
    const net::ClusterResult r = c.set(key, "9");
    ASSERT_EQ(r.status, net::ClusterStatus::Ok);
    EXPECT_TRUE(r.degraded);
    EXPECT_GE(c.stats().replica_lag, 1u);

    // And the value is durable where it landed.
    const net::ClusterResult back = c.get(key);
    ASSERT_EQ(back.status, net::ClusterStatus::Ok);
    EXPECT_EQ(back.value, "9");
}

TEST_F(ClusterTest, EjectionThenProbationReadmission)
{
    net::Cluster c(liveCfg());
    const std::string key = keyOwnedBy(c, 2);
    ASSERT_EQ(c.set(key, "1").status, net::ClusterStatus::Ok);

    stopNode(2);
    // One op = maxRetries+1 = 2 consecutive failures = ejection.
    EXPECT_EQ(c.get(key).status, net::ClusterStatus::Ok);
    EXPECT_FALSE(c.nodeHealthy(2));
    EXPECT_GE(c.stats().ejections, 1u);

    // While ejected, ops route straight to the replica without
    // burning the dead node's timeout (beyond rate-limited probes).
    EXPECT_TRUE(c.get(key).fromReplica);

    // Restart on the same port; the next op after the probe interval
    // probes and re-admits it.
    ASSERT_TRUE(startNode(2, ports_[2]));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    bool healthy = false;
    for (int i = 0; i < 100 && !healthy; ++i) {
        (void)c.get(key);
        healthy = c.nodeHealthy(2);
        if (!healthy)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(healthy);
    const net::ClusterStats s = c.stats();
    EXPECT_GE(s.probes, 1u);
    EXPECT_GE(s.readmissions, 1u);
}

TEST_F(ClusterTest, ReadRepairRestoresAnEmptyRestartedPrimary)
{
    net::Cluster c(liveCfg());
    const std::string key = keyOwnedBy(c, 0);
    ASSERT_EQ(c.set(key, "31337").status, net::ClusterStatus::Ok);

    // Kill and restart the primary with a fresh cache: its copy is
    // gone, the replica's survives.
    stopNode(0);
    ASSERT_TRUE(startNode(0, ports_[0]));
    EXPECT_EQ(directGet(0, key), "END\r\n");

    // The primary answers MISS; the cluster double-checks the
    // replica, serves the hit, and repairs the primary with `add`.
    const net::ClusterResult r = c.get(key);
    ASSERT_EQ(r.status, net::ClusterStatus::Ok);
    EXPECT_EQ(r.value, "31337");
    EXPECT_TRUE(r.fromReplica);
    EXPECT_GE(c.stats().read_repairs, 1u);
    EXPECT_EQ(directGet(0, key),
              "VALUE " + key + " 0 5\r\n31337\r\nEND\r\n");

    // Subsequent reads come from the repaired primary again.
    const net::ClusterResult again = c.get(key);
    ASSERT_EQ(again.status, net::ClusterStatus::Ok);
    EXPECT_FALSE(again.fromReplica);
}

TEST_F(ClusterTest, PartitionFaultSiteEjectsAndHealsWithoutSockets)
{
    net::Cluster c(liveCfg());
    const std::string key = keyOwnedBy(c, 0);
    ASSERT_EQ(c.set(key, "5").status, net::ClusterStatus::Ok);

    {
        // Partition node 0: every attempt fails with EHOSTUNREACH
        // before any socket is touched (the server stays up).
        fault::Policy p;
        p.trigger = fault::Trigger::EveryNth;
        p.n = 1;
        p.errnoValue = EHOSTUNREACH;
        fault::ScopedFault part("net.cluster.node.0", p);

        const net::ClusterResult r = c.get(key);
        ASSERT_EQ(r.status, net::ClusterStatus::Ok);
        EXPECT_EQ(r.value, "5");
        EXPECT_TRUE(r.fromReplica);
        EXPECT_FALSE(c.nodeHealthy(0));
        // Writes during the partition still ack on the replica.
        EXPECT_EQ(c.set(key, "6").status, net::ClusterStatus::Ok);
    }

    // Partition healed: the probe re-admits node 0.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    bool healthy = false;
    for (int i = 0; i < 100 && !healthy; ++i) {
        (void)c.get(key);
        healthy = c.nodeHealthy(0);
        if (!healthy)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(healthy);
    EXPECT_GE(c.stats().readmissions, 1u);
}

TEST_F(ClusterTest, DelayInjectedSlowNodeStillCompletes)
{
    net::Cluster c(liveCfg());
    const std::string key = keyOwnedBy(c, 1);
    ASSERT_EQ(c.set(key, "88").status, net::ClusterStatus::Ok);

    // A bare delay payload models a slow node, not a dead one: the
    // attempt proceeds after the stall and must still succeed.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.delayUs = 30000;
    fault::ScopedFault slow("net.cluster.node.1", p);

    const auto t0 = std::chrono::steady_clock::now();
    const net::ClusterResult r = c.get(key);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_EQ(r.status, net::ClusterStatus::Ok);
    EXPECT_EQ(r.value, "88");
    EXPECT_FALSE(r.fromReplica);
    EXPECT_GE(elapsed, 30000);
    EXPECT_TRUE(c.nodeHealthy(1));  // Slow is not dead.
}

TEST_F(ClusterTest, ConcurrentSetsOfOneKeyLeaveOwnersAgreeing)
{
    // Thread A's write to the replica stalls on a one-shot delay while
    // thread B sets the same key. Unless same-key writes are ordered,
    // B lands on both owners during the stall and A's late replica
    // write then leaves the two owners holding different values.
    net::Cluster c(liveCfg());
    const std::string key = keyOwnedBy(c, 0);
    const std::vector<std::size_t> owners = c.ownersOf(key);
    ASSERT_EQ(owners.size(), 2u);

    fault::Policy p;
    p.trigger = fault::Trigger::OneShot;
    p.delayUs = 300000;
    fault::ScopedFault slow("net.cluster.node." + std::to_string(owners[1]),
                            p);

    std::thread a([&] {
        EXPECT_EQ(c.set(key, "a").status, net::ClusterStatus::Ok);
    });
    // A has written the primary and is now stalled before the replica.
    const std::string a_on_primary = "VALUE " + key + " 0 1\r\na\r\nEND\r\n";
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (directGet(owners[0], key) != a_on_primary &&
           std::chrono::steady_clock::now() < limit)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::thread b([&] {
        EXPECT_EQ(c.set(key, "b").status, net::ClusterStatus::Ok);
    });
    b.join();
    a.join();
    EXPECT_EQ(slow.firedCount(), 1u);
    EXPECT_EQ(directGet(owners[0], key), directGet(owners[1], key));
}

TEST_F(ClusterTest, StatsClusterRendersThroughAnyServer)
{
    net::Cluster c(liveCfg());
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(c.set("sk" + std::to_string(i), "1").status,
                  net::ClusterStatus::Ok);

    // The cluster registers its counters with the process-wide
    // metrics registry, so `stats cluster` works through any server
    // sharing the process.
    net::Client cli;
    ASSERT_TRUE(cli.connect("127.0.0.1", ports_[0], 2000));
    cli.setRecvTimeout(5000);
    const std::string reply = cli.roundTripAscii("stats cluster\r\n");
    EXPECT_NE(reply.find("STAT cluster_requests "), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("STAT cluster_ejections 0"), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("END\r\n"), std::string::npos) << reply;

    // The row values are live: requests grew past the op count.
    const std::size_t pos = reply.find("STAT cluster_requests ");
    const std::uint64_t requests = std::strtoull(
        reply.c_str() + pos + sizeof("STAT cluster_requests ") - 1,
        nullptr, 10);
    EXPECT_GE(requests, 8u);
}

// ----------------------------------------------------------------------
// The kill-a-node chaos case, checked for linearizability
// ----------------------------------------------------------------------

TEST_F(ClusterTest, ChaosKillANodeKeepsAckedUpdatesAndReadmits)
{
    using lintest::Op;
    using lintest::OpKind;

    net::ClusterCfg cfg = liveCfg();
    net::Cluster c(cfg);

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kOpsPerPhase = 120;
    constexpr std::size_t kKeys = 96;

    lintest::HistoryRecorder rec;
    std::vector<std::vector<Op>> perThread(kThreads);
    std::atomic<std::uint64_t> valueSeq{1};

    // One phase of mixed 50/50 set/get traffic on one thread.
    // Replies lost to the kill (NetFail / ProtoError on a write) are
    // recorded indeterminate: the checker lets them take effect at
    // any point after invoke, or never — an *acked* write, by
    // contrast, must be durable, and a stale or missing read of one
    // fails the check.
    auto runPhase = [&](std::size_t tid, std::uint64_t phase) {
        XorShift128 rng(0x9e3779b9u * (tid + 1) + phase);
        std::vector<Op> &hist = perThread[tid];
        for (std::size_t i = 0; i < kOpsPerPhase; ++i) {
            const std::string key =
                "ck" + std::to_string(rng.nextBounded(kKeys));
            Op op;
            op.key = key;
            if (rng.nextBounded(2) == 0) {
                op.kind = OpKind::Set;
                op.arg = valueSeq.fetch_add(1);
                op.invoke = rec.stamp();
                const net::ClusterResult r =
                    c.set(key, std::to_string(op.arg));
                if (r.status == net::ClusterStatus::Ok) {
                    op.ret = rec.stamp();
                    op.status = mc::OpStatus::Ok;
                } else {
                    op.ret = lintest::kNeverReturned;
                    op.indeterminate = true;
                }
                hist.push_back(op);
            } else {
                op.kind = OpKind::Get;
                op.invoke = rec.stamp();
                const net::ClusterResult r = c.get(key);
                op.ret = rec.stamp();
                if (r.status == net::ClusterStatus::Ok) {
                    op.status = mc::OpStatus::Ok;
                    op.out = r.value;
                } else if (r.status == net::ClusterStatus::Miss) {
                    op.status = mc::OpStatus::Miss;
                } else {
                    continue;  // A lost get has no effect: drop it.
                }
                hist.push_back(op);
            }
        }
    };

    auto runAll = [&](std::uint64_t phase) {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t, phase] { runPhase(t, phase); });
        for (std::thread &th : threads)
            th.join();
    };

    // Phase 1: healthy cluster.
    runAll(1);

    // Kill node 1 (takes its data with it), run degraded traffic.
    stopNode(1);
    runAll(2);
    EXPECT_FALSE(c.nodeHealthy(1));
    EXPECT_GE(c.stats().ejections, 1u);

    // Restart it empty on the same port; after the probe interval the
    // traffic itself re-admits it.
    ASSERT_TRUE(startNode(1, ports_[1]));
    std::this_thread::sleep_for(
        std::chrono::milliseconds(cfg.probeIntervalMs + 20));
    runAll(3);

    bool healthy = c.nodeHealthy(1);
    for (int i = 0; i < 100 && !healthy; ++i) {
        (void)c.get("ck" + std::to_string(i % kKeys));
        healthy = c.nodeHealthy(1);
        if (!healthy)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(healthy) << "restarted node never re-admitted";
    EXPECT_GE(c.stats().readmissions, 1u);

    // Final read-back: every key read once more, sequentially — any
    // acked update the kill destroyed shows up as a stale value or a
    // phantom miss here at the latest.
    std::vector<Op> history;
    for (std::vector<Op> &h : perThread)
        history.insert(history.end(), h.begin(), h.end());
    for (std::size_t k = 0; k < kKeys; ++k) {
        Op op;
        op.kind = OpKind::Get;
        op.key = "ck" + std::to_string(k);
        op.invoke = rec.stamp();
        const net::ClusterResult r = c.get(op.key);
        op.ret = rec.stamp();
        if (r.status == net::ClusterStatus::Ok) {
            op.status = mc::OpStatus::Ok;
            op.out = r.value;
        } else if (r.status == net::ClusterStatus::Miss) {
            op.status = mc::OpStatus::Miss;
        } else {
            continue;
        }
        history.push_back(op);
    }

    EXPECT_TRUE(lintest::linearizable(history))
        << "acked update lost or stale read after node kill";
}

} // namespace
