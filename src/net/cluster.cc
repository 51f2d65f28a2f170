/**
 * @file
 * Cluster client implementation. Protocol details live here: requests
 * are ASCII (the framing net::Client already understands), replies
 * are parsed by first token. See cluster.h for the design rationale.
 */

#include "net/cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "mc/hash.h"
#include "obs/metrics.h"

namespace tmemc::net
{

namespace
{

/** Monotonic milliseconds for deadlines and probe spacing. */
std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Pooled connections kept per node; extras are dropped on release. */
constexpr std::size_t kMaxIdlePerNode = 8;

/** "set"/"add" request: <verb> <key> 0 0 <bytes>\r\n<value>\r\n */
std::string
storeRequest(const char *verb, const std::string &key,
             const std::string &value)
{
    std::string req = verb;
    req += ' ';
    req += key;
    req += " 0 0 ";
    req += std::to_string(value.size());
    req += "\r\n";
    req += value;
    req += "\r\n";
    return req;
}

} // namespace

Cluster::Cluster(ClusterCfg cfg)
    : cfg_(std::move(cfg))
{
    if (cfg_.nodes.empty())
        panic("Cluster requires at least one node");
    if (cfg_.replicas == 0)
        cfg_.replicas = 1;
    cfg_.replicas = std::min<unsigned>(
        cfg_.replicas, static_cast<unsigned>(cfg_.nodes.size()));
    if (cfg_.virtualNodes == 0)
        cfg_.virtualNodes = 1;

    nodes_.reserve(cfg_.nodes.size());
    for (std::size_t i = 0; i < cfg_.nodes.size(); ++i) {
        auto node = std::make_unique<Node>();
        node->ep = cfg_.nodes[i];
        node->faultSite = "net.cluster.node." + std::to_string(i);
        nodes_.push_back(std::move(node));
    }

    // Ring points: hash "host:port#v" with the key hash, so placement
    // is a pure function of the node list — any client configured with
    // the same nodes computes the same ring.
    ring_.reserve(cfg_.nodes.size() * cfg_.virtualNodes);
    for (std::size_t i = 0; i < cfg_.nodes.size(); ++i) {
        const std::string base =
            cfg_.nodes[i].host + ":" + std::to_string(cfg_.nodes[i].port);
        for (unsigned v = 0; v < cfg_.virtualNodes; ++v) {
            const std::string point = base + "#" + std::to_string(v);
            ring_.emplace_back(mc::hashKey(point.data(), point.size()),
                               static_cast<std::uint32_t>(i));
        }
    }
    std::sort(ring_.begin(), ring_.end());

    metricsToken_ = obs::MetricsRegistry::get().registerSource(
        "cluster", [this]() {
            const ClusterStats s = stats();
            return std::vector<obs::Counter>{
                {"requests", s.requests},
                {"retries", s.retries},
                {"net_errors", s.net_errors},
                {"ejections", s.ejections},
                {"probes", s.probes},
                {"readmissions", s.readmissions},
                {"failovers", s.failovers},
                {"read_repairs", s.read_repairs},
                {"replica_lag", s.replica_lag},
            };
        });
}

Cluster::~Cluster()
{
    obs::MetricsRegistry::get().unregisterSource(metricsToken_);
}

std::vector<std::size_t>
Cluster::ownersOf(const std::string &key) const
{
    const std::uint32_t h = mc::hashKey(key.data(), key.size());
    std::vector<std::size_t> owners;
    owners.reserve(cfg_.replicas);
    // First ring point clockwise of the key's hash, then walk forward
    // (wrapping) collecting distinct nodes until R owners are found.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(h, std::uint32_t{0}),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    for (std::size_t step = 0;
         step < ring_.size() && owners.size() < cfg_.replicas; ++step) {
        if (it == ring_.end())
            it = ring_.begin();
        const std::size_t idx = it->second;
        if (std::find(owners.begin(), owners.end(), idx) ==
            owners.end())
            owners.push_back(idx);
        ++it;
    }
    return owners;
}

std::size_t
Cluster::primaryOf(const std::string &key) const
{
    return ownersOf(key).front();
}

bool
Cluster::nodeHealthy(std::size_t idx) const
{
    Node &node = *nodes_[idx];
    std::lock_guard<std::mutex> guard(node.mu);
    return !node.ejected;
}

ClusterStats
Cluster::stats() const
{
    ClusterStats s;
    s.requests = stats_.requests.load(std::memory_order_relaxed);
    s.retries = stats_.retries.load(std::memory_order_relaxed);
    s.net_errors = stats_.netErrors.load(std::memory_order_relaxed);
    s.ejections = stats_.ejections.load(std::memory_order_relaxed);
    s.probes = stats_.probes.load(std::memory_order_relaxed);
    s.readmissions =
        stats_.readmissions.load(std::memory_order_relaxed);
    s.failovers = stats_.failovers.load(std::memory_order_relaxed);
    s.read_repairs =
        stats_.readRepairs.load(std::memory_order_relaxed);
    s.replica_lag =
        stats_.replicaLag.load(std::memory_order_relaxed);
    return s;
}

std::unique_ptr<Client>
Cluster::acquire(Node &node)
{
    {
        std::lock_guard<std::mutex> guard(node.mu);
        if (!node.idle.empty()) {
            auto cli = std::move(node.idle.back());
            node.idle.pop_back();
            return cli;
        }
    }
    auto cli = std::make_unique<Client>();
    cli->setRecvTimeout(cfg_.nodeTimeoutMs);
    return cli;
}

void
Cluster::release(Node &node, std::unique_ptr<Client> cli)
{
    if (!cli || !cli->isConnected())
        return;  // Dead connections are not pooled.
    std::lock_guard<std::mutex> guard(node.mu);
    if (node.idle.size() < kMaxIdlePerNode)
        node.idle.push_back(std::move(cli));
}

Cluster::NodeOp
Cluster::nodeRoundTrip(std::size_t idx, const std::string &request,
                       std::string *valueOut)
{
    Node &node = *nodes_[idx];

    // Per-node fault schedule: an errno payload models a partition to
    // this node, a bare delayUs payload a slow node (proceed after the
    // stall — the caller's deadline accounts for the lost time).
    if (fault::enabled()) {
        const fault::Action a = fault::consult(node.faultSite.c_str());
        if (a.fire) {
            fault::maybeDelay(a);
            if (a.errnoValue != 0) {
                stats_.netErrors.fetch_add(1,
                                           std::memory_order_relaxed);
                return NodeOp::NetFail;
            }
        }
    }

    auto cli = acquire(node);
    if (!cli->isConnected() &&
        !cli->connect(node.ep.host, node.ep.port,
                      cfg_.nodeTimeoutMs)) {
        stats_.netErrors.fetch_add(1, std::memory_order_relaxed);
        return NodeOp::NetFail;
    }
    if (!cli->sendAll(request)) {
        // A pooled connection may have died idle (server restart);
        // one immediate re-dial distinguishes that from a down node.
        if (!cli->ensureConnected(cfg_.nodeTimeoutMs) ||
            !cli->sendAll(request)) {
            stats_.netErrors.fetch_add(1, std::memory_order_relaxed);
            return NodeOp::NetFail;
        }
    }
    std::string reply;
    if (!cli->recvAscii(reply)) {
        // Timeout or mid-reply failure: the stream may be desynced
        // (a late reply would be misattributed), so drop the socket.
        cli->close();
        stats_.netErrors.fetch_add(1, std::memory_order_relaxed);
        return NodeOp::NetFail;
    }
    release(node, std::move(cli));

    // Classify the reply by first token.
    if (reply.rfind("STORED", 0) == 0 ||
        reply.rfind("DELETED", 0) == 0 ||
        reply.rfind("VERSION", 0) == 0)
        return NodeOp::Ok;
    if (reply.rfind("NOT_STORED", 0) == 0)
        return NodeOp::NotStored;
    if (reply.rfind("NOT_FOUND", 0) == 0 ||
        reply.rfind("END", 0) == 0)
        return NodeOp::Miss;
    if (reply.rfind("VALUE ", 0) == 0) {
        // VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n
        const std::size_t eol = reply.find("\r\n");
        if (eol == std::string::npos)
            return NodeOp::ProtoError;
        const std::size_t lastSp = reply.rfind(' ', eol);
        if (lastSp == std::string::npos)
            return NodeOp::ProtoError;
        const unsigned long long bytes = std::strtoull(
            reply.c_str() + lastSp + 1, nullptr, 10);
        if (eol + 2 + bytes > reply.size())
            return NodeOp::ProtoError;
        if (valueOut != nullptr)
            valueOut->assign(reply, eol + 2, bytes);
        return NodeOp::Ok;
    }
    return NodeOp::ProtoError;
}

std::uint64_t
Cluster::backoffSleepMs(unsigned attempt)
{
    // Capped exponential window with deterministic jitter: the n-th
    // retry sleeps uniformly in [0, min(base << n, cap)], drawn from
    // a sequence counter so concurrent retries decorrelate without
    // shared PRNG state.
    std::uint64_t window = cfg_.backoffBaseMs;
    for (unsigned i = 0; i < attempt && window < cfg_.backoffCapMs;
         ++i)
        window <<= 1;
    window = std::min<std::uint64_t>(window, cfg_.backoffCapMs);
    if (window == 0)
        return 0;
    XorShift128 rng(cfg_.seed ^
                    (jitterSeq_.fetch_add(1,
                                          std::memory_order_relaxed) +
                     0x9e3779b97f4a7c15ull));
    return rng.nextBounded(window + 1);
}

void
Cluster::recordSuccess(std::size_t idx)
{
    Node &node = *nodes_[idx];
    std::lock_guard<std::mutex> guard(node.mu);
    node.consecutiveFailures = 0;
    if (node.ejected) {
        // A real request got through: that is as good as a probe.
        node.ejected = false;
        stats_.readmissions.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Cluster::recordFailure(std::size_t idx)
{
    Node &node = *nodes_[idx];
    std::lock_guard<std::mutex> guard(node.mu);
    ++node.consecutiveFailures;
    if (!node.ejected &&
        node.consecutiveFailures >= cfg_.ejectAfter) {
        node.ejected = true;
        node.lastProbeMs = nowMs();  // Probes start one interval out.
        stats_.ejections.fetch_add(1, std::memory_order_relaxed);
    }
}

bool
Cluster::maybeProbe(std::size_t idx)
{
    Node &node = *nodes_[idx];
    {
        std::lock_guard<std::mutex> guard(node.mu);
        if (!node.ejected)
            return true;
        const std::uint64_t now = nowMs();
        if (now - node.lastProbeMs < cfg_.probeIntervalMs)
            return false;  // Not due; caller skips the ejected node.
        node.lastProbeMs = now;  // Reserve this probe slot.
    }
    stats_.probes.fetch_add(1, std::memory_order_relaxed);
    if (nodeRoundTrip(idx, "version\r\n", nullptr) == NodeOp::Ok) {
        std::lock_guard<std::mutex> guard(node.mu);
        node.consecutiveFailures = 0;
        if (node.ejected) {
            node.ejected = false;
            stats_.readmissions.fetch_add(1,
                                          std::memory_order_relaxed);
        }
        return true;
    }
    return false;
}

Cluster::NodeOp
Cluster::attemptOp(std::size_t idx, const std::string &request,
                   std::string *valueOut, std::uint64_t deadlineMs)
{
    for (unsigned attempt = 0; attempt <= cfg_.maxRetries; ++attempt) {
        if (nowMs() >= deadlineMs)
            return NodeOp::NetFail;
        if (!nodeHealthy(idx) && !maybeProbe(idx))
            return NodeOp::NetFail;  // Ejected, probe not due/failed.
        const NodeOp st = nodeRoundTrip(idx, request, valueOut);
        if (st != NodeOp::NetFail) {
            recordSuccess(idx);
            return st;
        }
        recordFailure(idx);
        if (attempt < cfg_.maxRetries) {
            stats_.retries.fetch_add(1, std::memory_order_relaxed);
            const std::uint64_t sleepMs = backoffSleepMs(attempt);
            const std::uint64_t now = nowMs();
            if (now + sleepMs >= deadlineMs)
                return NodeOp::NetFail;  // Budget exhausted.
            if (sleepMs > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleepMs));
        }
    }
    return NodeOp::NetFail;
}

std::mutex &
Cluster::writeStripe(const std::string &key)
{
    return writeStripes_[mc::hashKey(key.data(), key.size()) %
                         writeStripes_.size()];
}

ClusterResult
Cluster::set(const std::string &key, const std::string &value)
{
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    // The deadline starts once the stripe is held: it bounds this
    // write's own network work, not its wait behind an earlier one.
    std::lock_guard<std::mutex> ordered(writeStripe(key));
    const std::uint64_t deadline = nowMs() + cfg_.requestDeadlineMs;
    const std::vector<std::size_t> owners = ownersOf(key);
    const std::string req = storeRequest("set", key, value);

    // Write-through fan-out: an ack promises at least one persisted
    // copy. Both-copy acks are the steady state; a single-copy ack is
    // legal (that copy survives any single-node kill) and counted.
    std::size_t okCount = 0;
    bool primaryOk = false;
    for (std::size_t i = 0; i < owners.size(); ++i) {
        if (attemptOp(owners[i], req, nullptr, deadline) ==
            NodeOp::Ok) {
            ++okCount;
            if (i == 0)
                primaryOk = true;
        }
    }
    ClusterResult res;
    if (okCount == 0) {
        res.status = ClusterStatus::NetFail;
        return res;
    }
    res.status = ClusterStatus::Ok;
    res.degraded = okCount < owners.size();
    if (res.degraded)
        stats_.replicaLag.fetch_add(1, std::memory_order_relaxed);
    if (!primaryOk)
        stats_.failovers.fetch_add(1, std::memory_order_relaxed);
    return res;
}

ClusterResult
Cluster::get(const std::string &key)
{
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t deadline = nowMs() + cfg_.requestDeadlineMs;
    const std::vector<std::size_t> owners = ownersOf(key);
    const std::string req = "get " + key + "\r\n";

    ClusterResult res;
    std::string primaryVal;
    const NodeOp pSt =
        attemptOp(owners[0], req, &primaryVal, deadline);
    if (pSt == NodeOp::Ok) {
        res.status = ClusterStatus::Ok;
        res.value = std::move(primaryVal);
        return res;
    }
    if (owners.size() < 2) {
        res.status = pSt == NodeOp::Miss ? ClusterStatus::Miss
                                         : ClusterStatus::NetFail;
        return res;
    }

    // Primary unreachable (failover) or empty (possibly a restarted
    // node that lost its memory): consult the replica before
    // reporting a miss.
    if (pSt == NodeOp::NetFail)
        stats_.failovers.fetch_add(1, std::memory_order_relaxed);
    std::string replicaVal;
    const NodeOp rSt =
        attemptOp(owners[1], req, &replicaVal, deadline);
    if (rSt == NodeOp::Ok) {
        if (pSt == NodeOp::Miss) {
            // Repair with add, never set: if the primary has gained a
            // (newer) value since our miss, the repair must lose.
            const std::string repair =
                storeRequest("add", key, replicaVal);
            if (attemptOp(owners[0], repair, nullptr, deadline) !=
                NodeOp::NetFail)
                stats_.readRepairs.fetch_add(
                    1, std::memory_order_relaxed);
        }
        res.status = ClusterStatus::Ok;
        res.value = std::move(replicaVal);
        res.fromReplica = true;
        return res;
    }
    if (pSt == NodeOp::Miss || rSt == NodeOp::Miss) {
        res.status = ClusterStatus::Miss;
        return res;
    }
    res.status = pSt == NodeOp::ProtoError || rSt == NodeOp::ProtoError
                     ? ClusterStatus::ProtoError
                     : ClusterStatus::NetFail;
    return res;
}

ClusterResult
Cluster::del(const std::string &key)
{
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> ordered(writeStripe(key));
    const std::uint64_t deadline = nowMs() + cfg_.requestDeadlineMs;
    const std::vector<std::size_t> owners = ownersOf(key);
    const std::string req = "delete " + key + "\r\n";

    bool anyOk = false;
    bool anyReached = false;
    for (const std::size_t idx : owners) {
        const NodeOp st = attemptOp(idx, req, nullptr, deadline);
        anyOk = anyOk || st == NodeOp::Ok;
        anyReached = anyReached || st != NodeOp::NetFail;
    }
    ClusterResult res;
    res.status = anyOk         ? ClusterStatus::Ok
                 : anyReached  ? ClusterStatus::Miss
                               : ClusterStatus::NetFail;
    return res;
}

} // namespace tmemc::net
