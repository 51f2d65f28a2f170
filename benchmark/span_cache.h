/**
 * @file
 * Benchmark-side tracing: a forwarding CacheIface that records one
 * span per cache call, and the fine-grained latency histogram the
 * load generator times round trips with.
 *
 * The spans sit at the layer boundary the benchmark can see without
 * changing the program: everything above the cache call (protocol
 * parse, event loop, sockets) is the net layer, everything inside it
 * is mc + tm. Spans stay in per-thread vectors until the run ends.
 */

#ifndef TMEMC_BENCHMARK_SPAN_CACHE_H
#define TMEMC_BENCHMARK_SPAN_CACHE_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "mc/cache_iface.h"
#include "obs/hist.h"

namespace tmemc::benchmark
{

/** Which kind of call a span covers. */
enum class SpanKind : std::uint8_t
{
    Get,      //!< A get that left nothing pinned.
    Pinned,   //!< A zero-copy get that pinned an item.
    Release,  //!< Dropping a pin after the reply was written.
    Store,
};

constexpr unsigned kSpanKinds = 4;

/** One timed call: [t0, t1) in obs::nowNanos() time. */
struct Span
{
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    SpanKind kind = SpanKind::Get;
};

/**
 * Log-linear histogram with 128 linear sub-buckets per octave (0.8%
 * relative resolution); quantiles interpolate inside a bucket, so two
 * runs never report the same bucket edge by construction. Small and
 * fixed-size (32 KB), so in-process runs add the same few MB of
 * resident memory every time.
 */
class LatencyHist
{
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr unsigned kSub = 1u << kSubBits;
    static constexpr unsigned kOctaves = 37 - kSubBits + 1;
    static constexpr std::size_t kBuckets = std::size_t{kOctaves} * kSub;

    void
    record(std::uint64_t ns)
    {
        ++counts_[bucketOf(ns)];
        ++n_;
    }

    void
    merge(const LatencyHist &o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            counts_[i] += o.counts_[i];
        n_ += o.n_;
    }

    /** Value at quantile @p q, in microseconds (0 when empty). */
    double
    quantileUs(double q) const
    {
        if (n_ == 0)
            return 0.0;
        const double want = q * static_cast<double>(n_ - 1);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            const std::uint64_t c = counts_[i];
            if (c == 0 || static_cast<double>(seen + c) <= want) {
                seen += c;
                continue;
            }
            const double frac =
                (want - static_cast<double>(seen) + 0.5) /
                static_cast<double>(c);
            const double ns =
                static_cast<double>(low(static_cast<unsigned>(i))) +
                frac * static_cast<double>(width(static_cast<unsigned>(i)));
            return ns / 1000.0;
        }
        return 0.0;
    }

  private:
    static unsigned
    bucketOf(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<unsigned>(v);
        if (v > obs::kMaxTrackable)
            v = obs::kMaxTrackable;
        const unsigned msb =
            63u - static_cast<unsigned>(std::countl_zero(v));
        const unsigned shift = msb - kSubBits;
        return (shift + 1) * kSub +
               static_cast<unsigned>((v >> shift) - kSub);
    }

    static std::uint64_t
    low(unsigned idx)
    {
        if (idx < kSub)
            return idx;
        const unsigned shift = idx / kSub - 1;
        return (std::uint64_t{kSub} + idx % kSub) << shift;
    }

    static std::uint64_t
    width(unsigned idx)
    {
        return idx < kSub ? 1 : std::uint64_t{1} << (idx / kSub - 1);
    }

    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
    std::uint64_t n_ = 0;
};

/**
 * Quantile of an obs::HistCounts (the program's own histograms),
 * interpolated inside the bucket instead of reading its midpoint.
 */
inline double
histQuantileUs(const obs::HistCounts &h, double q)
{
    if (h.count == 0)
        return 0.0;
    const double want = q * static_cast<double>(h.count - 1);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < obs::kNumBuckets; ++i) {
        const std::uint64_t c = h.buckets[i];
        if (c == 0 || static_cast<double>(seen + c) <= want) {
            seen += c;
            continue;
        }
        const std::uint64_t lo = obs::bucketLow(i);
        const std::uint64_t hi =
            i + 1 < obs::kNumBuckets ? obs::bucketLow(i + 1) : lo + 1;
        const double frac =
            (want - static_cast<double>(seen) + 0.5) /
            static_cast<double>(c);
        return (static_cast<double>(lo) +
                frac * static_cast<double>(hi - lo)) /
               1000.0;
    }
    return 0.0;
}

/** Total of an obs::HistCounts in nanoseconds, from bucket midpoints. */
inline double
histSumNs(const obs::HistCounts &h)
{
    double sum = 0.0;
    for (unsigned i = 0; i < obs::kNumBuckets; ++i) {
        if (h.buckets[i] != 0)
            sum += static_cast<double>(h.buckets[i]) *
                   static_cast<double>(obs::bucketMid(i));
    }
    return sum;
}

/**
 * Forwarding cache that spans every call into the wrapped cache. Each
 * calling tid owns one span vector, so recording is single-writer;
 * the owner reads the vectors only after the callers are joined.
 * Recording is off until arm(), so a preload leaves no spans.
 */
class SpanCache final : public mc::CacheIface
{
  public:
    SpanCache(mc::CacheIface &inner, std::uint32_t tids)
        : inner_(inner), spans_(tids)
    {
        for (auto &v : spans_)
            v.reserve(1u << 20);
    }

    SpanCache(const SpanCache &) = delete;
    SpanCache &operator=(const SpanCache &) = delete;

    void arm() { armed_.store(true, std::memory_order_release); }
    void disarm() { armed_.store(false, std::memory_order_release); }

    /** Spans of caller @p tid (read after the callers are joined). */
    const std::vector<Span> &spans(std::uint32_t tid) const
    {
        return spans_[tid];
    }
    std::uint32_t tids() const
    {
        return static_cast<std::uint32_t>(spans_.size());
    }

    const char *branchName() const override { return inner_.branchName(); }
    const mc::BranchCfg &branchCfg() const override
    {
        return inner_.branchCfg();
    }

    GetResult
    get(std::uint32_t tid, const char *key, std::size_t nkey, char *out,
        std::size_t out_cap) override
    {
        const std::uint64_t t0 = obs::nowNanos();
        GetResult r = inner_.get(tid, key, nkey, out, out_cap);
        note(tid, SpanKind::Get, t0);
        return r;
    }

    void
    getMulti(std::uint32_t tid, MultiGetReq *reqs, std::size_t n) override
    {
        const std::uint64_t t0 = obs::nowNanos();
        inner_.getMulti(tid, reqs, n);
        note(tid, SpanKind::Get, t0);
    }

    bool pinnedGetSupported() const override
    {
        return inner_.pinnedGetSupported();
    }

    PinnedValue
    getPinned(std::uint32_t tid, const char *key, std::size_t nkey) override
    {
        const std::uint64_t t0 = obs::nowNanos();
        PinnedValue v = inner_.getPinned(tid, key, nkey);
        if (v.handle != nullptr)
            v.owner = this;  // Route the release through the span.
        note(tid, v.handle != nullptr ? SpanKind::Pinned : SpanKind::Get, t0);
        return v;
    }

    void
    releasePinned(std::uint32_t tid, void *handle) override
    {
        const std::uint64_t t0 = obs::nowNanos();
        inner_.releasePinned(tid, handle);
        note(tid, SpanKind::Release, t0);
    }

    mc::OpStatus
    store(std::uint32_t tid, const char *key, std::size_t nkey,
          const char *val, std::size_t nbytes, mc::StoreMode mode,
          std::uint64_t cas_expected) override
    {
        const std::uint64_t t0 = obs::nowNanos();
        const mc::OpStatus s =
            inner_.store(tid, key, nkey, val, nbytes, mode, cas_expected);
        note(tid, SpanKind::Store, t0);
        return s;
    }

    // The workloads issue no deletes, arithmetic, touches or concats:
    // forwarded unspanned.
    mc::OpStatus
    del(std::uint32_t tid, const char *key, std::size_t nkey) override
    {
        return inner_.del(tid, key, nkey);
    }
    mc::OpStatus
    arith(std::uint32_t tid, const char *key, std::size_t nkey,
          std::uint64_t delta, bool incr,
          std::uint64_t &out_value) override
    {
        return inner_.arith(tid, key, nkey, delta, incr, out_value);
    }
    mc::OpStatus
    touch(std::uint32_t tid, const char *key, std::size_t nkey,
          std::int64_t exptime) override
    {
        return inner_.touch(tid, key, nkey, exptime);
    }
    mc::OpStatus
    concat(std::uint32_t tid, const char *key, std::size_t nkey,
           const char *extra, std::size_t nextra, bool append) override
    {
        return inner_.concat(tid, key, nkey, extra, nextra, append);
    }

    std::size_t
    statsText(std::uint32_t tid, char *out, std::size_t cap) override
    {
        return inner_.statsText(tid, out, cap);
    }
    void flushAll(std::uint32_t tid) override { inner_.flushAll(tid); }
    mc::GlobalStats globalStats() override { return inner_.globalStats(); }
    mc::ThreadStatsBlock threadStats() override
    {
        return inner_.threadStats();
    }
    std::vector<mc::LockProfileRow> lockProfile() const override
    {
        return inner_.lockProfile();
    }
    std::uint64_t linkedItemCount() override
    {
        return inner_.linkedItemCount();
    }
    std::uint32_t hashPowerNow() override { return inner_.hashPowerNow(); }
    void quiesceMaintenance() override { inner_.quiesceMaintenance(); }
    void
    requestRebalance(std::uint32_t src_cls, std::uint32_t dst_cls) override
    {
        inner_.requestRebalance(src_cls, dst_cls);
    }
    std::uint32_t shardCount() const override { return inner_.shardCount(); }
    std::uint32_t
    shardOf(const char *key, std::size_t nkey) const override
    {
        return inner_.shardOf(key, nkey);
    }

  private:
    void
    note(std::uint32_t tid, SpanKind kind, std::uint64_t t0)
    {
        if (!armed_.load(std::memory_order_acquire) || tid >= spans_.size())
            return;
        spans_[tid].push_back({t0, obs::nowNanos(), kind});
    }

    mc::CacheIface &inner_;
    std::vector<std::vector<Span>> spans_;
    // atom-protocol: release-acquire-pair
    std::atomic<bool> armed_{false};
};

} // namespace tmemc::benchmark

#endif // TMEMC_BENCHMARK_SPAN_CACHE_H
