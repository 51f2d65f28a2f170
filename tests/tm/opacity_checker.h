/**
 * @file
 * TM-level opacity checker over histories captured by the runtime's
 * opacity recorder (src/tm/opacity.h) — the transactional extension of
 * the Wing & Gong linearizability checker in tests/mc/lin_checker.h.
 *
 * Opacity [Guerraoui & Kapalka 2008]: a history is opaque when there
 * is a single serial order of ALL transaction attempts — committed
 * AND aborted — that (a) respects real-time precedence (an attempt
 * that completed before another began must come first), (b) replays
 * every committed attempt's reads and writes correctly, and (c) gives
 * every aborted attempt a point at which all of its reads came from a
 * single consistent memory state (no zombie reads). Aborted attempts
 * participate as read-only observers: their writes never reach the
 * replayed memory.
 *
 * Search: the Wing & Gong DFS of tests/common/history_search.h over
 * "which attempt serializes next", with the replayed memory as the
 * model state. Because the recorded workload's initial memory contents
 * are unknown, word values are bound lazily: the first read of an
 * undefined byte defines it, and the bindings travel with the state so
 * memoization stays exact. A fast pre-pass replays the attempts in
 * end-stamp order — for the STM algorithms under test the commit order
 * essentially is the stamp order, so real (correct) histories verify
 * in linear time and the DFS only runs when something actually needs
 * reordering.
 *
 * Every failure dumps the offending per-domain history to stderr so
 * CI can upload it as an artifact.
 */

#ifndef TMEMC_TESTS_TM_OPACITY_CHECKER_H
#define TMEMC_TESTS_TM_OPACITY_CHECKER_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "../common/history_search.h"
#include "tm/opacity.h"

namespace tmemc::opctest
{

using tm::opacity::Access;
using tm::opacity::TxRecord;

/** One word of replayed memory: value bits that have been defined
 *  (written, or bound by a read of initially-unknown memory). */
struct WordVal
{
    std::uint64_t value = 0;
    std::uint64_t defined = 0;
};

/** Replayed memory. Ordered so serialization for memoization and the
 *  counterexample dump are deterministic. */
using MemState = std::map<std::uintptr_t, WordVal>;

namespace detail
{

/** The opacity replay as a specification for the shared search. */
struct ReplaySpec
{
    using State = MemState;

    const std::vector<const TxRecord *> &recs;

    std::size_t size() const { return recs.size(); }
    std::uint64_t invoke(std::size_t i) const { return recs[i]->begin; }
    std::uint64_t ret(std::size_t i) const { return recs[i]->end; }
    bool optional(std::size_t) const { return false; }

    /**
     * Replay attempt @p i against @p st in program order. Reads must
     * match @p st merged under the attempt's own prior writes
     * (read-your-own-writes); bytes no one has defined yet are bound
     * to the observed value — the run's unknown initial memory.
     * Committed attempts then publish their write overlay into @p st;
     * aborted ones discard it (their effects were rolled back).
     * @return false when some read cannot have come from this state.
     */
    bool
    apply(std::size_t i, MemState &st) const
    {
        const TxRecord &rec = *recs[i];
        std::map<std::uintptr_t, WordVal> overlay;
        for (const Access &a : rec.accesses) {
            if (a.isWrite) {
                WordVal &w = overlay[a.addr];
                w.value = (w.value & ~a.mask) | (a.value & a.mask);
                w.defined |= a.mask;
                continue;
            }
            const auto ov = overlay.find(a.addr);
            const std::uint64_t own_mask =
                ov != overlay.end() ? ov->second.defined : 0;
            if (ov != overlay.end() &&
                ((a.value ^ ov->second.value) & own_mask) != 0)
                return false;  // Disagrees with its own earlier write.
            WordVal &mem = st[a.addr];
            const std::uint64_t mem_mask = mem.defined & ~own_mask;
            if (((a.value ^ mem.value) & mem_mask) != 0)
                return false;  // Disagrees with the serialized state.
            // Bind still-undefined bytes to the observed value: they
            // are the workload's initial memory contents.
            const std::uint64_t fresh = ~own_mask & ~mem.defined;
            if (fresh != 0) {
                mem.value = (mem.value & ~fresh) | (a.value & fresh);
                mem.defined |= fresh;
            }
        }
        if (rec.committed) {
            for (const auto &[addr, w] : overlay) {
                WordVal &mem = st[addr];
                mem.value =
                    (mem.value & ~w.defined) | (w.value & w.defined);
                mem.defined |= w.defined;
            }
        }
        return true;
    }

    /** Exact encoding of the full serialized memory state. */
    void
    memo(const MemState &st, std::string &key) const
    {
        auto put = [&key](std::uint64_t v) {
            key.append(reinterpret_cast<const char *>(&v), sizeof(v));
        };
        for (const auto &[addr, w] : st) {
            put(addr);
            put(w.value & w.defined);
            put(w.defined);
        }
    }
};

inline void
dumpHistory(const std::vector<const TxRecord *> &recs)
{
    std::fprintf(stderr, "non-opaque history, %zu attempts:\n",
                 recs.size());
    for (const TxRecord *r : recs) {
        std::fprintf(
            stderr, "  [%llu,%llu] %s%s%s thread=%llu site=%s:\n",
            static_cast<unsigned long long>(r->begin),
            static_cast<unsigned long long>(r->end),
            r->committed ? "committed" : "aborted",
            r->serial ? " serial" : "", r->roFast ? " rofast" : "",
            static_cast<unsigned long long>(r->threadId), r->site);
        const std::size_t cap = 32;
        for (std::size_t i = 0; i < r->accesses.size() && i < cap; ++i) {
            const Access &a = r->accesses[i];
            std::fprintf(stderr,
                         "    %s %#llx = %#llx mask=%#llx\n",
                         a.isWrite ? "W" : "R",
                         static_cast<unsigned long long>(a.addr),
                         static_cast<unsigned long long>(a.value),
                         static_cast<unsigned long long>(a.mask));
        }
        if (r->accesses.size() > cap) {
            std::fprintf(stderr, "    ... %zu more accesses\n",
                         r->accesses.size() - cap);
        }
    }
}

} // namespace detail

/**
 * Check one domain's history (every record must share a domainTag).
 * Prints the history to stderr on failure.
 */
inline bool
opaqueSingleDomain(std::vector<const TxRecord *> recs)
{
    // Attempts with no accesses serialize anywhere; drop them up front.
    std::erase_if(recs,
                  [](const TxRecord *r) { return r->accesses.empty(); });
    if (recs.empty())
        return true;
    // Fast pre-pass: end-stamp order respects real time by
    // construction and is the algorithms' natural commit order.
    std::sort(recs.begin(), recs.end(),
              [](const TxRecord *a, const TxRecord *b) {
                  return a->end < b->end;
              });
    const detail::ReplaySpec spec{recs};
    MemState st;
    std::size_t i = 0;
    while (i < recs.size() && spec.apply(i, st))
        ++i;
    if (i == recs.size())
        return true;
    if (histsearch::search(spec, MemState{}, "opacity"))
        return true;
    detail::dumpHistory(recs);
    return false;
}

/**
 * Check a recorded history: partition by domain (per-domain data is
 * disjoint by the TxDomain contract, so each projection must be
 * independently opaque) and verify every partition.
 */
inline bool
opaque(const std::vector<TxRecord> &records)
{
    std::vector<const void *> domains;
    for (const TxRecord &r : records) {
        if (std::find(domains.begin(), domains.end(), r.domainTag) ==
            domains.end())
            domains.push_back(r.domainTag);
    }
    for (const void *tag : domains) {
        std::vector<const TxRecord *> sub;
        for (const TxRecord &r : records) {
            if (r.domainTag == tag)
                sub.push_back(&r);
        }
        if (!opaqueSingleDomain(std::move(sub)))
            return false;
    }
    return true;
}

} // namespace tmemc::opctest

#endif // TMEMC_TESTS_TM_OPACITY_CHECKER_H
