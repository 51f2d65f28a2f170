/**
 * @file
 * The orec engine shared by GccEager, Lazy and RA: begin, the
 * invisible-reader load, the validated load, orec acquisition with
 * timestamp extension, read-set validation, commit stamping and
 * rollback. The algorithms differ in when they lock (GccEager at the
 * first store, Lazy and RA at commit) and in the memory orders of
 * three accesses, which an ordering policy spells out: FencedOrder
 * (GccEager, Lazy) or RaOrder (RA).
 *
 * Each policy member names its orders as literal tokens at the
 * access, so tools/atomlint checks both instantiations against the
 * orec-lock and release-acquire-pair protocols. An order passed in as
 * a value would read to it as an implicit seq_cst (AL3).
 *
 * Validation treats an orec locked by the validating transaction as
 * consistent: a write lock can only have been acquired while the
 * orec's version was <= the transaction's (possibly extended) start
 * time, and any intervening commit would have changed the recorded
 * snapshot word and failed the equality test first.
 */

#ifndef TMEMC_TM_ALGO_OREC_COMMON_H
#define TMEMC_TM_ALGO_OREC_COMMON_H

#include <atomic>

#include "common/compiler.h"
#include "tm/algo.h"
#include "tm/runtime.h"

namespace tmemc::tm
{

/**
 * Ordering policy of GccEager and Lazy: the seqlock read bracket (raw
 * data load, acquire fence, relaxed orec re-read) and acq_rel
 * read-modify-writes on the orec and the clock.
 */
struct FencedOrder
{
    /**
     * Load the word at @p word_addr after orec @p o was sampled as
     * @p w1. @return false if the orec moved meanwhile (re-sample).
     */
    static TMEMC_ALWAYS_INLINE bool
    bracketedLoad(OrecWord &o, std::uint64_t w1, std::uintptr_t word_addr,
                  std::uint64_t &val)
    {
        val = rawLoad(reinterpret_cast<void *>(word_addr));
        std::atomic_thread_fence(std::memory_order_acquire);
        // atom-allow: relaxed re-read ordered by the fence above
        return o.load(std::memory_order_relaxed) == w1;
    }

    /** Write-lock @p o for @p d if it still holds @p w. */
    static TMEMC_ALWAYS_INLINE bool
    lockOrec(OrecWord &o, std::uint64_t &w, const TxDesc &d)
    {
        return o.compare_exchange_strong(w, orecLockWord(&d),
                                         std::memory_order_acq_rel);
    }

    /** Advance the domain clock. @return the commit timestamp. */
    static TMEMC_ALWAYS_INLINE std::uint64_t
    bumpClock(TxDomain &dom)
    {
        return dom.clock.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
};

/**
 * Ordering policy of RA, after "Implementing and Verifying
 * Release-Acquire Transactional Memory" (Dalvandi & Dongol,
 * PAPERS.md): no standalone fence and no acq_rel operation.
 *
 *  - The data load is itself an acquire load (rawLoadAcquire), which
 *    keeps the acquire orec re-read after it. An acquire on the
 *    re-read alone would not: acquire orders only later accesses, so
 *    a relaxed data load could sink below it on ARM/POWER and see a
 *    store from after both orec reads.
 *  - The lock CAS is acquire: the lock word carries no payload, and
 *    the acquire pairs with the previous owner's release so the
 *    stripe's data is visible before the redo log merges over it.
 *  - The clock bump is release: data visibility rides on the orec
 *    release/acquire pairs, and the clock only orders snapshots.
 */
struct RaOrder
{
    /** As FencedOrder::bracketedLoad, with no fence. */
    static TMEMC_ALWAYS_INLINE bool
    bracketedLoad(OrecWord &o, std::uint64_t w1, std::uintptr_t word_addr,
                  std::uint64_t &val)
    {
        val = rawLoadAcquire(reinterpret_cast<void *>(word_addr));
        return o.load(std::memory_order_acquire) == w1;
    }

    /** As FencedOrder::lockOrec, with an acquire CAS. */
    static TMEMC_ALWAYS_INLINE bool
    lockOrec(OrecWord &o, std::uint64_t &w, const TxDesc &d)
    {
        return o.compare_exchange_strong(w, orecLockWord(&d),
                                         std::memory_order_acquire);
    }

    /** As FencedOrder::bumpClock, with a release increment. */
    static TMEMC_ALWAYS_INLINE std::uint64_t
    bumpClock(TxDomain &dom)
    {
        return dom.clock.fetch_add(1, std::memory_order_release) + 1;
    }
};

/** Check every read-set entry is still the word observed at read. */
inline bool
validateReadSet(TxDesc &d)
{
    for (const ReadEntry &e : d.readSet) {
        const std::uint64_t cur = e.orec->load(std::memory_order_acquire);
        if (cur == e.word)
            continue;
        const OrecSnapshot snap{cur};
        if (snap.locked() && snap.owner() == &d)
            continue;
        return false;
    }
    return true;
}

/**
 * Timestamp extension (TinySTM style): advance the transaction's start
 * time to now if its reads are all still valid.
 * @return false if the transaction is doomed and must abort.
 */
inline bool
extendStartTime(Runtime &rt, TxDesc &d)
{
    const std::uint64_t now = d.dom().clock.load(std::memory_order_acquire);
    if (!validateReadSet(d))
        return false;
    d.startTime = now;
    d.advanceStart(now);
    return true;
}

/**
 * Base of the orec algorithms. Subclasses supply loadWord, storeWord,
 * commit and isReadOnly from the protected building blocks.
 */
template <class Order>
class OrecAlgo : public Algo
{
  public:
    void
    begin(Runtime &rt, TxDesc &d) override
    {
        d.startTime = d.dom().clock.load(std::memory_order_acquire);
        d.publishStart(d.startTime);
    }

    bool
    beginRO(Runtime &rt, TxDesc &d) override
    {
        OrecAlgo::begin(rt, d);
        return true;
    }

    std::uint64_t
    loadWordRO(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        // Invisible reader: the orec bracket proves the word was
        // stable at a version <= startTime, so every load on the
        // attempt sees the same snapshot without a read set. A newer
        // version aborts — with no read set there is nothing to
        // revalidate at an extended start time. The redo log is empty
        // on this path, so there is nothing to merge either.
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        for (;;) {
            const std::uint64_t w1 = o.load(std::memory_order_acquire);
            const OrecSnapshot s1{w1};
            if (s1.locked())
                throw TxAbort{};  // Fast path never holds write locks.
            std::uint64_t val;
            if (!Order::bracketedLoad(o, w1, word_addr, val))
                continue;  // Raced with a commit; re-sample.
            if (s1.version() > d.startTime)
                throw TxAbort{};
            return val;
        }
    }

    void
    rollback(Runtime &rt, TxDesc &d) override
    {
        // Reverse-apply the undo log (GccEager; empty for the redo
        // algorithms, which write nothing in place before the commit
        // can no longer fail), then release write locks restoring
        // their pre-lock words.
        for (auto it = d.undoLog.rbegin(); it != d.undoLog.rend(); ++it)
            rawStore(reinterpret_cast<void *>(it->wordAddr), it->oldValue);
        for (const LockEntry &le : d.writeLocks)
            le.orec->store(le.prevWord, std::memory_order_release);
        d.clearSets();
    }

  protected:
    /**
     * Read the word at @p word_addr at a version <= startTime and
     * record it in the read set, extending the start time past a newer
     * version. A stripe write-locked by @p d itself reads memory as is.
     */
    static TMEMC_ALWAYS_INLINE std::uint64_t
    validatedLoad(Runtime &rt, TxDesc &d, std::uintptr_t word_addr)
    {
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        for (;;) {
            const std::uint64_t w1 = o.load(std::memory_order_acquire);
            const OrecSnapshot s1{w1};
            if (s1.locked()) {
                if (s1.owner() == &d)
                    return rawLoad(reinterpret_cast<void *>(word_addr));
                throw TxAbort{};  // Write-locked by a concurrent txn.
            }
            std::uint64_t val;
            if (!Order::bracketedLoad(o, w1, word_addr, val))
                continue;  // Raced with a commit; re-sample.
            if (s1.version() > d.startTime) {
                // The extension revalidates the older reads only. A
                // commit between this sample and its clock read would
                // go unseen, so re-sample at the new start time.
                if (!extendStartTime(rt, d))
                    throw TxAbort{};
                continue;
            }
            d.readSet.push_back({&o, w1});
            return val;
        }
    }

    /**
     * Write-lock the orec covering @p word_addr, extending the start
     * time past a newer version. Idempotent when @p d already holds
     * it (several words can hash to one orec).
     */
    static TMEMC_ALWAYS_INLINE void
    acquireOrec(Runtime &rt, TxDesc &d, std::uintptr_t word_addr)
    {
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        std::uint64_t w = o.load(std::memory_order_acquire);
        const OrecSnapshot snap{w};
        if (snap.locked()) {
            if (snap.owner() == &d)
                return;
            throw TxAbort{};
        }
        if (snap.version() > d.startTime) {
            if (!extendStartTime(rt, d))
                throw TxAbort{};
            w = o.load(std::memory_order_acquire);
            const OrecSnapshot again{w};
            if (again.locked() || again.version() > d.startTime)
                throw TxAbort{};
        }
        if (!Order::lockOrec(o, w, d))
            throw TxAbort{};
        d.writeLocks.push_back({&o, w});
    }

    /**
     * Take a commit timestamp and revalidate the reads if another
     * writer committed since begin. Throws TxAbort; the caller's
     * rollback() releases the locks.
     */
    static TMEMC_ALWAYS_INLINE std::uint64_t
    commitStamp(TxDesc &d)
    {
        const std::uint64_t end = Order::bumpClock(d.dom());
        if (end != d.startTime + 1 && !validateReadSet(d))
            throw TxAbort{};
        return end;
    }

    /** Release every write lock at version @p end; clear the sets. */
    static TMEMC_ALWAYS_INLINE void
    releaseOrecs(TxDesc &d, std::uint64_t end)
    {
        for (const LockEntry &le : d.writeLocks)
            le.orec->store(orecVersionWord(end), std::memory_order_release);
        d.clearSets();
    }
};

} // namespace tmemc::tm

#endif // TMEMC_TM_ALGO_OREC_COMMON_H
