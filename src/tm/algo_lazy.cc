/**
 * @file
 * The buffered-update orec algorithms: "Lazy" from the paper's Section
 * 4, which "uses the same lock table as the default GCC algorithm, but
 * buffers updates and acquires locks at commit time", and RA, the same
 * algorithm on release/acquire orderings only (RaOrder in
 * algo_orec_common.h). The two differ in the ordering policy alone.
 *
 * Byte-masked stores accumulate in a redo log; loads must merge the
 * log over memory (the costly byte-to-word logging the paper calls out
 * for memcpy-heavy workloads). Commit acquires orecs for the write
 * set, validates the read set, applies the log, and releases.
 */

#include "tm/algo_orec_common.h"

namespace tmemc::tm
{

namespace
{

template <class Order>
class RedoOrecAlgo : public OrecAlgo<Order>
{
    using Base = OrecAlgo<Order>;

  public:
    explicit RedoOrecAlgo(const char *name) : name_(name) {}

    const char *name() const override { return name_; }

    std::uint64_t
    loadWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        std::uint64_t buf_val = 0;
        std::uint64_t buf_mask = 0;
        const bool buffered = d.redoLog.lookup(word_addr, buf_val, buf_mask);
        if (buffered && buf_mask == ~std::uint64_t{0})
            return buf_val;  // Fully covered by our own writes.
        const std::uint64_t mem = Base::validatedLoad(rt, d, word_addr);
        return buffered ? maskMerge(mem, buf_val, buf_mask) : mem;
    }

    void
    storeWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr,
              std::uint64_t val, std::uint64_t mask) override
    {
        d.redoLog.insert(word_addr, val, mask);
    }

    std::uint64_t
    commit(Runtime &rt, TxDesc &d) override
    {
        if (d.redoLog.empty()) {
            d.clearSets();
            return 0;
        }
        // Phase 1: lock every orec covering the write set.
        for (const RedoEntry &e : d.redoLog.entries())
            Base::acquireOrec(rt, d, e.wordAddr);
        // Phase 2: validate reads, then make the writes visible. It
        // cannot fail after validation, so rollback() never has
        // in-place writes to undo.
        const std::uint64_t end = Base::commitStamp(d);
        for (const RedoEntry &e : d.redoLog.entries()) {
            void *p = reinterpret_cast<void *>(e.wordAddr);
            rawStore(p, maskMerge(rawLoad(p), e.value, e.mask));
        }
        Base::releaseOrecs(d, end);
        return end;
    }

    bool
    isReadOnly(const TxDesc &d) const override
    {
        return d.redoLog.empty();
    }

  private:
    const char *name_;
};

RedoOrecAlgo<FencedOrder> gLazy("lazy");
RedoOrecAlgo<RaOrder> gRa("ra");

} // namespace

Algo &
lazyAlgo()
{
    return gLazy;
}

Algo &
raAlgo()
{
    return gRa;
}

} // namespace tmemc::tm
