/**
 * @file
 * Shared Wing & Gong linearizability checker for recorded cache and
 * cluster histories (used by tests/mc/test_linearizability.cc and
 * tests/net/test_cluster.cc).
 *
 * A history is a set of completed operations, each stamped with invoke
 * and response timestamps from one global atomic counter. The checker
 * searches for a linearization: a total order that (a) respects real
 * time — an operation that returned before another was invoked must
 * come first — and (b) replays correctly against a trivially-correct
 * sequential model of a single key. Linearizability is a local
 * (per-object) property [Herlihy & Wing 1990, Thm. 1] and every
 * operation here touches exactly one key, so the search decomposes by
 * key and stays small enough for the exhaustive memoized DFS of
 * tests/common/history_search.h, which also FAILs explicitly when a
 * subhistory is too wide or exceeds the node budget.
 *
 * Cluster histories add one wrinkle: an operation whose reply was lost
 * (connection cut mid-request, node killed) may or may not have taken
 * effect. Such ops are recorded with `indeterminate = true` and
 * `ret = kNeverReturned`; the checker may linearize them at any point
 * after their invoke, or never — exactly the two possibilities the
 * real system allows. Only set/del may be indeterminate (a lost get
 * has no effect and should simply not be recorded).
 */

#ifndef TMEMC_TESTS_MC_LIN_CHECKER_H
#define TMEMC_TESTS_MC_LIN_CHECKER_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "../common/history_search.h"
#include "mc/cache.h"

namespace tmemc::lintest
{

enum class OpKind : std::uint8_t
{
    Get,
    Set,
    Del,
    Incr,
};

/** Response stamp for operations that never returned. */
constexpr std::uint64_t kNeverReturned = ~0ull;

/** One completed (or lost) operation in the recorded history. */
struct Op
{
    OpKind kind = OpKind::Get;
    std::string key;
    std::uint64_t arg = 0;       //!< Set value / incr delta.
    std::uint64_t invoke = 0;    //!< Timestamp before the call.
    std::uint64_t ret = 0;       //!< Timestamp after the call.
    mc::OpStatus status = mc::OpStatus::Miss;  //!< Observed status.
    std::string out;             //!< Observed value (get hit).
    std::uint64_t outNum = 0;    //!< Observed counter (incr hit).
    /** Reply lost: the op may have applied or not (set/del only).
     *  Must be recorded with ret == kNeverReturned. */
    bool indeterminate = false;
};

/**
 * Stamps operations with a globally ordered invoke/response pair.
 * fetch_add on one counter is enough: if op A returned before op B
 * was invoked in real time, A's response stamp is smaller than B's
 * invoke stamp, which is exactly the precedence the checker enforces.
 */
class HistoryRecorder
{
  public:
    std::uint64_t
    stamp()
    {
        return clock_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> clock_{0};
};

/** Sequential single-key model: absent, or holding a counter value.
 *  (Workers only ever store decimal values, matching incr's domain.) */
using KeyState = std::optional<std::uint64_t>;

/**
 * The single-key specification for the shared Wing & Gong search
 * (tests/common/history_search.h). Indeterminate ops never bound the
 * pending responses (ret == kNeverReturned) and are optional: the
 * search succeeds once every determinate op is linearized.
 */
struct KeySpec
{
    using State = KeyState;

    const std::vector<const Op *> &ops;

    std::size_t size() const { return ops.size(); }
    std::uint64_t invoke(std::size_t i) const { return ops[i]->invoke; }
    std::uint64_t ret(std::size_t i) const { return ops[i]->ret; }
    bool optional(std::size_t i) const { return ops[i]->indeterminate; }

    /**
     * Replay op @p i against @p st. @return false if its observed
     * result is impossible from this state (the candidate dies).
     */
    bool
    apply(std::size_t i, KeyState &st) const
    {
        const Op &op = *ops[i];
        if (op.indeterminate) {
            // No observed result to validate: the op applied its
            // effect here, or (left unplaced by the search) never ran.
            switch (op.kind) {
              case OpKind::Set:
                st = op.arg;
                return true;
              case OpKind::Del:
                st.reset();
                return true;
              default:
                return false;  // Lost gets/incrs must not be recorded.
            }
        }
        switch (op.kind) {
          case OpKind::Get:
            if (!st.has_value())
                return op.status == mc::OpStatus::Miss;
            return op.status == mc::OpStatus::Ok &&
                   op.out == std::to_string(*st);
          case OpKind::Set:
            if (op.status != mc::OpStatus::Ok)
                return false;  // Plain set must succeed.
            st = op.arg;
            return true;
          case OpKind::Del:
            if (!st.has_value())
                return op.status == mc::OpStatus::Miss;
            if (op.status != mc::OpStatus::Ok)
                return false;
            st.reset();
            return true;
          case OpKind::Incr:
            if (!st.has_value())
                return op.status == mc::OpStatus::Miss;
            if (op.status != mc::OpStatus::Ok ||
                op.outNum != *st + op.arg)
                return false;
            st = *st + op.arg;
            return true;
        }
        return false;
    }

    void
    memo(const KeyState &st, std::string &key) const
    {
        key += st ? std::to_string(*st) : "~";
    }
};

/** Check one key's subhistory from the empty-cache state. On failure,
 *  dumps it to stderr so a CI failure is actionable (the workflow
 *  uploads it as an artifact). */
inline bool
linearizableKey(std::vector<const Op *> sub)
{
    if (histsearch::search(KeySpec{sub}, std::nullopt, "linearizability"))
        return true;
    std::fprintf(stderr, "non-linearizable subhistory for key '%s':\n",
                 sub.front()->key.c_str());
    static const char *const kKinds[] = {"get", "set", "del", "incr"};
    for (const Op *op : sub) {
        std::fprintf(stderr,
                     "  [%llu,%llu] %s %s arg=%llu -> status=%d out=%s "
                     "outNum=%llu%s\n",
                     static_cast<unsigned long long>(op->invoke),
                     static_cast<unsigned long long>(op->ret),
                     kKinds[static_cast<int>(op->kind)], op->key.c_str(),
                     static_cast<unsigned long long>(op->arg),
                     static_cast<int>(op->status), op->out.c_str(),
                     static_cast<unsigned long long>(op->outNum),
                     op->indeterminate ? " (indeterminate)" : "");
    }
    return false;
}

/** Split by key (linearizability is local) and check every key. */
inline bool
linearizable(const std::vector<Op> &history)
{
    std::vector<std::string> keys;
    for (const Op &op : history) {
        if (std::find(keys.begin(), keys.end(), op.key) == keys.end())
            keys.push_back(op.key);
    }
    for (const std::string &k : keys) {
        std::vector<const Op *> sub;
        for (const Op &op : history) {
            if (op.key == k)
                sub.push_back(&op);
        }
        if (!linearizableKey(std::move(sub)))
            return false;
    }
    return true;
}

} // namespace tmemc::lintest

#endif // TMEMC_TESTS_MC_LIN_CHECKER_H
