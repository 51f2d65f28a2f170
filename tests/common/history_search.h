/**
 * @file
 * The memoized Wing & Gong search shared by the linearizability
 * checker (tests/mc/lin_checker.h) and the opacity checker
 * (tests/tm/opacity_checker.h), which differ only in the Spec: its
 * State, the events' size(), invoke(i) and ret(i) stamps (ret ~0:
 * never returned), optional(i) (may never take effect), apply(i, st)
 * (replay; false if impossible) and memo(st, key) (append an exact
 * encoding of the state).
 *
 * DFS over "which event is placed next", restricted to events invoked
 * before every pending response, memoized on (placed set, state). It
 * succeeds once every non-optional event is placed. A history wider
 * than kMaxEvents, or a search past kNodeBudget nodes, FAILs
 * explicitly instead of passing vacuously or stalling the suite.
 */

#ifndef TMEMC_TESTS_COMMON_HISTORY_SEARCH_H
#define TMEMC_TESTS_COMMON_HISTORY_SEARCH_H

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>

namespace tmemc::histsearch
{

/** Event-count cap: the placed set is a 256-bit mask. */
constexpr std::size_t kMaxEvents = 256;
/**
 * DFS node budget. Over repeated runs the largest live search visited
 * 66 nodes in test_linearizability, 26 in test_cluster's chaos case
 * and 200 in test_opacity. Running out takes well under a second.
 */
constexpr std::size_t kNodeBudget = 1u << 20;

/**
 * @return true if some real-time-respecting order of @p spec's events
 *         replays from @p init. A too-wide history or an exhausted
 *         budget adds a test failure naming @p what.
 */
template <class Spec>
bool
search(const Spec &spec, const typename Spec::State &init, const char *what)
{
    using Mask = std::array<std::uint64_t, kMaxEvents / 64>;
    const std::size_t n = spec.size();
    if (n > kMaxEvents) {
        ADD_FAILURE() << what << ": history too large for the checker ("
                      << n << " events); lower the op count";
        return false;
    }
    Mask required{};
    for (std::size_t i = 0; i < n; ++i) {
        if (!spec.optional(i))
            required[i / 64] |= 1ull << (i % 64);
    }
    auto placed = [](const Mask &m, std::size_t i) {
        return (m[i / 64] >> (i % 64)) & 1;
    };
    std::unordered_set<std::string> visited;
    std::size_t nodes = 0;
    auto dfs = [&](auto &self, const Mask &done,
                   const typename Spec::State &st) -> bool {
        if (std::equal(done.begin(), done.end(), required.begin(),
                       [](auto d, auto r) { return (d & r) == r; }))
            return true;
        if (++nodes > kNodeBudget)
            return false;
        std::string key(reinterpret_cast<const char *>(done.data()),
                        (n + 63) / 64 * sizeof(std::uint64_t));
        spec.memo(st, key);
        if (!visited.insert(std::move(key)).second)
            return false;
        std::uint64_t min_ret = ~0ull;
        for (std::size_t i = 0; i < n; ++i) {
            if (!placed(done, i))
                min_ret = std::min(min_ret, spec.ret(i));
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (placed(done, i) || spec.invoke(i) > min_ret)
                continue;
            typename Spec::State next = st;
            if (!spec.apply(i, next))
                continue;
            Mask next_done = done;
            next_done[i / 64] |= 1ull << (i % 64);
            if (self(self, next_done, next))
                return true;
            if (nodes > kNodeBudget)
                return false;
        }
        return false;
    };
    if (dfs(dfs, Mask{}, init))
        return true;
    if (nodes > kNodeBudget) {
        ADD_FAILURE() << what << ": search exhausted its node budget ("
                      << kNodeBudget << " nodes); shrink the workload "
                      << "rather than trusting a vacuous pass";
    }
    return false;
}

} // namespace tmemc::histsearch

#endif // TMEMC_TESTS_COMMON_HISTORY_SEARCH_H
