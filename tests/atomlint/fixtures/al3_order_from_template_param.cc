/**
 * @file
 * atomlint fixture: a memory order passed in through a template
 * constant or a function parameter. atomlint reads an order only from
 * a literal std::memory_order token at the access, so such an access
 * counts as an implicit seq_cst (AL3). This is why each member of the
 * orec engine's ordering policies (tm/algo_orec_common.h) spells its
 * order literally instead of taking one as a value.
 */

#include <atomic>
#include <cstdint>

namespace
{

// atom-protocol: release-acquire-pair
std::atomic<std::uint64_t> published{0};

template <std::memory_order Order>
std::uint64_t
readWithTemplateOrder()
{
    return published.load(Order); // atomlint-expect: AL3
}

void
publishWithParamOrder(std::uint64_t v, std::memory_order order)
{
    published.store(v, order); // atomlint-expect: AL3
}

/** The policy shape the checker accepts: the order at the access. */
struct AcquirePolicy
{
    static std::uint64_t
    read()
    {
        return published.load(std::memory_order_acquire);
    }
};

std::uint64_t
useAll()
{
    publishWithParamOrder(1, std::memory_order_release);
    return readWithTemplateOrder<std::memory_order_acquire>() +
           AcquirePolicy::read();
}

} // namespace
