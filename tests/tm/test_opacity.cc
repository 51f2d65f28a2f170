/**
 * @file
 * The TM-level opacity checker, two ways:
 *
 *  1. Self-tests: hand-built known-bad histories — zombie read,
 *     write-skew, real-time-order violation, aborted-attempt
 *     inconsistent snapshot — that the checker must REJECT, mirroring
 *     lin_checker's phantom/stale/lost-update self-tests, plus
 *     accept-cases that pin the searcher's flexibility (aborted
 *     readers serialized before later committers, lazy initial-value
 *     binding, masked partial writes).
 *
 *  2. Live histories: a randomized TmVar read/modify/write workload
 *     recorded through the runtime's opacity recorder, checked across
 *     every STM algorithm and across all cache branch names x shard
 *     counts {1,4,16} (each shard is one TxDomain; histories are
 *     checked per domain).
 *
 * Determinism: TMEMC_OPACITY_SEED pins the workload seed (the
 * TMEMC_LIN_SHARDS precedent); every failure message carries the seed
 * so a nightly counterexample replays locally. TMEMC_OPACITY_ROUNDS
 * multiplies workload repetition for the nightly soak (each round is
 * its own armed window, keeping histories under the checker's caps).
 *
 * Scope note: histories are recorded at the TM level (TmVar traffic)
 * rather than by recording whole-cache runs, because the IP-style
 * branches privatize item memory and access it raw — by design those
 * accesses bypass TM instrumentation, so a word-level recording of an
 * IP cache run would be incomplete and the checker would report false
 * violations. The linearizability suite covers the branches at the
 * cache-semantics level; this suite certifies the TM layer each
 * branch configuration actually runs on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "mc/branch.h"
#include "opacity_checker.h"
#include "tm/api.h"
#include "tm/domain.h"

namespace
{

using namespace tmemc;
using opctest::opaque;
using tm::opacity::Access;
using tm::opacity::TxRecord;

// ---------------------------------------------------------------------
// Self-tests on hand-built histories
// ---------------------------------------------------------------------

constexpr std::uintptr_t kX = 0x1000;
constexpr std::uintptr_t kY = 0x1008;
constexpr std::uint64_t kFull = ~std::uint64_t{0};
constexpr const void *kDom = &kX;  // Any stable tag.

TxRecord
mkRec(std::uint64_t begin, std::uint64_t end, bool committed,
      std::vector<Access> accesses)
{
    TxRecord r;
    r.begin = begin;
    r.end = end;
    r.committed = committed;
    r.site = "selftest";
    r.domainTag = kDom;
    r.accesses = std::move(accesses);
    return r;
}

Access
rd(std::uintptr_t addr, std::uint64_t val)
{
    return {false, addr, val, kFull};
}

Access
wr(std::uintptr_t addr, std::uint64_t val, std::uint64_t mask = kFull)
{
    return {true, addr, val, mask};
}

TEST(OpacitySelfTest, RejectsZombieRead)
{
    // T2 aborts having read x from after T1's commit but y from
    // before it: no single point in any serial order supplies both.
    std::vector<TxRecord> h;
    h.push_back(mkRec(0, 1, true, {wr(kX, 0), wr(kY, 0)}));
    h.push_back(mkRec(2, 4, true, {wr(kX, 1), wr(kY, 1)}));
    h.push_back(mkRec(3, 5, false, {rd(kX, 1), rd(kY, 0)}));
    EXPECT_FALSE(opaque(h));
}

TEST(OpacitySelfTest, RejectsWriteSkewNonSerializable)
{
    // Both committed attempts read both initial values and each wrote
    // one variable: neither order replays — the classic
    // non-serializable pair a real STM must have aborted.
    std::vector<TxRecord> h;
    h.push_back(mkRec(0, 1, true, {wr(kX, 0), wr(kY, 0)}));
    h.push_back(mkRec(2, 5, true, {rd(kX, 0), rd(kY, 0), wr(kX, 1)}));
    h.push_back(mkRec(3, 6, true, {rd(kX, 0), rd(kY, 0), wr(kY, 1)}));
    EXPECT_FALSE(opaque(h));
}

TEST(OpacitySelfTest, RejectsRealTimeOrderViolation)
{
    // T2 began strictly after the x=1 commit completed, yet read the
    // overwritten value. Without the real-time edge the order
    // T0,T2,T1 would replay fine — the checker must not use it.
    std::vector<TxRecord> h;
    h.push_back(mkRec(0, 1, true, {wr(kX, 0)}));
    h.push_back(mkRec(2, 3, true, {wr(kX, 1)}));
    h.push_back(mkRec(4, 5, true, {rd(kX, 0)}));
    EXPECT_FALSE(opaque(h));
}

TEST(OpacitySelfTest, RejectsAbortedTxInconsistentSnapshot)
{
    // Torn invariant pair (a + b == 1000): the aborted attempt saw
    // T1's write to a but not its write to b.
    std::vector<TxRecord> h;
    h.push_back(mkRec(0, 1, true, {wr(kX, 500), wr(kY, 500)}));
    h.push_back(mkRec(2, 5, true,
                      {rd(kX, 500), wr(kX, 400), rd(kY, 500),
                       wr(kY, 600)}));
    h.push_back(mkRec(3, 6, false, {rd(kX, 400), rd(kY, 500)}));
    EXPECT_FALSE(opaque(h));
}

TEST(OpacitySelfTest, AcceptsSerializableOverlap)
{
    std::vector<TxRecord> h;
    h.push_back(mkRec(0, 1, true, {wr(kX, 0), wr(kY, 0)}));
    h.push_back(mkRec(2, 6, true, {rd(kX, 0), wr(kX, 1)}));
    h.push_back(mkRec(3, 7, true, {rd(kY, 0), wr(kY, 1)}));
    EXPECT_TRUE(opaque(h));
}

TEST(OpacitySelfTest, AcceptsAbortedReaderAtEarlierPoint)
{
    // The aborted attempt's snapshot predates T1's commit; since the
    // windows overlap, serializing it before T1 is legal. This is the
    // case the end-stamp fast pass cannot satisfy — it exercises the
    // DFS reordering.
    std::vector<TxRecord> h;
    h.push_back(mkRec(0, 1, true, {wr(kX, 0), wr(kY, 0)}));
    h.push_back(mkRec(2, 5, true, {wr(kX, 1), wr(kY, 1)}));
    h.push_back(mkRec(3, 6, false, {rd(kX, 0), rd(kY, 0)}));
    EXPECT_TRUE(opaque(h));
}

TEST(OpacitySelfTest, AcceptsReadYourOwnWritesAndMaskedStores)
{
    // A committed attempt observes its own buffered partial write
    // merged over memory another attempt defined.
    std::vector<TxRecord> h;
    h.push_back(mkRec(0, 1, true, {wr(kX, 0xAABBCCDD11223344ull)}));
    h.push_back(mkRec(2, 3, true,
                      {wr(kX, 0x77, 0xFF),  // Low byte only.
                       rd(kX, 0xAABBCCDD11223377ull)}));
    h.push_back(mkRec(4, 5, true, {rd(kX, 0xAABBCCDD11223377ull)}));
    EXPECT_TRUE(opaque(h));
}

TEST(OpacitySelfTest, BindsUnknownInitialMemoryConsistently)
{
    // Reads of never-written words bind the run's initial contents;
    // agreeing readers pass, a disagreeing one cannot.
    std::vector<TxRecord> agree;
    agree.push_back(mkRec(0, 3, true, {rd(kX, 7)}));
    agree.push_back(mkRec(1, 4, true, {rd(kX, 7)}));
    EXPECT_TRUE(opaque(agree));

    std::vector<TxRecord> clash;
    clash.push_back(mkRec(0, 3, true, {rd(kX, 7)}));
    clash.push_back(mkRec(1, 4, true, {rd(kX, 9)}));
    EXPECT_FALSE(opaque(clash));
}

// ---------------------------------------------------------------------
// Recorder window discipline
// ---------------------------------------------------------------------

TEST(OpacityRecorder, DropsStragglerFromPreviousWindow)
{
    // A thread that latched recording in window N but only finishes
    // after window N+1 is armed must not leak its record — or its
    // overflow — into the new window's history (a mixed-workload
    // record would fail the checker spuriously).
    tm::TxDomain dom(8);
    tm::TxDesc straggler;
    straggler.domain = &dom;

    tm::opacity::arm();  // Window N.
    tm::opacity::beginRecord(straggler);
    ASSERT_TRUE(straggler.opRecording);
    tm::opacity::noteAccess(straggler, true, kX, 1, kFull);
    (void)tm::opacity::collect();  // Window N closes.

    tm::opacity::arm();  // Window N+1.
    tm::opacity::finishRecord(straggler, true, false, false);
    const std::vector<TxRecord> leaked = tm::opacity::collect();
    EXPECT_TRUE(leaked.empty());
    EXPECT_FALSE(tm::opacity::overflowed());
}

TEST(OpacityRecorder, StragglerOverflowDoesNotPoisonNewWindow)
{
    tm::TxDomain dom(8);
    tm::TxDesc straggler;
    straggler.domain = &dom;

    tm::opacity::arm();
    tm::opacity::beginRecord(straggler);
    ASSERT_TRUE(straggler.opRecording);
    (void)tm::opacity::collect();

    tm::opacity::arm();  // New window; straggler now blows its cap.
    for (std::size_t i = 0; i <= tm::opacity::kMaxAccessesPerTx; ++i)
        tm::opacity::noteAccess(straggler, false, kX, 0, kFull);
    EXPECT_FALSE(straggler.opRecording);  // Attempt dropped whole...
    EXPECT_FALSE(tm::opacity::overflowed());  // ...but window is clean.
    (void)tm::opacity::collect();
}

// ---------------------------------------------------------------------
// Live histories from the runtime's recorder
// ---------------------------------------------------------------------

const tm::TxnAttr kRw{"opacity:rw", tm::TxnKind::Atomic, false, false};
const tm::TxnAttr kRo{"opacity:ro", tm::TxnKind::Atomic, false, true};

/** Per-shard data: one TxDomain plus the words its transactions own. */
struct Shard
{
    explicit Shard(std::uint32_t orec_bits) : domain(orec_bits) {}
    tm::TxDomain domain;
    std::array<tm::TmVar<std::uint64_t>, 8> vars;
};

std::uint64_t
envSeed()
{
    if (const char *s = std::getenv("TMEMC_OPACITY_SEED"))
        return std::strtoull(s, nullptr, 10);
    return 0;  // 0: sweep the default seeds.
}

unsigned
envRounds()
{
    if (const char *s = std::getenv("TMEMC_OPACITY_ROUNDS"))
        return static_cast<unsigned>(std::strtoul(s, nullptr, 10));
    return 1;
}

/**
 * Run a randomized TmVar workload (4 threads, mixed updates /
 * multi-var reads / hinted read-only attempts) across @p shards
 * domains under the current runtime configuration, recording every
 * attempt, and check the history. Workload sizes stay well under the
 * checker's 256-attempts-per-domain cap.
 */
void
recordAndCheck(const tm::RuntimeCfg &cfg, unsigned shards,
               std::uint64_t seed, const std::string &what)
{
    tm::Runtime::get().configure(cfg);
    tm::Runtime::get().resetStats();

    std::vector<std::unique_ptr<Shard>> shard_list;
    for (unsigned s = 0; s < shards; ++s) {
        shard_list.push_back(std::make_unique<Shard>(cfg.orecTableBits));
        for (unsigned v = 0; v < 8; ++v)
            shard_list.back()->vars[v].rawSet(v * 100);
    }

    constexpr unsigned kThreads = 4;
    constexpr unsigned kOpsPerThread = 20;

    tm::opacity::arm();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            XorShift128 rng(seed * 7919 + t + 1);
            for (unsigned op = 0; op < kOpsPerThread; ++op) {
                Shard &sh = *shard_list[rng.next() % shards];
                tm::DomainScope scope(&sh.domain);
                const unsigned a = rng.next() % 8;
                const unsigned b = rng.next() % 8;
                switch (rng.next() % 3) {
                  case 0:  // Transfer between two vars.
                    tm::run(kRw, [&](tm::TxDesc &tx) {
                        const std::uint64_t va = sh.vars[a].get(tx);
                        sh.vars[a].set(tx, va - 1);
                        sh.vars[b].set(tx, sh.vars[b].get(tx) + 1);
                    });
                    break;
                  case 1:  // Multi-var read (full path).
                    tm::run(kRw, [&](tm::TxDesc &tx) {
                        std::uint64_t sum = 0;
                        for (const auto &v : sh.vars)
                            sum += v.get(tx);
                        return sum;
                    });
                    break;
                  default:  // Hinted read-only (fast path if enabled).
                    tm::run(kRo, [&](tm::TxDesc &tx) {
                        return sh.vars[a].get(tx) + sh.vars[b].get(tx);
                    });
                    break;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const std::vector<TxRecord> records = tm::opacity::collect();

    EXPECT_FALSE(tm::opacity::overflowed())
        << what << " seed=" << seed << ": recorder overflow";
    EXPECT_GT(records.size(), 0u) << what << " seed=" << seed;
    EXPECT_TRUE(opaque(records))
        << what << " seed=" << seed
        << ": reproduce with TMEMC_OPACITY_SEED=" << seed;

    tm::Runtime::get().configure(tm::RuntimeCfg{});
}

std::vector<std::uint64_t>
seedSweep()
{
    const std::uint64_t pinned = envSeed();
    if (pinned != 0)
        return {pinned};
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t r = 1; r <= envRounds(); ++r)
        seeds.push_back(20140301 + r);
    return seeds;
}

std::vector<unsigned>
shardSweep()
{
    // TMEMC_LIN_SHARDS precedent: the CI shard matrix pins one count.
    if (const char *s = std::getenv("TMEMC_LIN_SHARDS")) {
        const unsigned n =
            static_cast<unsigned>(std::strtoul(s, nullptr, 10));
        if (n > 0)
            return {n};
    }
    return {1, 4, 16};
}

class OpacityAlgoTest : public ::testing::TestWithParam<tm::AlgoKind>
{
};

TEST_P(OpacityAlgoTest, LiveHistoriesAreOpaque)
{
    tm::RuntimeCfg cfg;
    cfg.algo = GetParam();
    for (unsigned shards : shardSweep()) {
        for (std::uint64_t seed : seedSweep()) {
            recordAndCheck(cfg, shards, seed,
                           "algo=" + std::to_string(static_cast<int>(
                                         GetParam())) +
                               " shards=" + std::to_string(shards));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Algos, OpacityAlgoTest,
                         ::testing::Values(tm::AlgoKind::GccEager,
                                           tm::AlgoKind::Lazy,
                                           tm::AlgoKind::NOrec,
                                           tm::AlgoKind::RA,
                                           tm::AlgoKind::Serial),
                         [](const auto &info) {
                             switch (info.param) {
                             case tm::AlgoKind::GccEager:
                                 return "GccEager";
                             case tm::AlgoKind::Lazy:
                                 return "Lazy";
                             case tm::AlgoKind::NOrec:
                                 return "NOrec";
                             case tm::AlgoKind::RA:
                                 return "RA";
                             default:
                                 return "Serial";
                             }
                         });

/** Every cache branch name runs the TM workload under the runtime
 *  configuration that branch would select (IT-RA: the RA algorithm),
 *  across the shard sweep — "all 14 branches x shards {1,4,16}". */
class OpacityBranchTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OpacityBranchTest, BranchRuntimeHistoriesAreOpaque)
{
    const tm::RuntimeCfg cfg = mc::runtimeCfgFor(GetParam());
    for (unsigned shards : shardSweep()) {
        for (std::uint64_t seed : seedSweep()) {
            recordAndCheck(cfg, shards, seed,
                           "branch=" + GetParam() +
                               " shards=" + std::to_string(shards));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Branches, OpacityBranchTest,
                         ::testing::ValuesIn(mc::allBranchNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

} // namespace
