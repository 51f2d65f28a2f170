/**
 * @file
 * Trace recorder: one per-thread state behind one arm word, with two
 * views of what the runtime did.
 *
 * The paper's authors "manually diagnosed the causes of aborts and
 * serialization" by hacking execinfo into GCC's TM runtime (Section
 * 6); the per-site counters in tm/stats.h answer *how often*, this
 * recorder answers *in what order* and *for which request*:
 *
 *   - Ring bit (tmemc_server --trace, armTrace()): the flight
 *     recorder, a 4096-record ring per thread of begin / commit /
 *     abort / serial-switch / fault-site events, timestamped and
 *     tagged with the shard the thread last routed to, dumped on
 *     demand or, via the crash hook, on panic()/fatal().
 *   - Tail bit (tmemc_server --tail, tail::armTail()): request span
 *     chains. Conn::drainFrames mints a request ID when a frame becomes
 *     executable and records parse, execute, every transaction attempt
 *     (outcome, abort cause, serial mode, shard) and the flush wait
 *     until the reply's last byte left the socket queue. Only the K
 *     slowest requests per thread survive, in a top-K reservoir.
 *
 * While both bits are clear (the default) every hook is one relaxed
 * load of the arm word and a predictable branch, and no per-thread
 * state exists. The TM runtime makes one call per lifecycle event
 * (txBegin / txCause / txEnd); the slow path feeds whichever views the
 * loaded bits name. Armed, ring appends and reservoir inserts take the
 * thread's own mutex — uncontended except while a dump or snapshot
 * folds that thread — and the request builder is touched only by its
 * thread, so building a span chain takes no lock. Per-thread state
 * outlives its thread: the registry keeps shared ownership, so a
 * post-mortem dump or `stats tail` still shows exited workers.
 *
 * Transactions run outside a traced request (maintenance threads,
 * benches driving the cache in-process) find no active request; with
 * only the tail bit set they record nothing.
 */

#ifndef TMEMC_OBS_TRACE_H
#define TMEMC_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tmemc::obs
{

/** What happened (one flight-recorder record per event). */
enum class TraceEvent : std::uint8_t
{
    TxBegin,         //!< Top-level transaction attempt began.
    TxCommit,        //!< Top-level transaction committed.
    TxAbort,         //!< Attempt rolled back (conflict or CM).
    TxSerialSwitch,  //!< unsafeOp() forced an in-flight switch.
    FaultSiteHit,    //!< An armed fault-injection site was consulted.
};

/** Printable name for @p ev. */
const char *traceEventName(TraceEvent ev);

/** One flight-recorder record. */
struct TraceRecord
{
    std::uint64_t tsc;   //!< Monotonic ns stamp (nowNanos()).
    const char *site;    //!< Static site/attr name; never owned.
    std::uint32_t shard; //!< Shard the thread last routed to, else 0.
    TraceEvent event;
};

/** Records kept per thread before the ring wraps. */
constexpr std::size_t kTraceCapacity = 4096;

namespace tail
{

/** What one span covers. Exec overlaps the tx attempts it contains;
 *  spans are kept in open order, so the chain reads as a timeline. */
enum class SpanKind : std::uint8_t
{
    Parse,  //!< Frame carved out of the read buffer.
    Exec,   //!< Executor call: dispatch through cache and protocol.
    Tx,     //!< One top-level transaction attempt.
    Flush,  //!< Reply enqueued until its last byte left the out-queue.
};

/** How a transaction attempt ended. */
enum class TxOutcome : std::uint8_t
{
    None,      //!< Span still open (disarm mid-request, crash dump).
    Commit,    //!< Attempt committed.
    Abort,     //!< Data conflict (or CM decision) rolled it back.
    Switch,    //!< unsafeOp() forced a serial restart.
    Promote,   //!< Invisible-reader fast path promoted to full path.
    Retry,     //!< tm::retry(): rolled back and waited for a commit.
};

/** One span. Site/cause are static strings (TxnAttr names, literals);
 *  the span stores the pointer, never a copy. */
struct Span
{
    std::uint64_t t0 = 0;        //!< nowNanos() at open.
    std::uint64_t t1 = 0;        //!< nowNanos() at close (0: open).
    const char *site = nullptr;  //!< Tx: attr name.
    const char *cause = nullptr; //!< Tx: abort/switch/promote cause.
    std::uint32_t shard = 0;     //!< Shard routed when the span closed.
    std::uint32_t attempt = 0;   //!< Tx: 1-based attempt number.
    SpanKind kind = SpanKind::Exec;
    TxOutcome outcome = TxOutcome::None;
    bool serial = false;         //!< Tx: ran serial-irrevocable.
};

/** Spans kept per request before the chain stops growing (a retry
 *  storm must not grow one trace without bound). */
constexpr std::size_t kMaxTailSpans = 96;

/** Default reservoir depth per thread (and merged snapshot size). */
constexpr std::size_t kDefaultTailK = 32;

/** Largest reservoir depth tmemc_server accepts for --tail-k. */
constexpr std::size_t kMaxTailK = 4096;

/** One traced request: identity plus its complete span chain. */
struct RequestTrace
{
    std::uint64_t id = 0;       //!< Process-wide mint order, from 1.
    std::uint64_t startNs = 0;  //!< Parse began (nowNanos clock).
    std::uint64_t endNs = 0;    //!< Flush drained (or conn died).
    std::uint32_t worker = 0;   //!< Event-loop worker index.
    std::uint32_t shard = 0;    //!< Last shard the request routed to.
    bool binary = false;        //!< Protocol of the request frame.
    bool overflow = false;      //!< Spans dropped past kMaxTailSpans.
    std::vector<Span> spans;

    std::uint64_t totalNs() const { return endNs - startNs; }
};

/** Handle for a request whose reply is still flushing: the Conn holds
 *  it until the out-queue drains, then finishRequest() closes the
 *  flush span and offers the trace to the reservoir. */
using PendingTrace = std::shared_ptr<RequestTrace>;

} // namespace tail

namespace detail
{

constexpr unsigned kRingBit = 1u;  //!< Arm-word bit: flight recorder.
constexpr unsigned kTailBit = 2u;  //!< Arm-word bit: span chains.

// atom-protocol: armed-latch
extern std::atomic<unsigned> g_armed;

/** One relaxed load: the armed bits (0 while the recorder is off). */
inline unsigned
armedBits()
{
    return g_armed.load(std::memory_order_relaxed);
}

// Slow paths, reached only while a bit is set. Each first fetches the
// calling thread's recorder state, registering it on first use.
void traceRecordSlow(TraceEvent ev, const char *site,
                     std::uint32_t shard);
void noteShardSlow(std::uint32_t shard);
void txBeginSlow(unsigned bits, const char *site, bool serial,
                 std::uint32_t attempt);
void txCauseSlow(unsigned bits, tail::TxOutcome outcome,
                 const char *cause);
void txEndSlow(unsigned bits, tail::TxOutcome outcome, const char *site,
               bool serial);

} // namespace detail

/** One relaxed load: is the flight-recorder ring armed? */
inline bool
traceArmed()
{
    return (detail::armedBits() & detail::kRingBit) != 0;
}

/**
 * Ring append of @p ev at @p site (a static string: the ring stores
 * the pointer) and @p shard while the ring is armed; one load and a
 * branch otherwise. The TM runtime records through txBegin/txCause/
 * txEnd instead, which stamp the routed shard.
 */
// atom-nonblocking: one relaxed load and a branch while disarmed
inline void
traceRecord(TraceEvent ev, const char *site, std::uint32_t shard = 0)
{
    if (traceArmed())
        detail::traceRecordSlow(ev, site, shard);
}

/** This thread's operation routed to @p shard: stamped into its later
 *  ring records and, inside a traced request, into its spans. */
// atom-nonblocking: on every sharded cache op
inline void
noteShard(std::uint32_t shard)
{
    if (detail::armedBits() != 0)
        detail::noteShardSlow(shard);
}

/** A top-level attempt began: ring TxBegin, and a new Tx span inside a
 *  traced request. */
// atom-nonblocking: on every TM attempt
inline void
txBegin(const char *site, bool serial, std::uint32_t attempt)
{
    if (const unsigned bits = detail::armedBits())
        detail::txBeginSlow(bits, site, serial, attempt);
}

/** The open attempt is about to end with @p outcome (Switch: ring
 *  TxSerialSwitch; Promote: ring TxAbort) because of @p cause, a static
 *  string recorded as the ring site and the open Tx span's cause. */
// atom-nonblocking: on every in-flight switch and RO promotion
inline void
txCause(tail::TxOutcome outcome, const char *cause)
{
    if (const unsigned bits = detail::armedBits())
        detail::txCauseSlow(bits, outcome, cause);
}

/** The open attempt at @p site ended with @p outcome (@p serial: it ran
 *  serial-irrevocable): ring TxCommit / TxAbort for a commit or a
 *  conflict abort, and the open Tx span closes. */
// atom-nonblocking: on every TM commit, abort and retry
inline void
txEnd(tail::TxOutcome outcome, const char *site, bool serial)
{
    if (const unsigned bits = detail::armedBits())
        detail::txEndSlow(bits, outcome, site, serial);
}

/** Arm the ring and install the crash-dump hook. */
void armTrace();

/** Disarm the ring; rings keep their contents for a later dump. */
void disarmTrace();

/** Discard every ring's contents (test isolation). */
void resetTrace();

/**
 * Render every ring, one "t=<ns> thread=<n> <event> site=<name>
 * shard=<s>" line per record in per-thread ring order, oldest
 * surviving record first.
 */
std::string dumpTrace();

/** Total records currently held across all rings. */
std::uint64_t traceRecordCount();

/** Per-thread recorder states created so far: 0 means no hook has
 *  left its gate in this process. */
std::size_t recorderCount();

namespace tail
{

namespace detail
{

std::uint64_t beginRequestSlow(std::uint32_t worker, bool binary,
                               std::uint64_t parse_t0);
PendingTrace endRequestSlow();

/** Direct reservoir insert, bypassing the builder: the unit tests
 *  drive top-K/merge/wraparound invariants with fabricated traces. */
void offerTrace(PendingTrace trace);

} // namespace detail

/** One relaxed load: are request span chains armed? */
inline bool
tailArmed()
{
    return (obs::detail::armedBits() & obs::detail::kTailBit) != 0;
}

/**
 * Start tracing a request on this thread. @p parse_t0 is the stamp
 * taken before framing began; the parse span covers [parse_t0, now]
 * and the exec span opens at now. Returns the minted request ID, or 0
 * while disarmed (no state was touched).
 */
// atom-nonblocking: on every served request
inline std::uint64_t
beginRequest(std::uint32_t worker, bool binary, std::uint64_t parse_t0)
{
    if (!tailArmed())
        return 0;
    return detail::beginRequestSlow(worker, binary, parse_t0);
}

/**
 * Execution finished; the reply is queued but not yet on the wire.
 * Closes the exec span, opens the flush span, and detaches the trace
 * from the thread (a new request may begin). Returns null while
 * disarmed or when no request was being traced.
 */
// atom-nonblocking: on every traced request
inline PendingTrace
endRequest()
{
    if (!tailArmed())
        return nullptr;
    return detail::endRequestSlow();
}

/**
 * The connection's out-queue drained (or the connection died) at
 * @p end_ns: close the flush span and offer the finished trace to
 * this thread's reservoir. Null @p trace is ignored.
 */
void finishRequest(PendingTrace trace, std::uint64_t end_ns);

/** Arm span chains with per-thread reservoir depth @p k (also resets
 *  all reservoirs and the considered/kept counters). */
void armTail(std::size_t k = kDefaultTailK);

/** Disarm; reservoirs keep their contents for a later dump. */
void disarmTail();

/** Discard every reservoir's contents and counters (test isolation). */
void resetTail();

/** Reservoir depth currently armed (or last armed). */
std::size_t tailK();

/** Requests traced since the last arm/reset (kept or not). */
std::uint64_t tailConsidered();

/** Label the dumps with the serving branch and TM algorithm (the
 *  process-wide context every span chain shares). */
void setTailLabel(const std::string &branch, const std::string &algo);

/**
 * Merge every thread's reservoir into the K slowest traces overall,
 * slowest first. Traces are immutable once offered, so the returned
 * pointers are safe to render without any lock.
 */
std::vector<std::shared_ptr<const RequestTrace>> snapshotTail();

/**
 * `stats tail` body: STAT tail_armed/tail_k/tail_considered/tail_kept
 * rows, then one "STAT tail<rank> id=... spans=..." row per kept
 * request, slowest first. Span tokens are ';'-joined, each
 * "<kind>:<detail>:s<shard>:<dur_us>" — e.g.
 * "tx1:abort:conflict:mc.assoc.set:s3:412".
 */
std::string tailAsciiRows();

/** The whole snapshot as one tmemc-tail-v1 JSON object. */
std::string tailToJson();

/** Write tailToJson() to @p path. @return false on I/O error. */
bool writeTailJsonFile(const std::string &path);

} // namespace tail

} // namespace tmemc::obs

#endif // TMEMC_OBS_TRACE_H
