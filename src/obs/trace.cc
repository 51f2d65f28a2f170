/**
 * @file
 * Trace-recorder implementation: the per-thread state (flight-recorder
 * ring, request builder, top-K reservoir), the registry that keeps it
 * alive past thread exit, the crash-dump hook, and the dump / `stats
 * tail` / tmemc-tail-v1 renders.
 */

#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "common/fault.h"
#include "common/logging.h"
#include "obs/hist.h"
#include "obs/metrics.h"

namespace tmemc::obs
{

const char *
traceEventName(TraceEvent ev)
{
    switch (ev) {
      case TraceEvent::TxBegin:
        return "tx_begin";
      case TraceEvent::TxCommit:
        return "tx_commit";
      case TraceEvent::TxAbort:
        return "tx_abort";
      case TraceEvent::TxSerialSwitch:
        return "tx_serial_switch";
      case TraceEvent::FaultSiteHit:
        return "fault_site_hit";
    }
    return "?";
}

namespace
{

using tail::PendingTrace;
using tail::RequestTrace;
using tail::Span;
using tail::SpanKind;
using tail::TxOutcome;

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Parse:
        return "parse";
      case SpanKind::Exec:
        return "exec";
      case SpanKind::Tx:
        return "tx";
      case SpanKind::Flush:
        return "flush";
    }
    return "?";
}

const char *
txOutcomeName(TxOutcome outcome, bool serial)
{
    switch (outcome) {
      case TxOutcome::None:
        return "open";
      case TxOutcome::Commit:
        return serial ? "serial-commit" : "commit";
      case TxOutcome::Abort:
        return "abort";
      case TxOutcome::Switch:
        return "serial-switch";
      case TxOutcome::Promote:
        return "ro-promote";
      case TxOutcome::Retry:
        return "retry";
    }
    return "?";
}

/**
 * One thread's recorder state. `mu` guards the ring and the reservoir:
 * the owning thread takes it on every armed append or insert, a dump,
 * snapshot or reset takes it while folding — so recording stays
 * uncontended except during the fold itself. The request builder and
 * the routed shard are touched only by the owning thread, so building
 * a span chain takes no lock.
 */
struct Recorder
{
    std::mutex mu;
    std::uint64_t threadIndex = 0;

    // Flight-recorder ring, allocated on the first ring append.
    std::uint64_t written = 0;  //!< Monotonic; slot = written % cap.
    std::vector<TraceRecord> recs;

    // Tail reservoir: a min-heap (by total latency) of the K slowest
    // finished requests this thread served. minNs caches the heap
    // minimum once the reservoir is full, so a request faster than
    // everything kept is rejected with one relaxed load and no lock.
    // 0 means "not full yet: always take the lock".
    // atom-protocol: relaxed-ok(lock-free fast-reject floor only; a
    // stale read just means taking mu, the exact value lives under mu)
    std::atomic<std::uint64_t> minNs{0};
    std::vector<PendingTrace> keep;

    // Owner-only: the request being recorded (its exec span is
    // spans[kExecSpan]), the index of its open tx span, and the shard
    // this thread last routed to.
    PendingTrace cur;
    std::ptrdiff_t txIdx = -1;
    std::uint32_t shard = 0;

    void
    resetBuilder()
    {
        cur.reset();
        txIdx = -1;
        shard = 0;
    }
};

constexpr std::size_t kExecSpan = 1;  //!< After the parse span.

struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<Recorder>> recorders;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

Recorder &
myRecorder()
{
    thread_local std::shared_ptr<Recorder> rec = [] {
        auto r = std::make_shared<Recorder>();
        Registry &reg = registry();
        std::lock_guard<std::mutex> guard(reg.mu);
        r->threadIndex = reg.recorders.size();
        reg.recorders.push_back(r);
        return r;
    }();
    return *rec;
}

/** Copy the recorder list under the registry lock, then run @p fn on
 *  each recorder under its own lock; a concurrently-recording thread
 *  blocks only for its own fold. */
template <typename Fn>
void
forEachRecorder(Fn fn)
{
    std::vector<std::shared_ptr<Recorder>> recs;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> guard(reg.mu);
        recs = reg.recorders;
    }
    for (auto &rec : recs) {
        std::lock_guard<std::mutex> guard(rec->mu);
        fn(*rec);
    }
}

void
appendRing(Recorder &rec, TraceEvent ev, const char *site,
           std::uint32_t shard)
{
    std::lock_guard<std::mutex> guard(rec.mu);
    if (rec.recs.empty())
        rec.recs.resize(kTraceCapacity);
    TraceRecord &slot = rec.recs[rec.written % kTraceCapacity];
    slot.tsc = nowNanos();
    slot.site = site;
    slot.shard = shard;
    slot.event = ev;
    ++rec.written;
}

/** Crash hook: dump to stderr on panic()/fatal() while armed. */
void
crashDump()
{
    const std::string text = dumpTrace();
    std::fputs("--- obs flight recorder ---\n", stderr);
    std::fputs(text.c_str(), stderr);
    std::fputs("--- end flight recorder ---\n", stderr);
}

/** Fault-site hook target (common/fault.h knows nothing of obs). */
void
faultHit(const char *site)
{
    if (traceArmed()) {
        Recorder &rec = myRecorder();
        appendRing(rec, TraceEvent::FaultSiteHit, site, rec.shard);
    }
}

// atom-protocol: relaxed-counter
std::atomic<std::uint64_t> g_nextId{1};
// atom-protocol: relaxed-counter
std::atomic<std::uint64_t> g_considered{0};
// atom-protocol: relaxed-ok(config written before g_armed's release
// RMW; readers acquire the arm word in beginRequestSlow)
std::atomic<std::size_t> g_tailK{tail::kDefaultTailK};

std::mutex g_labelMu;
std::string g_branchLabel;
std::string g_algoLabel;

/** Heap order: smallest total latency at the front, so the cheapest
 *  kept trace is the one a slower newcomer evicts. */
bool
slowerThan(const PendingTrace &a, const PendingTrace &b)
{
    return a->totalNs() > b->totalNs();
}

const char *
defaultCause(TxOutcome outcome)
{
    switch (outcome) {
      case TxOutcome::Abort:
        return "conflict";
      case TxOutcome::Switch:
        return "unsafe-op";
      case TxOutcome::Promote:
        return "ro-promotion";
      case TxOutcome::Retry:
        return "tm::retry";
      case TxOutcome::Commit:
      case TxOutcome::None:
        break;
    }
    return nullptr;
}

std::uint64_t
spanDurNs(const Span &s)
{
    return s.t1 > s.t0 ? s.t1 - s.t0 : 0;
}

void
appendSpanAscii(std::ostringstream &os, const Span &s)
{
    char buf[192];
    if (s.kind == SpanKind::Tx) {
        std::snprintf(buf, sizeof(buf), "tx%u:%s:%s:%s:s%u:%llu",
                      s.attempt, txOutcomeName(s.outcome, s.serial),
                      s.cause != nullptr ? s.cause : "-",
                      s.site != nullptr ? s.site : "-", s.shard,
                      static_cast<unsigned long long>(spanDurNs(s) /
                                                      1000));
    } else {
        std::snprintf(buf, sizeof(buf), "%s:s%u:%llu",
                      spanKindName(s.kind), s.shard,
                      static_cast<unsigned long long>(spanDurNs(s) /
                                                      1000));
    }
    os << buf;
}

std::string
jsonEscape(const char *s)
{
    std::string out;
    for (; s != nullptr && *s != '\0'; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

namespace detail
{

// atom-protocol: armed-latch
std::atomic<unsigned> g_armed{0};

void
traceRecordSlow(TraceEvent ev, const char *site, std::uint32_t shard)
{
    appendRing(myRecorder(), ev, site, shard);
}

void
noteShardSlow(std::uint32_t shard)
{
    Recorder &rec = myRecorder();
    rec.shard = shard;
    if (rec.cur != nullptr)
        rec.cur->shard = shard;
}

void
txBeginSlow(unsigned bits, const char *site, bool serial,
            std::uint32_t attempt)
{
    Recorder &rec = myRecorder();
    if ((bits & kRingBit) != 0)
        appendRing(rec, TraceEvent::TxBegin, site, rec.shard);
    if ((bits & kTailBit) == 0 || rec.cur == nullptr)
        return;
    if (rec.cur->spans.size() >= tail::kMaxTailSpans) {
        rec.cur->overflow = true;
        rec.txIdx = -1;
        return;
    }
    Span s;
    s.kind = SpanKind::Tx;
    s.t0 = nowNanos();
    s.site = site;
    s.serial = serial;
    s.attempt = attempt;
    s.shard = rec.shard;
    rec.txIdx = static_cast<std::ptrdiff_t>(rec.cur->spans.size());
    rec.cur->spans.push_back(s);
}

void
txCauseSlow(unsigned bits, TxOutcome outcome, const char *cause)
{
    Recorder &rec = myRecorder();
    if ((bits & kRingBit) != 0) {
        appendRing(rec,
                   outcome == TxOutcome::Switch
                       ? TraceEvent::TxSerialSwitch
                       : TraceEvent::TxAbort,
                   cause, rec.shard);
    }
    if ((bits & kTailBit) != 0 && rec.cur != nullptr && rec.txIdx >= 0)
        rec.cur->spans[static_cast<std::size_t>(rec.txIdx)].cause = cause;
}

void
txEndSlow(unsigned bits, TxOutcome outcome, const char *site,
          bool serial)
{
    Recorder &rec = myRecorder();
    if ((bits & kRingBit) != 0 &&
        (outcome == TxOutcome::Commit || outcome == TxOutcome::Abort)) {
        appendRing(rec,
                   outcome == TxOutcome::Commit ? TraceEvent::TxCommit
                                                : TraceEvent::TxAbort,
                   site, rec.shard);
    }
    if ((bits & kTailBit) == 0 || rec.cur == nullptr || rec.txIdx < 0)
        return;
    Span &s = rec.cur->spans[static_cast<std::size_t>(rec.txIdx)];
    s.t1 = nowNanos();
    s.outcome = outcome;
    s.serial = s.serial || serial;
    s.shard = rec.shard;
    if (s.cause == nullptr)
        s.cause = defaultCause(outcome);
    rec.txIdx = -1;
}

} // namespace detail

void
armTrace()
{
    setCrashHook(&crashDump);
    fault::setHitHook(&faultHit);
    // Release: the hooks installed above (their own release stores)
    // plus any future arm-time config must be published before the
    // ring bit reads set (armed-latch protocol).
    detail::g_armed.fetch_or(detail::kRingBit, std::memory_order_release);
}

void
disarmTrace()
{
    detail::g_armed.fetch_and(~detail::kRingBit,
                              std::memory_order_release);
}

void
resetTrace()
{
    forEachRecorder([](Recorder &rec) { rec.written = 0; });
}

std::string
dumpTrace()
{
    std::ostringstream os;
    forEachRecorder([&os](Recorder &rec) {
        const std::uint64_t n = rec.written;
        const std::uint64_t first =
            n > kTraceCapacity ? n - kTraceCapacity : 0;
        if (n > kTraceCapacity) {
            os << "thread " << rec.threadIndex << ": "
               << (n - kTraceCapacity) << " older records overwritten\n";
        }
        for (std::uint64_t i = first; i < n; ++i) {
            const TraceRecord &r = rec.recs[i % kTraceCapacity];
            char buf[192];
            std::snprintf(buf, sizeof(buf),
                          "t=%llu thread=%llu %s site=%s shard=%u\n",
                          static_cast<unsigned long long>(r.tsc),
                          static_cast<unsigned long long>(
                              rec.threadIndex),
                          traceEventName(r.event),
                          r.site != nullptr ? r.site : "?", r.shard);
            os << buf;
        }
    });
    return os.str();
}

std::uint64_t
traceRecordCount()
{
    std::uint64_t total = 0;
    forEachRecorder([&total](Recorder &rec) {
        total += std::min<std::uint64_t>(rec.written, kTraceCapacity);
    });
    return total;
}

std::size_t
recorderCount()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> guard(reg.mu);
    return reg.recorders.size();
}

namespace tail
{

namespace detail
{

std::uint64_t
beginRequestSlow(std::uint32_t worker, bool binary,
                 std::uint64_t parse_t0)
{
    Recorder &rec = myRecorder();
    // Acquire re-read of the arm word: synchronizes with armTail()'s
    // release RMW, so the g_tailK/reservoir configuration written
    // before arming is visible to everything this request does. The
    // caller's relaxed fast-path gate proves nothing about that.
    if ((obs::detail::g_armed.load(std::memory_order_acquire) &
         obs::detail::kTailBit) == 0)
        return 0;
    // A stale in-flight trace (arm/disarm raced a request) is dropped;
    // requests on one thread never overlap otherwise.
    rec.resetBuilder();
    const std::uint64_t now = nowNanos();
    if (parse_t0 == 0 || parse_t0 > now)
        parse_t0 = now;
    auto trace = std::make_shared<RequestTrace>();
    trace->id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    trace->worker = worker;
    trace->binary = binary;
    trace->startNs = parse_t0;
    Span parse;
    parse.kind = SpanKind::Parse;
    parse.t0 = parse_t0;
    parse.t1 = now;
    trace->spans.push_back(parse);
    Span exec;
    exec.kind = SpanKind::Exec;
    exec.t0 = now;
    trace->spans.push_back(exec);
    rec.cur = std::move(trace);
    g_considered.fetch_add(1, std::memory_order_relaxed);
    return rec.cur->id;
}

PendingTrace
endRequestSlow()
{
    Recorder &rec = myRecorder();
    if (rec.cur == nullptr)
        return nullptr;
    const std::uint64_t now = nowNanos();
    // An attempt still open here means the tracer was toggled
    // mid-transaction; leave the span open rather than invent an end.
    rec.txIdx = -1;
    Span &exec = rec.cur->spans[kExecSpan];
    exec.t1 = now;
    exec.shard = rec.shard;
    if (rec.cur->spans.size() < kMaxTailSpans) {
        Span f;
        f.kind = SpanKind::Flush;
        f.t0 = now;
        f.shard = rec.shard;
        rec.cur->spans.push_back(f);
    } else {
        rec.cur->overflow = true;
    }
    PendingTrace out = std::move(rec.cur);
    rec.resetBuilder();
    return out;
}

void
offerTrace(PendingTrace trace)
{
    const std::size_t k = g_tailK.load(std::memory_order_relaxed);
    Recorder &r = myRecorder();
    const std::uint64_t total = trace->totalNs();
    const std::uint64_t floor = r.minNs.load(std::memory_order_relaxed);
    if (floor != 0 && total <= floor)
        return;  // Faster than everything kept: no lock taken.
    std::lock_guard<std::mutex> guard(r.mu);
    r.keep.push_back(std::move(trace));
    std::push_heap(r.keep.begin(), r.keep.end(), slowerThan);
    while (r.keep.size() > k) {
        std::pop_heap(r.keep.begin(), r.keep.end(), slowerThan);
        r.keep.pop_back();
    }
    r.minNs.store(r.keep.size() >= k ? r.keep.front()->totalNs() : 0,
                  std::memory_order_relaxed);
}

} // namespace detail

void
finishRequest(PendingTrace trace, std::uint64_t end_ns)
{
    if (trace == nullptr)
        return;
    if (end_ns < trace->startNs)
        end_ns = trace->startNs;
    trace->endNs = end_ns;
    if (!trace->spans.empty()) {
        Span &last = trace->spans.back();
        if (last.kind == SpanKind::Flush && last.t1 == 0)
            last.t1 = end_ns;
    }
    detail::offerTrace(std::move(trace));
}

void
armTail(std::size_t k)
{
    g_tailK.store(k == 0 ? kDefaultTailK : k,
                  std::memory_order_relaxed);
    resetTail();
    // Release publishes the K/reservoir configuration written above:
    // a worker that acquires the arm word in beginRequestSlow() must
    // see it (armed-latch protocol).
    obs::detail::g_armed.fetch_or(obs::detail::kTailBit,
                                  std::memory_order_release);
}

void
disarmTail()
{
    obs::detail::g_armed.fetch_and(~obs::detail::kTailBit,
                                   std::memory_order_release);
}

void
resetTail()
{
    forEachRecorder([](Recorder &rec) {
        rec.keep.clear();
        rec.minNs.store(0, std::memory_order_relaxed);
    });
    g_considered.store(0, std::memory_order_relaxed);
}

std::size_t
tailK()
{
    return g_tailK.load(std::memory_order_relaxed);
}

std::uint64_t
tailConsidered()
{
    return g_considered.load(std::memory_order_relaxed);
}

void
setTailLabel(const std::string &branch, const std::string &algo)
{
    std::lock_guard<std::mutex> guard(g_labelMu);
    g_branchLabel = branch;
    g_algoLabel = algo;
}

std::vector<std::shared_ptr<const RequestTrace>>
snapshotTail()
{
    std::vector<std::shared_ptr<const RequestTrace>> all;
    forEachRecorder([&all](Recorder &rec) {
        all.insert(all.end(), rec.keep.begin(), rec.keep.end());
    });
    std::sort(all.begin(), all.end(),
              [](const auto &a, const auto &b) {
                  if (a->totalNs() != b->totalNs())
                      return a->totalNs() > b->totalNs();
                  return a->id < b->id;
              });
    const std::size_t k = g_tailK.load(std::memory_order_relaxed);
    if (all.size() > k)
        all.resize(k);
    return all;
}

std::string
tailAsciiRows()
{
    const auto traces = snapshotTail();
    std::ostringstream os;
    os << "STAT tail_armed " << (tailArmed() ? 1 : 0) << "\r\n"
       << "STAT tail_k " << tailK() << "\r\n"
       << "STAT tail_considered " << tailConsidered() << "\r\n"
       << "STAT tail_kept " << traces.size() << "\r\n";
    std::size_t rank = 0;
    for (const auto &t : traces) {
        char head[160];
        std::snprintf(head, sizeof(head),
                      "STAT tail%zu id=%llu worker=%u shard=%u "
                      "binary=%d total_us=%llu spans=",
                      rank, static_cast<unsigned long long>(t->id),
                      t->worker, t->shard, t->binary ? 1 : 0,
                      static_cast<unsigned long long>(t->totalNs() /
                                                      1000));
        os << head;
        for (std::size_t i = 0; i < t->spans.size(); ++i) {
            if (i != 0)
                os << ';';
            appendSpanAscii(os, t->spans[i]);
        }
        if (t->overflow)
            os << ";...";
        os << "\r\n";
        ++rank;
    }
    return os.str();
}

std::string
tailToJson()
{
    const auto traces = snapshotTail();
    std::string branch;
    std::string algo;
    {
        std::lock_guard<std::mutex> guard(g_labelMu);
        branch = g_branchLabel;
        algo = g_algoLabel;
    }
    std::ostringstream os;
    os << "{\"schema\":\"tmemc-tail-v1\""
       << ",\"branch\":\"" << jsonEscape(branch.c_str()) << "\""
       << ",\"algo\":\"" << jsonEscape(algo.c_str()) << "\""
       << ",\"armed\":" << (tailArmed() ? "true" : "false")
       << ",\"k\":" << tailK()
       << ",\"considered\":" << tailConsidered()
       << ",\"kept\":" << traces.size() << ",\"requests\":[";
    bool first_req = true;
    for (const auto &t : traces) {
        if (!first_req)
            os << ',';
        first_req = false;
        os << "{\"id\":" << t->id << ",\"worker\":" << t->worker
           << ",\"shard\":" << t->shard
           << ",\"binary\":" << (t->binary ? "true" : "false")
           << ",\"start_ns\":" << t->startNs
           << ",\"total_ns\":" << t->totalNs()
           << ",\"overflow\":" << (t->overflow ? "true" : "false")
           << ",\"spans\":[";
        bool first_span = true;
        for (const Span &s : t->spans) {
            if (!first_span)
                os << ',';
            first_span = false;
            // t0 is trace-relative so timelines read from zero.
            const std::uint64_t rel =
                s.t0 > t->startNs ? s.t0 - t->startNs : 0;
            os << "{\"kind\":\"" << spanKindName(s.kind) << "\""
               << ",\"shard\":" << s.shard << ",\"t0_ns\":" << rel
               << ",\"dur_ns\":" << spanDurNs(s);
            if (s.kind == SpanKind::Tx) {
                os << ",\"attempt\":" << s.attempt
                   << ",\"outcome\":\""
                   << txOutcomeName(s.outcome, s.serial) << "\""
                   << ",\"serial\":" << (s.serial ? "true" : "false")
                   << ",\"site\":\""
                   << jsonEscape(s.site != nullptr ? s.site : "") << "\""
                   << ",\"cause\":\""
                   << jsonEscape(s.cause != nullptr ? s.cause : "")
                   << "\"";
            }
            os << '}';
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

bool
writeTailJsonFile(const std::string &path)
{
    return writeTextFile(path, tailToJson() + "\n");
}

} // namespace tail

} // namespace tmemc::obs
