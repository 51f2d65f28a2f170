/**
 * @file
 * tmemc_loadgen: the benchmark's closed-loop memslap client.
 *
 * Each of --threads client threads owns a window of --window keys
 * (23-byte memslap keys, thread id embedded), preloads it unmeasured,
 * then issues gets and sets (--set-frac) for --seconds, each request
 * sent only after the previous reply arrived. Keys are uniform or
 * Zipf (--zipf THETA) over the window; values are a deterministic
 * function of (--seed, thread, index), and since each key has exactly
 * one writer, every GET hit must carry exactly that value.
 *
 * Modes:
 *   served   drive an external tmemc_server (--port, --server-pid);
 *            reads the server's /proc counters and its `stats` and
 *            `metrics` admin replies around the measured phase, and
 *            checks its served count once the load connections close.
 *   preload  set up (connect to the external server at --port, or
 *            build the in-process rig when --port is 0), preload and
 *            exit: set-up timing for repeated starts.
 *   local    host the cache in this process: through an in-process
 *            net::Server over loopback (--net 1) or by direct
 *            CacheIface calls (--net 0). --spans 1 wraps the cache in
 *            a SpanCache and keeps every round trip and cache-call
 *            span in memory until the run ends.
 *
 * --plant wrong-value|lost-reply corrupts the run on purpose: a side
 * writer stores wrong bytes under 100 window keys, or one request is
 * sent that the server answers with nothing (a quiet binary get of a
 * missing key). Either must make the run report failures.
 *
 * Output: one JSON object of raw counts and timings on stdout; the
 * metric arithmetic lives in run.py.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "mc/sharded_cache.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "span_cache.h"
#include "tm/runtime.h"
#include "workload/memslap.h"

namespace
{

using namespace tmemc;
using benchmark::LatencyHist;
using benchmark::Span;
using benchmark::SpanCache;
using benchmark::SpanKind;

constexpr std::size_t kKeySize = 23;
constexpr std::uint64_t kPlantKeys = 100;

struct Opts
{
    std::string mode = "local";
    std::string proto = "ascii";
    std::string branch = "IT-onCommit";
    std::uint32_t threads = 2;
    std::uint32_t workers = 2;
    std::uint64_t window = 10000;
    std::size_t valueSize = 100;
    double setFrac = 0.1;
    double zipf = 0.0;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::uint16_t port = 0;
    int serverPid = 0;
    std::size_t memMb = 0;  //!< 0: the cache's default limit.
    bool net = false;
    bool spans = false;
    std::string plant = "none";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "tmemc_loadgen: %s\n", why);
    std::exit(2);
}

Opts
parseArgs(int argc, char **argv)
{
    Opts o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--mode")
            o.mode = v;
        else if (a == "--proto")
            o.proto = v;
        else if (a == "--branch")
            o.branch = v;
        else if (a == "--threads")
            o.threads = static_cast<std::uint32_t>(std::atoi(v));
        else if (a == "--workers")
            o.workers = static_cast<std::uint32_t>(std::atoi(v));
        else if (a == "--window")
            o.window = std::strtoull(v, nullptr, 10);
        else if (a == "--value-size")
            o.valueSize = std::strtoull(v, nullptr, 10);
        else if (a == "--set-frac")
            o.setFrac = std::atof(v);
        else if (a == "--zipf")
            o.zipf = std::atof(v);
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--port")
            o.port = static_cast<std::uint16_t>(std::atoi(v));
        else if (a == "--server-pid")
            o.serverPid = std::atoi(v);
        else if (a == "--mem")
            o.memMb = std::strtoull(v, nullptr, 10);
        else if (a == "--net")
            o.net = std::atoi(v) != 0;
        else if (a == "--spans")
            o.spans = std::atoi(v) != 0;
        else if (a == "--plant")
            o.plant = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (o.threads == 0 || o.window == 0 || o.valueSize < 16 ||
        o.valueSize > 60 * 1024 ||
        o.seconds <= 0)
        usage("threads, window and seconds must be positive; "
              "value-size 16 B to 60 KiB");
    if (o.proto != "ascii" && o.proto != "binary")
        usage("--proto must be ascii or binary");
    if (o.plant != "none" && o.plant != "wrong-value" &&
        o.plant != "lost-reply")
        usage("--plant must be none, wrong-value or lost-reply");
    if (o.mode == "served" && o.port == 0)
        usage("served mode needs --port");
    if (o.mode != "served" && o.mode != "preload" && o.mode != "local")
        usage("--mode must be served, preload or local");
    return o;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

// ----------------------------------------------------------------------
// Inputs: keys and the deterministic values they must hold
// ----------------------------------------------------------------------

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Repeating a..z, long enough to copy any value's tail from. */
const std::string &
letters()
{
    static const std::string s = [] {
        std::string v;
        while (v.size() < 64 * 1024)
            v += "abcdefghijklmnopqrstuvwxyz";
        return v;
    }();
    return s;
}

/** The value (seed, thread, index) must hold: a 16-hex-digit stamp,
 *  then letters from a stamp-chosen offset. @p out has room for
 *  @p n bytes, 16 <= n <= 60 KiB. */
void
formatValue(char *out, std::size_t n, std::uint64_t seed,
            std::uint32_t thread, std::uint64_t index)
{
    const std::uint64_t h =
        mix64(seed ^ mix64((std::uint64_t{thread} << 40) ^ index));
    char stamp[17];
    std::snprintf(stamp, sizeof(stamp), "%016llx",
                  static_cast<unsigned long long>(h));
    std::memcpy(out, stamp, 16);
    std::memcpy(out + 16, letters().data() + h % 26, n - 16);
}

/** Per-thread request stream, reproducible from the seed. */
class OpStream
{
  public:
    OpStream(const Opts &o, std::uint32_t thread)
        : rng_(mix64(o.seed * 0x100000001b3ull + thread + 1)),
          window_(o.window), setFrac_(o.setFrac)
    {
        if (o.zipf > 0)
            zipf_ = std::make_unique<ZipfSampler>(o.window, o.zipf);
    }

    /** Next (key index, is-set). */
    std::pair<std::uint64_t, bool>
    next()
    {
        const std::uint64_t idx =
            zipf_ ? zipf_->sample(rng_) : rng_.nextBounded(window_);
        return {idx, rng_.nextDouble() < setFrac_};
    }

  private:
    XorShift128 rng_;
    std::unique_ptr<ZipfSampler> zipf_;
    std::uint64_t window_;
    double setFrac_;
};

// ----------------------------------------------------------------------
// Targets: one thread's way of executing an op, plus the output check
// ----------------------------------------------------------------------

enum class Outcome
{
    Hit,
    Miss,
    Stored,
    Wrong,      //!< A hit whose bytes differ from the expected value.
    Lost,       //!< No reply (timeout or dead connection).
    StoreFail,  //!< A set answered with anything but STORED / Ok.
};

/** Executes gets and sets for one client thread. */
class Target
{
  public:
    virtual ~Target() = default;
    virtual Outcome get(const char *key, const char *expect,
                        std::size_t vlen) = 0;
    virtual Outcome set(const char *key, const char *val,
                        std::size_t vlen) = 0;
    /** Requests put on the wire (net targets only). */
    std::uint64_t sent = 0;
};

class NetTarget final : public Target
{
  public:
    explicit NetTarget(bool binary) : binary_(binary) {}

    bool
    connect(std::uint16_t port)
    {
        if (!client_.connect("127.0.0.1", port, 5000))
            return false;
        client_.setRecvTimeout(5000);
        return true;
    }

    void close() { client_.close(); }

    Outcome
    get(const char *key, const char *expect, std::size_t vlen) override
    {
        ++sent;
        const std::string k(key, kKeySize);
        if (binary_) {
            const std::string reply =
                client_.roundTripBinary(mc::binRequest(mc::BinOp::Get, k));
            if (reply.empty())
                return lost();
            mc::BinResponse r;
            if (mc::binParseResponse(reply, r) == 0)
                return Outcome::Wrong;
            if (r.status == mc::BinStatus::KeyNotFound)
                return Outcome::Miss;
            if (r.status != mc::BinStatus::Ok || r.value.size() != vlen ||
                std::memcmp(r.value.data(), expect, vlen) != 0)
                return Outcome::Wrong;
            return Outcome::Hit;
        }
        const std::string reply = client_.roundTripAscii("get " + k + "\r\n");
        if (reply.empty())
            return lost();
        if (reply == "END\r\n")
            return Outcome::Miss;
        std::string want = "VALUE " + k + " 0 " + std::to_string(vlen) +
                           "\r\n";
        want.append(expect, vlen);
        want.append("\r\nEND\r\n");
        return reply == want ? Outcome::Hit : Outcome::Wrong;
    }

    Outcome
    set(const char *key, const char *val, std::size_t vlen) override
    {
        ++sent;
        const std::string k(key, kKeySize);
        if (binary_) {
            const std::string reply = client_.roundTripBinary(
                mc::binSetRequest(k, std::string(val, vlen)));
            if (reply.empty())
                return lost();
            mc::BinResponse r;
            return mc::binParseResponse(reply, r) != 0 &&
                           r.status == mc::BinStatus::Ok
                       ? Outcome::Stored
                       : Outcome::StoreFail;
        }
        std::string req =
            "set " + k + " 0 0 " + std::to_string(vlen) + "\r\n";
        req.append(val, vlen);
        req.append("\r\n");
        const std::string reply = client_.roundTripAscii(req);
        if (reply.empty())
            return lost();
        return reply == "STORED\r\n" ? Outcome::Stored : Outcome::StoreFail;
    }

    /** The planted lost reply: a quiet get of a missing key is served
     *  but never answered, so the round trip times out. */
    Outcome
    quietGetMissing()
    {
        ++sent;
        const std::string reply = client_.roundTripBinary(
            mc::binRequest(mc::BinOp::GetQ, "benchmark-plant-no-such-key"));
        return reply.empty() ? lost() : Outcome::Wrong;
    }

  private:
    Outcome
    lost()
    {
        // A dead socket is re-dialled so one loss does not take down
        // every later op of the thread.
        client_.ensureConnected(5000);
        return Outcome::Lost;
    }

    net::Client client_;
    bool binary_;
};

class CacheTarget final : public Target
{
  public:
    CacheTarget(mc::CacheIface &cache, std::uint32_t tid, std::size_t vlen)
        : cache_(cache), tid_(tid), out_(vlen + 64)
    {
    }

    Outcome
    get(const char *key, const char *expect, std::size_t vlen) override
    {
        const auto r = cache_.get(tid_, key, kKeySize, out_.data(),
                                  out_.size());
        if (r.status == mc::OpStatus::Miss)
            return Outcome::Miss;
        if (r.status != mc::OpStatus::Ok || r.vlen != vlen ||
            std::memcmp(out_.data(), expect, vlen) != 0)
            return Outcome::Wrong;
        return Outcome::Hit;
    }

    Outcome
    set(const char *key, const char *val, std::size_t vlen) override
    {
        return cache_.store(tid_, key, kKeySize, val, vlen) == mc::OpStatus::Ok
                   ? Outcome::Stored
                   : Outcome::StoreFail;
    }

  private:
    mc::CacheIface &cache_;
    std::uint32_t tid_;
    std::vector<char> out_;
};

// ----------------------------------------------------------------------
// Per-thread results
// ----------------------------------------------------------------------

struct ThreadResult
{
    std::uint64_t ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t wrong = 0;
    std::uint64_t lost = 0;
    std::uint64_t storeFail = 0;
    std::uint64_t preloadOps = 0;
    std::uint64_t preloadFail = 0;
    std::uint64_t genNs = 0;  //!< Time between a reply and the next send.
    std::uint64_t endNs = 0;  //!< obs::nowNanos() after the last op.
    /** The measured phase cut into one-second windows, so the
     *  reported rate and latencies can be medians over windows. */
    struct Window
    {
        std::uint64_t ops = 0;
        LatencyHist getLat;
        LatencyHist setLat;
    };
    std::vector<Window> windows;
    std::vector<Span> rtt;    //!< --spans: one span per round trip.

    void
    count(Outcome o)
    {
        switch (o) {
          case Outcome::Hit: ++hits; break;
          case Outcome::Miss: ++misses; break;
          case Outcome::Stored: break;
          case Outcome::Wrong: ++wrong; break;
          case Outcome::Lost: ++lost; break;
          case Outcome::StoreFail: ++storeFail; break;
        }
    }
};

/** Store every key of @p thread's window once, checking each reply. */
void
preloadWindow(const Opts &o, std::uint32_t thread, Target &target,
              ThreadResult &res)
{
    char key[kKeySize + 1];
    std::vector<char> val(o.valueSize);
    for (std::uint64_t i = 0; i < o.window; ++i) {
        workload::formatKey(key, kKeySize, thread, i);
        formatValue(val.data(), o.valueSize, o.seed, thread, i);
        ++res.preloadOps;
        if (target.set(key, val.data(), o.valueSize) != Outcome::Stored)
            ++res.preloadFail;
    }
}

/** The planted wrong value: the same keys, one byte off. */
void
plantWrongValues(const Opts &o, Target &side)
{
    char key[kKeySize + 1];
    std::vector<char> val(o.valueSize);
    for (std::uint64_t i = 0; i < std::min(kPlantKeys, o.window); ++i) {
        workload::formatKey(key, kKeySize, 0, i);
        formatValue(val.data(), o.valueSize, o.seed, 0, i);
        val[o.valueSize - 1] = val[o.valueSize - 1] == 'z' ? 'y' : 'z';
        side.set(key, val.data(), o.valueSize);
    }
}

/** Start line for the measured phase. */
struct StartGate
{
    // atom-protocol: relaxed-counter
    std::atomic<std::uint32_t> ready{0};
    // atom-protocol: release-acquire-pair
    std::atomic<bool> go{false};
    std::uint64_t startNs = 0;
    std::uint64_t deadlineNs = 0;

    void
    arriveAndWait()
    {
        ready.fetch_add(1, std::memory_order_relaxed);
        while (!go.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    void
    waitAll(std::uint32_t n) const
    {
        while (ready.load(std::memory_order_relaxed) < n)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    void
    open(double seconds)
    {
        startNs = obs::nowNanos();
        deadlineNs = startNs + static_cast<std::uint64_t>(seconds * 1e9);
        go.store(true, std::memory_order_release);
    }
};

/** One-second windows over the measured phase (at least one). */
std::uint64_t
windowCount(const Opts &o)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(o.seconds + 0.5));
}

/** (steal, total) jiffies of the whole machine, from /proc/stat. */
std::pair<std::uint64_t, std::uint64_t>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 10 && in >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

/** The closed loop: one op after another until the deadline. */
void
measuredLoop(const Opts &o, std::uint32_t thread, OpStream &stream,
             Target &target, const StartGate &gate, bool keep_spans,
             ThreadResult &res)
{
    char key[kKeySize + 1];
    std::vector<char> val(o.valueSize);
    std::uint64_t prev_end = gate.startNs;
    if (keep_spans)
        res.rtt.reserve(1u << 20);
    const std::uint64_t nwin = windowCount(o);
    res.windows.resize(nwin);
    const std::uint64_t span_ns = gate.deadlineNs - gate.startNs;
    for (;;) {
        const auto [idx, is_set] = stream.next();
        workload::formatKey(key, kKeySize, thread, idx);
        formatValue(val.data(), o.valueSize, o.seed, thread, idx);
        const std::uint64_t t0 = obs::nowNanos();
        const Outcome out = is_set
                                ? target.set(key, val.data(), o.valueSize)
                                : target.get(key, val.data(), o.valueSize);
        const std::uint64_t t1 = obs::nowNanos();
        res.genNs += t0 - prev_end;
        prev_end = t1;
        ++res.ops;
        res.count(out);
        const std::uint64_t w =
            std::min((t1 - gate.startNs) * nwin / span_ns, nwin - 1);
        ThreadResult::Window &win = res.windows[w];
        ++win.ops;
        if (is_set) {
            ++res.sets;
            win.setLat.record(t1 - t0);
        } else {
            ++res.gets;
            win.getLat.record(t1 - t0);
        }
        if (keep_spans)
            res.rtt.push_back({t0, t1, is_set ? SpanKind::Store
                                              : SpanKind::Get});
        if (t1 >= gate.deadlineNs)
            break;
    }
    res.endNs = prev_end;
}

// ----------------------------------------------------------------------
// Outside views: /proc, rusage, the admin commands
// ----------------------------------------------------------------------

struct ProcSample
{
    std::map<std::string, std::uint64_t> io;  //!< /proc/<pid>/io
    std::uint64_t utimeTicks = 0;
    std::uint64_t stimeTicks = 0;
    std::uint64_t voluntarySwitches = 0;      //!< Summed over threads.
};

std::map<std::string, std::uint64_t>
readKeyValues(const std::string &path)
{
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        out[line.substr(0, colon)] =
            std::strtoull(line.c_str() + colon + 1, nullptr, 10);
    }
    return out;
}

ProcSample
sampleProc(int pid)
{
    const std::string base = "/proc/" + std::to_string(pid);
    ProcSample s;
    s.io = readKeyValues(base + "/io");
    {
        std::ifstream in(base + "/stat");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        // Fields after the parenthesised command name; utime and
        // stime are fields 14 and 15 of the whole line.
        const std::size_t rp = text.rfind(')');
        if (rp != std::string::npos) {
            std::istringstream rest(text.substr(rp + 2));
            std::string field;
            for (int f = 3; f <= 15 && rest >> field; ++f) {
                if (f == 14)
                    s.utimeTicks = std::strtoull(field.c_str(), nullptr, 10);
                if (f == 15)
                    s.stimeTicks = std::strtoull(field.c_str(), nullptr, 10);
            }
        }
    }
    if (DIR *d = ::opendir((base + "/task").c_str())) {
        while (dirent *e = ::readdir(d)) {
            if (e->d_name[0] == '.')
                continue;
            const auto kv = readKeyValues(base + "/task/" + e->d_name +
                                          "/status");
            const auto it = kv.find("voluntary_ctxt_switches");
            if (it != kv.end())
                s.voluntarySwitches += it->second;
        }
        ::closedir(d);
    }
    return s;
}

std::uint64_t
peakRssKb(int pid)
{
    const auto kv = readKeyValues("/proc/" + std::to_string(pid) +
                                  "/status");
    const auto it = kv.find("VmHWM");
    return it == kv.end() ? 0 : it->second;
}

/** User and system CPU of this process, in seconds. */
std::pair<double, double>
cpuSecondsSelf()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return {ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6,
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6};
}

/** Counter names in a `metrics` JSON line → values. */
std::map<std::string, std::uint64_t>
parseMetricsCounters(const std::string &json)
{
    std::map<std::string, std::uint64_t> out;
    const std::size_t start = json.find("\"counters\":{");
    const std::size_t end = json.find('}', start);
    if (start == std::string::npos || end == std::string::npos)
        return out;
    std::size_t pos = start + 12;
    while (pos < end) {
        const std::size_t q1 = json.find('"', pos);
        const std::size_t q2 = json.find('"', q1 + 1);
        if (q1 == std::string::npos || q2 == std::string::npos || q2 > end)
            break;
        out[json.substr(q1 + 1, q2 - q1 - 1)] =
            std::strtoull(json.c_str() + q2 + 2, nullptr, 10);
        pos = json.find(',', q2);
        if (pos == std::string::npos)
            break;
        ++pos;
    }
    return out;
}

/** The admin side channel to an external server. */
class Admin
{
  public:
    bool
    connect(std::uint16_t port)
    {
        if (!client_.connect("127.0.0.1", port, 5000))
            return false;
        client_.setRecvTimeout(5000);
        return true;
    }

    /** `metrics` counters; empty on failure. */
    std::map<std::string, std::uint64_t>
    metrics()
    {
        const std::string json = client_.roundTripAscii("metrics\r\n");
        std::string end;
        if (json.empty() || !client_.recvAscii(end) || end != "END\r\n")
            return {};
        return parseMetricsCounters(json);
    }

    /** `stats` rows; empty on failure. */
    std::map<std::string, std::uint64_t>
    stats()
    {
        std::map<std::string, std::uint64_t> out;
        std::istringstream in(client_.roundTripAscii("stats\r\n"));
        std::string tag, name, value;
        while (in >> tag && tag == "STAT" && in >> name >> value)
            out[name] = std::strtoull(value.c_str(), nullptr, 10);
        return out;
    }

  private:
    net::Client client_;
};

// ----------------------------------------------------------------------
// JSON output
// ----------------------------------------------------------------------

class JsonOut
{
  public:
    void
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        add(k, buf);
    }
    void
    u64(const std::string &k, std::uint64_t v)
    {
        add(k, std::to_string(v));
    }
    void
    list(const std::string &k, const std::vector<double> &vs)
    {
        std::string s = "[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", vs[i]);
            s += buf;
        }
        add(k, s + "]");
    }
    void print() const { std::printf("{%s}\n", body_.c_str()); }

  private:
    void
    add(const std::string &k, const std::string &v)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + k + "\":" + v;
    }
    std::string body_;
};

/** Fold the per-thread results into the output. */
void
emitClientResults(JsonOut &out, std::vector<ThreadResult> &res,
                  std::uint64_t start_ns)
{
    ThreadResult all;
    std::uint64_t end_ns = start_ns;
    for (const ThreadResult &r : res) {
        all.ops += r.ops;
        all.gets += r.gets;
        all.sets += r.sets;
        all.hits += r.hits;
        all.misses += r.misses;
        all.wrong += r.wrong;
        all.lost += r.lost;
        all.storeFail += r.storeFail;
        all.preloadOps += r.preloadOps;
        all.preloadFail += r.preloadFail;
        all.genNs += r.genNs;
        end_ns = std::max(end_ns, r.endNs);
    }
    out.u64("ops", all.ops);
    out.u64("gets", all.gets);
    out.u64("sets", all.sets);
    out.u64("hits", all.hits);
    out.u64("misses", all.misses);
    out.u64("wrong", all.wrong);
    out.u64("lost", all.lost);
    out.u64("store_fail", all.storeFail);
    out.u64("preload_ops", all.preloadOps);
    out.u64("preload_fail", all.preloadFail);
    out.num("elapsed_s", static_cast<double>(end_ns - start_ns) / 1e9);
    out.num("gen_ns", static_cast<double>(all.genNs));
    // Per-window rate and latency, merged across threads.
    const std::size_t nwin = res.empty() ? 0 : res[0].windows.size();
    std::vector<double> w_ops, w_get50, w_get99, w_set50, w_set99;
    for (std::size_t w = 0; w < nwin; ++w) {
        ThreadResult::Window merged;
        for (const ThreadResult &r : res) {
            merged.ops += r.windows[w].ops;
            merged.getLat.merge(r.windows[w].getLat);
            merged.setLat.merge(r.windows[w].setLat);
        }
        w_ops.push_back(static_cast<double>(merged.ops));
        w_get50.push_back(merged.getLat.quantileUs(0.50));
        w_get99.push_back(merged.getLat.quantileUs(0.99));
        w_set50.push_back(merged.setLat.quantileUs(0.50));
        w_set99.push_back(merged.setLat.quantileUs(0.99));
    }
    out.list("window_ops", w_ops);
    out.list("window_get_p50_us", w_get50);
    out.list("window_get_p99_us", w_get99);
    out.list("window_set_p50_us", w_set50);
    out.list("window_set_p99_us", w_set99);
}

/** The counted run's TM counters, as "tm_*" deltas. */
void
emitTm(JsonOut &out, const tm::StatBlock &a, const tm::StatBlock &b)
{
    const std::string p = "tm_";
    out.u64(p + "txns", b.txns - a.txns);
    out.u64(p + "commits", b.commits - a.commits);
    out.u64(p + "aborts", b.aborts - a.aborts);
    out.u64(p + "retries", b.retries - a.retries);
    out.u64(p + "start_serial", b.startSerial - a.startSerial);
    out.u64(p + "inflight_switch", b.inflightSwitch - a.inflightSwitch);
    out.u64(p + "abort_serial", b.abortSerial - a.abortSerial);
    out.u64(p + "serial_commits", b.serialCommits - a.serialCommits);
    out.u64(p + "rofast_commits", b.roFastCommits - a.roFastCommits);
    out.u64(p + "rofast_promotions", b.roPromotions - a.roPromotions);
}

/** Per-site commit/abort deltas, keyed by site name. */
void
emitSites(JsonOut &out, const tm::StatsSnapshot &a,
          const tm::StatsSnapshot &b)
{
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> sites;
    for (const auto &[attr, blk] : b.perSite) {
        auto &s = sites[attr->name];
        s.first += blk.commits;
        s.second += blk.aborts;
    }
    for (const auto &[attr, blk] : a.perSite) {
        auto &s = sites[attr->name];
        s.first -= blk.commits;
        s.second -= blk.aborts;
    }
    for (const auto &[name, ca] : sites) {
        if (ca.first == 0 && ca.second == 0)
            continue;
        out.u64("site." + name + ".commits", ca.first);
        out.u64("site." + name + ".aborts", ca.second);
    }
}

// ----------------------------------------------------------------------
// Modes
// ----------------------------------------------------------------------

/** Connect one client per thread; false if any fails. */
bool
connectAll(const Opts &o, std::uint16_t port,
           std::vector<std::unique_ptr<NetTarget>> &out)
{
    for (std::uint32_t t = 0; t < o.threads; ++t) {
        out.push_back(std::make_unique<NetTarget>(o.proto == "binary"));
        if (!out.back()->connect(port))
            return false;
    }
    return true;
}

/** Run @p body(t) for every client thread t; join them. */
template <typename Fn>
void
onThreads(const Opts &o, Fn body)
{
    std::vector<std::thread> ts;
    for (std::uint32_t t = 0; t < o.threads; ++t)
        ts.emplace_back([&body, t] { body(t); });
    for (auto &t : ts)
        t.join();
}

/**
 * Preload and the measured phase, on the same client threads: each
 * preloads its window and waits at the gate; once all are there,
 * @p before takes the "before" views (and plants, if asked), then the
 * gate opens and the threads run until the deadline, while this thread
 * records each window's host steal in @p windowSteal.
 */
template <typename Before>
void
runMeasured(const Opts &o, const std::vector<Target *> &targets,
            std::vector<ThreadResult> &res, StartGate &gate,
            std::vector<double> &windowSteal, Before before)
{
    std::vector<std::unique_ptr<OpStream>> streams;
    for (std::uint32_t t = 0; t < o.threads; ++t)
        streams.push_back(std::make_unique<OpStream>(o, t));
    std::vector<std::thread> ts;
    for (std::uint32_t t = 0; t < o.threads; ++t) {
        ts.emplace_back([&, t] {
            preloadWindow(o, t, *targets[t], res[t]);
            gate.arriveAndWait();
            measuredLoop(o, t, *streams[t], *targets[t], gate,
                         o.spans, res[t]);
        });
    }
    gate.waitAll(o.threads);
    before();
    gate.open(o.seconds);
    // The share of the machine's CPU time the hypervisor took away
    // (steal) in each window: the host's interference, not ours.
    const std::uint64_t nwin = windowCount(o);
    auto prev = cpuTicks();
    for (std::uint64_t w = 1; w <= nwin; ++w) {
        const std::uint64_t at = gate.startNs + (gate.deadlineNs -
                                                 gate.startNs) * w / nwin;
        const std::uint64_t now = obs::nowNanos();
        if (at > now)
            std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
        const auto cur = cpuTicks();
        windowSteal.push_back(
            cur.second > prev.second
                ? static_cast<double>(cur.first - prev.first) /
                      static_cast<double>(cur.second - prev.second)
                : 0.0);
        prev = cur;
    }
    for (auto &t : ts)
        t.join();
}

/** Apply --plant through a side channel (@p side); returns its result. */
ThreadResult
applyPlant(const Opts &o, Target *side)
{
    ThreadResult r;
    if (o.plant == "wrong-value" && side != nullptr)
        plantWrongValues(o, *side);
    if (o.plant == "lost-reply") {
        auto *net_side = dynamic_cast<NetTarget *>(side);
        if (net_side == nullptr)
            usage("--plant lost-reply needs a network target");
        r.count(net_side->quietGetMissing());
    }
    return r;
}

tm::StatBlock
statBlockFromMetrics(const std::map<std::string, std::uint64_t> &m)
{
    auto get = [&m](const char *k) {
        const auto it = m.find(k);
        return it == m.end() ? 0 : it->second;
    };
    tm::StatBlock b;
    b.txns = get("tm_txns");
    b.commits = get("tm_commits");
    b.aborts = get("tm_aborts");
    b.retries = get("tm_retries");
    b.startSerial = get("tm_start_serial");
    b.inflightSwitch = get("tm_inflight_switch");
    b.abortSerial = get("tm_abort_serial");
    b.serialCommits = get("tm_serial_commits");
    b.roFastCommits = get("tm_rofast_commits");
    b.roPromotions = get("tm_rofast_promotions");
    return b;
}

void
emitFailures(JsonOut &out, const ThreadResult &plant, std::uint64_t sent,
             std::uint64_t served)
{
    out.u64("plant_lost", plant.lost);
    out.u64("plant_wrong", plant.wrong);
    out.u64("requests_sent", sent);
    out.u64("requests_served", served);
}

int
runServed(const Opts &o)
{
    const auto setup_t0 = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<NetTarget>> clients;
    Admin admin;
    if (!connectAll(o, o.port, clients) ||
        !admin.connect(o.port)) {
        std::fprintf(stderr, "tmemc_loadgen: cannot connect\n");
        return 1;
    }
    std::vector<ThreadResult> res(o.threads);
    std::vector<Target *> targets;
    for (auto &c : clients)
        targets.push_back(c.get());
    std::unique_ptr<NetTarget> side;
    ThreadResult plant;
    std::map<std::string, std::uint64_t> m0, s0;
    ProcSample p0;
    std::pair<double, double> cpu0;
    double setup_s = 0;
    StartGate gate;
    std::vector<double> steal;
    runMeasured(o, targets, res, gate, steal, [&] {
        setup_s = secondsSince(setup_t0);
        if (o.plant != "none") {
            side = std::make_unique<NetTarget>(o.proto == "binary");
            if (side->connect(o.port))
                plant = applyPlant(o, side.get());
            else
                ++plant.lost;
        }
        m0 = admin.metrics();
        s0 = admin.stats();
        // Let the server finish the admin replies' trailing reads
        // before the syscall counters are sampled.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        p0 = sampleProc(o.serverPid);
        cpu0 = cpuSecondsSelf();
    });
    const auto cpu1 = cpuSecondsSelf();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const ProcSample p1 = sampleProc(o.serverPid);
    const auto m1 = admin.metrics();
    const auto s1 = admin.stats();
    const std::uint64_t rss_kb = peakRssKb(o.serverPid);

    // Close the load connections, then wait until the server has
    // retired them: its served count covers closed connections only.
    std::uint64_t sent = side ? side->sent : 0;
    for (auto &c : clients) {
        sent += c->sent;
        c->close();
    }
    if (side)
        side->close();
    std::uint64_t served = 0;
    for (int i = 0; i < 250; ++i) {
        const auto m = admin.metrics();
        const auto conns = m.find("net_curr_connections");
        if (conns != m.end() && conns->second == 1) {
            served = m.at("net_requests_served");
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    JsonOut out;
    out.num("setup_s", setup_s);
    emitClientResults(out, res, gate.startNs);
    out.list("window_steal", steal);
    emitFailures(out, plant, sent, served);
    out.num("client_cpu_s",
            cpu1.first + cpu1.second - cpu0.first - cpu0.second);
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    out.num("server_user_s",
            static_cast<double>(p1.utimeTicks - p0.utimeTicks) / tick);
    out.num("server_sys_s",
            static_cast<double>(p1.stimeTicks - p0.stimeTicks) / tick);
    out.u64("server_voluntary_switches",
            p1.voluntarySwitches - p0.voluntarySwitches);
    for (const char *k : {"syscr", "syscw", "rchar", "wchar"}) {
        const auto a = p0.io.find(k);
        const auto b = p1.io.find(k);
        if (a != p0.io.end() && b != p1.io.end())
            out.u64(std::string("server_") + k, b->second - a->second);
    }
    out.num("rss_mb", static_cast<double>(rss_kb) / 1024.0);
    emitTm(out, statBlockFromMetrics(m0), statBlockFromMetrics(m1));
    auto delta = [](const std::map<std::string, std::uint64_t> &a,
                    const std::map<std::string, std::uint64_t> &b,
                    const char *k) -> std::uint64_t {
        const auto ia = a.find(k);
        const auto ib = b.find(k);
        if (ia == a.end() || ib == b.end())
            return 0;
        return ib->second - ia->second;
    };
    out.u64("mc_evictions", delta(s0, s1, "evictions"));
    out.u64("mc_hash_expansions",
            s1.count("hash_expansions") ? s1.at("hash_expansions") : 0);
    out.print();
    return 0;
}

/** One in-process set-up: the cache, its optional server and tracer,
 *  and connected clients. */
struct LocalRig
{
    std::unique_ptr<mc::CacheIface> cache;
    std::unique_ptr<SpanCache> spans;
    std::unique_ptr<net::Server> server;
    std::vector<std::unique_ptr<NetTarget>> netClients;
    std::vector<std::unique_ptr<CacheTarget>> cacheClients;
    std::vector<Target *> targets;

    mc::CacheIface &front() { return spans ? *spans : *cache; }

    ~LocalRig()
    {
        netClients.clear();
        if (server)
            server->stop();
    }
};

std::unique_ptr<LocalRig>
buildRig(const Opts &o)
{
    auto rig = std::make_unique<LocalRig>();
    tm::Runtime::get().configure(mc::runtimeCfgFor(o.branch));
    mc::Settings settings;
    if (o.memMb != 0)
        settings.maxBytes = o.memMb * 1024 * 1024;
    const std::uint32_t tids = o.net ? o.workers : o.threads;
    rig->cache = mc::makeShardedCache(o.branch, settings, tids, 1);
    if (rig->cache == nullptr)
        usage(("unknown branch " + o.branch).c_str());
    if (o.spans)
        rig->spans = std::make_unique<SpanCache>(*rig->cache, tids);
    if (o.net) {
        net::ServerCfg cfg;  // Default I/O backend, like tmemc_server.
        cfg.port = 0;
        cfg.workers = o.workers;
        rig->server = std::make_unique<net::Server>(rig->front(), cfg);
        if (!rig->server->start() ||
            !connectAll(o, rig->server->port(), rig->netClients)) {
            std::fprintf(stderr, "tmemc_loadgen: in-process server "
                                 "failed to start\n");
            std::exit(1);
        }
        for (auto &c : rig->netClients)
            rig->targets.push_back(c.get());
    } else {
        for (std::uint32_t t = 0; t < o.threads; ++t) {
            rig->cacheClients.push_back(std::make_unique<CacheTarget>(
                rig->front(), t, o.valueSize));
            rig->targets.push_back(rig->cacheClients.back().get());
        }
    }
    return rig;
}

/** Span totals of one SpanCache run. */
void
emitSpans(JsonOut &out, const SpanCache &sc,
          const std::vector<ThreadResult> &res)
{
    LatencyHist get_call;
    LatencyHist store_call;
    std::uint64_t cache_ns = 0;
    std::uint64_t per_kind[benchmark::kSpanKinds] = {};
    for (std::uint32_t t = 0; t < sc.tids(); ++t) {
        for (const Span &s : sc.spans(t)) {
            const std::uint64_t d = s.t1 - s.t0;
            cache_ns += d;
            ++per_kind[static_cast<unsigned>(s.kind)];
            if (s.kind == SpanKind::Store)
                store_call.record(d);
            else if (s.kind != SpanKind::Release)
                get_call.record(d);
        }
    }
    std::uint64_t rtt_ns = 0;
    std::uint64_t rtt_n = 0;
    for (const ThreadResult &r : res) {
        for (const Span &s : r.rtt)
            rtt_ns += s.t1 - s.t0;
        rtt_n += r.rtt.size();
    }
    out.u64("span_rtt_count", rtt_n);
    out.num("span_rtt_ns", static_cast<double>(rtt_ns));
    out.num("span_cache_ns", static_cast<double>(cache_ns));
    out.u64("span_get_calls", per_kind[unsigned(SpanKind::Get)] +
                                  per_kind[unsigned(SpanKind::Pinned)]);
    out.u64("span_pinned_gets", per_kind[unsigned(SpanKind::Pinned)]);
    out.num("get_call_p50_us", get_call.quantileUs(0.50));
    out.num("get_call_p99_us", get_call.quantileUs(0.99));
    out.num("store_call_p50_us", store_call.quantileUs(0.50));
    out.num("store_call_p99_us", store_call.quantileUs(0.99));
}

/** Set-up only: connect to --port (or build the in-process rig when
 *  --port is 0), preload, report the time. One set-up per process, so
 *  repeated set-ups start from the same state. */
int
runPreload(const Opts &o)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<LocalRig> rig;
    std::vector<std::unique_ptr<NetTarget>> clients;
    std::vector<Target *> targets;
    if (o.port == 0) {
        rig = buildRig(o);
        targets = rig->targets;
    } else {
        if (!connectAll(o, o.port, clients)) {
            std::fprintf(stderr, "tmemc_loadgen: cannot connect\n");
            return 1;
        }
        for (auto &c : clients)
            targets.push_back(c.get());
    }
    std::vector<ThreadResult> res(o.threads);
    onThreads(o, [&](std::uint32_t t) {
        preloadWindow(o, t, *targets[t], res[t]);
    });
    const double setup_s = secondsSince(t0);
    JsonOut out;
    out.num("setup_s", setup_s);
    std::uint64_t fail = 0;
    for (const auto &r : res)
        fail += r.preloadFail;
    out.u64("preload_fail", fail);
    out.print();
    return 0;
}

int
runLocal(const Opts &o)
{
    const auto setup_t0 = std::chrono::steady_clock::now();
    std::unique_ptr<LocalRig> rig = buildRig(o);
    std::vector<ThreadResult> res(o.threads);
    double setup_s = 0;

    std::unique_ptr<NetTarget> side_net;
    std::unique_ptr<CacheTarget> side_cache;
    ThreadResult plant;
    tm::StatsSnapshot tm0;
    mc::GlobalStats g0;
    std::pair<double, double> cpu0;
    StartGate gate;
    std::vector<double> steal;
    runMeasured(o, rig->targets, res, gate, steal, [&] {
        setup_s = secondsSince(setup_t0);
        if (o.plant != "none") {
            Target *side = nullptr;
            if (o.net) {
                side_net = std::make_unique<NetTarget>(o.proto == "binary");
                if (side_net->connect(rig->server->port()))
                    side = side_net.get();
            } else {
                // Thread 0 is parked at the gate, so its tid is free.
                side_cache = std::make_unique<CacheTarget>(*rig->cache, 0,
                                                           o.valueSize);
                side = side_cache.get();
            }
            plant = applyPlant(o, side);
        }
        tm0 = tm::Runtime::get().snapshot();
        g0 = rig->cache->globalStats();
        obs::MetricsRegistry::get().resetHistograms();
        if (rig->spans)
            rig->spans->arm();
        cpu0 = cpuSecondsSelf();
    });
    const auto cpu1 = cpuSecondsSelf();
    if (rig->spans)
        rig->spans->disarm();
    const tm::StatsSnapshot tm1 = tm::Runtime::get().snapshot();
    const mc::GlobalStats g1 = rig->cache->globalStats();
    const obs::HistCounts tx =
        obs::hist(obs::HistKind::Tx).snapshot();

    std::uint64_t sent = side_net ? side_net->sent : 0;
    std::uint64_t served = 0;
    if (o.net) {
        for (auto &c : rig->netClients)
            sent += c->sent;
        rig->netClients.clear();
        side_net.reset();
        // stop() retires every connection and joins the loops, which
        // also makes the server-side spans safe to read.
        rig->server->stop();
        served = rig->server->requestsServed();
    }

    JsonOut out;
    out.num("setup_s", setup_s);
    emitClientResults(out, res, gate.startNs);
    out.list("window_steal", steal);
    emitFailures(out, plant, sent, served);
    out.num("process_user_s", cpu1.first - cpu0.first);
    out.num("process_sys_s", cpu1.second - cpu0.second);
    out.num("rss_mb", static_cast<double>(peakRssKb(::getpid())) / 1024.0);
    emitTm(out, tm0.total, tm1.total);
    emitSites(out, tm0, tm1);
    out.u64("mc_evictions", g1.evictions - g0.evictions);
    out.u64("mc_hash_expansions", g1.hashExpansions);
    out.num("tx_sum_ns", benchmark::histSumNs(tx));
    out.num("tx_p50_us", benchmark::histQuantileUs(tx, 0.50));
    out.num("tx_p99_us", benchmark::histQuantileUs(tx, 0.99));
    if (rig->spans)
        emitSpans(out, *rig->spans, res);
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Opts o = parseArgs(argc, argv);
    if (o.mode == "preload")
        return runPreload(o);
    if (o.mode == "served")
        return runServed(o);
    return runLocal(o);
}
