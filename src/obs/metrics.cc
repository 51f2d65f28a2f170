/**
 * @file
 * MetricsRegistry implementation: source registry, snapshot fold, and
 * the three render targets (JSON, `stats latency`, `stats tm`).
 */

#include "obs/metrics.h"

#include <cstdio>

namespace tmemc::obs
{

const char *
histKindName(HistKind k)
{
    switch (k) {
      case HistKind::Command:
        return "cmd";
      case HistKind::CacheOp:
        return "op";
      case HistKind::Tx:
        return "tx";
      case HistKind::TxSerial:
        return "tx_serial";
      case HistKind::TxAttempts:
        return "tx_attempts";
    }
    return "?";
}

MetricsRegistry &
MetricsRegistry::get()
{
    static MetricsRegistry instance;
    return instance;
}

std::uint64_t
MetricsRegistry::registerSource(std::string prefix, SourceFn fn)
{
    std::lock_guard<std::mutex> guard(mu_);
    const std::uint64_t token = nextToken_++;
    sources_.push_back({token, std::move(prefix), std::move(fn)});
    return token;
}

void
MetricsRegistry::unregisterSource(std::uint64_t token)
{
    std::lock_guard<std::mutex> guard(mu_);
    std::erase_if(sources_,
                  [token](const Source &s) { return s.token == token; });
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    // Sources are invoked under mu_ so that unregisterSource() is a
    // real barrier: once it returns, the callback can no longer be
    // running (Server::stop() relies on this before tearing down the
    // loops its source reads). The price is the documented rule that
    // source callbacks must not call back into the registry.
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> guard(mu_);
    for (const Source &src : sources_) {
        for (Counter &c : src.fn()) {
            snap.counters.push_back(
                {src.prefix + "_" + c.name, c.value});
        }
    }
    for (unsigned k = 0; k < kHistKinds; ++k)
        snap.hists[k] = hists_[k].snapshot().summary();
    return snap;
}

void
MetricsRegistry::resetHistograms()
{
    for (unsigned k = 0; k < kHistKinds; ++k)
        hists_[k].reset();
}

bool
MetricsRegistry::writeJsonFile(const std::string &path) const
{
    return writeTextFile(path, snapshot().toJson());
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

namespace
{

/** Append "\"name\":value" for a double, trimmed to 3 decimals. */
void
jsonNum(std::string &out, const char *name, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", name, v);
    out += buf;
}

void
jsonU64(std::string &out, const char *name, std::uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%llu", name,
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
statRow(std::string &out, const char *name, std::uint64_t v)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "STAT %s %llu\r\n", name,
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
statRowF(std::string &out, const char *name, double v)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "STAT %s %.3f\r\n", name, v);
    out += buf;
}

/** The five STAT rows one histogram contributes. */
void
statHistRows(std::string &out, const char *prefix, const HistSummary &s)
{
    char name[64];
    std::snprintf(name, sizeof(name), "lat_%s_count", prefix);
    statRow(out, name, s.count);
    const struct
    {
        const char *suffix;
        double v;
    } rows[] = {{"p50_us", s.p50Us},
                {"p95_us", s.p95Us},
                {"p99_us", s.p99Us},
                {"p999_us", s.p999Us},
                {"max_us", s.maxUs}};
    for (const auto &r : rows) {
        std::snprintf(name, sizeof(name), "lat_%s_%s", prefix, r.suffix);
        statRowF(out, name, r.v);
    }
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{\"schema\":\"tmemc-metrics-v1\",\"counters\":{";
    bool first = true;
    for (const Counter &c : counters) {
        if (!first)
            out += ",";
        first = false;
        jsonU64(out, c.name.c_str(), c.value);
    }
    out += "},\"latency\":{";
    for (unsigned k = 0; k < kHistKinds; ++k) {
        if (k != 0)
            out += ",";
        out += "\"";
        out += histKindName(static_cast<HistKind>(k));
        out += "\":{";
        const HistSummary &s = hists[k];
        jsonU64(out, "count", s.count);
        out += ",";
        jsonNum(out, "p50_us", s.p50Us);
        out += ",";
        jsonNum(out, "p95_us", s.p95Us);
        out += ",";
        jsonNum(out, "p99_us", s.p99Us);
        out += ",";
        jsonNum(out, "p999_us", s.p999Us);
        out += ",";
        jsonNum(out, "max_us", s.maxUs);
        out += "}";
    }
    out += "}}";
    return out;
}

std::string
MetricsSnapshot::asciiLatencyRows() const
{
    std::string out;
    for (unsigned k = 0; k < kHistKinds; ++k) {
        statHistRows(out, histKindName(static_cast<HistKind>(k)),
                     hists[k]);
    }
    return out;
}

std::string
MetricsSnapshot::asciiClusterRows() const
{
    std::string out;
    for (const Counter &c : counters) {
        if (c.name.rfind("cluster_", 0) == 0)
            statRow(out, c.name.c_str(), c.value);
    }
    return out;
}

std::string
MetricsSnapshot::asciiTmRows() const
{
    std::string out;
    for (const Counter &c : counters) {
        if (c.name.rfind("tm_", 0) == 0)
            statRow(out, c.name.c_str(), c.value);
    }
    const HistKind tmHists[] = {HistKind::Tx, HistKind::TxSerial,
                                HistKind::TxAttempts};
    for (HistKind k : tmHists)
        statHistRows(out, histKindName(k), hists[unsigned(k)]);
    return out;
}

} // namespace tmemc::obs
