#include "ledger.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/metrics.h"
#include "support/logging.h"

#ifndef LAYERBENCH_BUILD_TYPE
#define LAYERBENCH_BUILD_TYPE "unknown"
#endif

namespace layerbench {

using mips::support::strprintf;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

// ------------------------------------------------------------- spans

namespace {

/** Open spans on this thread (1-based ids), innermost last. */
thread_local std::vector<uint32_t> t_open;

uint32_t
threadTag()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t tag = next.fetch_add(1) + 1;
    return tag;
}

} // namespace

uint32_t
Tracer::current()
{
    return t_open.empty() ? 0 : t_open.back();
}

uint32_t
Tracer::open(const char *name, uint32_t item, uint32_t parent)
{
    SpanRecord r;
    r.name = name;
    r.item = item;
    r.parent = parent ? parent : current();
    r.tid = threadTag();
    r.phase = phase_.load();
    r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - epoch_)
                     .count();
    uint32_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(r);
        id = static_cast<uint32_t>(spans_.size());
    }
    t_open.push_back(id);
    return id;
}

void
Tracer::close(uint32_t id)
{
    int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, OpStats>
Tracer::aggregate(uint32_t mask) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord &s : spans_)
        if (s.parent && spans_[s.parent - 1].tid == s.tid)
            child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    std::map<std::string, std::vector<double>> self_us;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        if (!(s.phase & mask))
            continue;
        int64_t self = s.end_ns - s.start_ns - child_ns[i];
        self_us[s.name].push_back(static_cast<double>(self) / 1e3);
    }
    std::map<std::string, OpStats> out;
    for (auto &[name, us] : self_us) {
        OpStats &op = out[name];
        op.calls = us.size();
        for (double v : us)
            op.self_ms += v / 1e3;
        op.self_us_p50 = median(std::move(us));
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs("{\"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %u, "
                     "\"item\": %u}}",
                     i ? ",\n" : "", s.name, s.tid,
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     i + 1, s.parent, s.item);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

// ------------------------------------------------------------ stats

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

std::pair<double, double>
tailPercentile(std::vector<double> v)
{
    if (v.empty())
        return {0, 0};
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    // Rank k (0-based) leaves n-1-k samples above it.
    size_t k = n > 10 ? n - 11 : n - 1;
    size_t k99 = static_cast<size_t>(std::ceil(0.99 * n)) - 1;
    k = std::min(k, k99);
    return {v[k], 100.0 * static_cast<double>(k + 1) /
                      static_cast<double>(n)};
}

std::pair<double, double>
blockedTail(const std::vector<double> &samples)
{
    constexpr size_t kMinBlock = 1000;
    constexpr size_t kMaxBlocks = 5;
    size_t blocks =
        std::clamp<size_t>(samples.size() / kMinBlock, 1, kMaxBlocks);
    std::vector<double> tails, pcts;
    for (size_t b = 0; b < blocks; ++b) {
        auto first = samples.begin() +
                     static_cast<ptrdiff_t>(samples.size() * b / blocks);
        auto last = samples.begin() + static_cast<ptrdiff_t>(
                                          samples.size() * (b + 1) / blocks);
        auto [tail, pct] = tailPercentile(std::vector<double>(first, last));
        tails.push_back(tail);
        pcts.push_back(pct);
    }
    return {median(std::move(tails)), median(std::move(pcts))};
}

// ------------------------------------------------- resource usage

namespace {

Usage
fromRusage(const rusage &ru)
{
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    u.minflt = static_cast<uint64_t>(ru.ru_minflt);
    u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

} // namespace

Usage
Usage::operator-(const Usage &o) const
{
    Usage d;
    d.user_s = user_s - o.user_s;
    d.sys_s = sys_s - o.sys_s;
    d.minflt = minflt - o.minflt;
    d.maxrss_mb = maxrss_mb;
    return d;
}

Usage &
Usage::operator+=(const Usage &o)
{
    user_s += o.user_s;
    sys_s += o.sys_s;
    minflt += o.minflt;
    maxrss_mb = std::max(maxrss_mb, o.maxrss_mb);
    return *this;
}

Usage
processUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return fromRusage(ru);
}

Usage
threadUsage()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return fromRusage(ru);
}

// --------------------------------------------------- registry deltas

Counters
Counters::read()
{
    Counters c;
    for (const mips::obs::Sample &s :
         mips::obs::Registry::instance().snapshot().samples)
        if (s.kind == mips::obs::MetricKind::COUNTER)
            c.values_[s.name] = s.counter_value;
    return c;
}

uint64_t
Counters::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
}

uint64_t
Counters::sum(const std::string &prefix, const std::string &suffix) const
{
    uint64_t n = 0;
    for (auto it = values_.lower_bound(prefix);
         it != values_.end() && it->first.compare(0, prefix.size(),
                                                  prefix) == 0;
         ++it) {
        const std::string &k = it->first;
        if (k.size() > prefix.size() + suffix.size() &&
            k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0)
            n += it->second;
    }
    return n;
}

Counters
Counters::delta(const Counters &before) const
{
    Counters d;
    for (const auto &[name, v] : values_)
        d.values_[name] = v - before.get(name);
    return d;
}

Counters &
Counters::operator+=(const Counters &o)
{
    for (const auto &[name, v] : o.values_)
        values_[name] += v;
    return *this;
}

// ------------------------------------------------------------- host

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += strprintf("\\u%04x", c);
        else
            out += c;
    }
    return out + "\"";
}

namespace {

#if defined(__clang__)
const std::string kCompiler = std::string("clang ") + __clang_version__;
#else
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#endif

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000, nullptr);
    if (max_ext >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        size_t a = s.find_first_not_of(' ');
        size_t b = s.find_last_not_of(' ');
        return a == std::string::npos ? "" : s.substr(a, b - a + 1);
    }
#endif
    return "unknown";
}

} // namespace

CpuRotation::CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            cpus_.push_back(cpu);
}

CpuRotation &
CpuRotation::get()
{
    static CpuRotation rotation;
    return rotation;
}

void
CpuRotation::pin(unsigned turn, unsigned threads)
{
    if (cpus_.size() <= threads)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned i = 0; i < threads; ++i)
        CPU_SET(cpus_[(turn + i) % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

std::string
hostFingerprintJson()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int usable = sched_getaffinity(0, sizeof(set), &set) == 0
                     ? CPU_COUNT(&set)
                     : 0;
    return strprintf(
        "{\"cores\": %u, \"usable_cores\": %d, \"cpu_model\": %s, "
        "\"compiler\": %s, \"build_type\": %s}",
        std::thread::hardware_concurrency(), usable,
        jsonQuote(cpuModel()).c_str(),
        jsonQuote(kCompiler).c_str(),
        jsonQuote(LAYERBENCH_BUILD_TYPE).c_str());
}

} // namespace layerbench
