/**
 * @file
 * The benchmark's own measurement plumbing: spans around its calls into
 * each layer, per-operation aggregation (self time, calls, median),
 * percentiles, process resource usage, deltas of the toolchain's
 * obs::Registry, and the host fingerprint.
 *
 * Spans live in a buffer owned by the benchmark (never the toolchain's
 * bounded obs::Tracer ring), so a traced run drops none; they are
 * written out as a Chrome trace when the run ends.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace layerbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);
double msSince(Clock::time_point start);

// ------------------------------------------------------------- spans

/** One timed call into a layer. `parent` is 1-based (0 = root). */
struct SpanRecord
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t parent = 0;
    uint32_t item = 0;
    uint32_t tid = 0;
    uint32_t phase = 0;
};

/** Aggregate of every span with one name. */
struct OpStats
{
    /** Summed self time: duration minus that of the children on the
     *  same thread (children on other threads ran in parallel). */
    double self_ms = 0;
    uint64_t calls = 0;
    double self_us_p50 = 0;
};

/**
 * Span sink. When constructed off, `Scope` costs one branch. Thread
 * safe; spans from BatchRunner workers name their cause explicitly.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }

    /** Open a span; returns its 1-based id (0 when tracing is off).
     *  The parent is the innermost span open on this thread, or
     *  `parent` when given (a span on another thread that caused it). */
    uint32_t open(const char *name, uint32_t item, uint32_t parent = 0);
    void close(uint32_t id);

    /** Innermost span open on the calling thread (0 if none). */
    static uint32_t current();

    /** Tag spans opened from now on (on any thread) with `phase`. */
    void setPhase(uint32_t phase) { phase_.store(phase); }

    /** Aggregate, by name, the spans whose phase is in `mask`. */
    std::map<std::string, OpStats> aggregate(uint32_t mask) const;

    size_t size() const;

    /** Write every span as Chrome trace events; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on_;
    Clock::time_point epoch_;
    std::atomic<uint32_t> phase_{0};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; ///< guarded by mu_
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, uint32_t item = 0,
          uint32_t parent = 0)
        : tracer_(tracer),
          id_(tracer.on() ? tracer.open(name, item, parent) : 0)
    {
    }
    ~Scope()
    {
        if (id_)
            tracer_.close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    uint32_t id_;
};

// ------------------------------------------------------------ stats

double median(std::vector<double> v);

/** The `q` quantile (0..1) of `v`, interpolated between order
 *  statistics as Python's statistics.quantiles(method="inclusive")
 *  does; 0 for an empty vector. */
double quantile(std::vector<double> v, double q);

/**
 * The host's contended speed over a run: the slower quartile of
 * repeated measurements — the 75th percentile of times, or the 25th
 * of rates. On a shared 4-vCPU Xeon VM, a process's speed moves
 * between a steady floor and bursts up to 1.5× faster lasting seconds;
 * the share of a run spent in bursts varies from run to run, and a
 * median jumps with it, while the slower quartile stays on the floor
 * unless bursts fill most of the run.
 */
inline double
slowTime(std::vector<double> times)
{
    return quantile(std::move(times), 0.75);
}
inline double
slowRate(std::vector<double> rates)
{
    return quantile(std::move(rates), 0.25);
}

/**
 * The highest percentile that leaves at least ten samples beyond it,
 * capped at the 99th. Returns {value, percentile}; with fewer than 11
 * samples the maximum is returned.
 */
std::pair<double, double> tailPercentile(std::vector<double> v);

/**
 * tailPercentile() of `samples` (in time order) taken within each of up
 * to five consecutive blocks of at least 1000 samples — enough for the
 * 99th percentile to keep ten beyond it — and the median over blocks.
 * A host slowdown confined to part of the run then moves one block's
 * tail, not the result. Fewer than 2000 samples form a single block.
 */
std::pair<double, double> blockedTail(const std::vector<double> &samples);

// ------------------------------------------------- resource usage

struct Usage
{
    double user_s = 0;
    double sys_s = 0;
    uint64_t minflt = 0;
    double maxrss_mb = 0;

    Usage operator-(const Usage &o) const;
    Usage &operator+=(const Usage &o);
};

Usage processUsage();
Usage threadUsage();

// --------------------------------------------------- registry deltas

/** A counter-by-name view of obs::Registry; `delta` subtracts. */
class Counters
{
  public:
    static Counters read();
    uint64_t get(const std::string &name) const;
    /** Sum of the counters named `prefix` + anything + `suffix`. */
    uint64_t sum(const std::string &prefix, const std::string &suffix) const;
    Counters delta(const Counters &before) const;
    Counters &operator+=(const Counters &o);

  private:
    std::map<std::string, uint64_t> values_;
};

// ------------------------------------------------------ placement

/**
 * Moves the calling thread to a different set of the usable CPUs at
 * each turn, so that a run samples every vCPU instead of the one the
 * scheduler settled on. On a shared VM each vCPU's speed drifts on its
 * own (a busy neighbour on the same physical core), and a run left on
 * one vCPU reports that vCPU's luck. Threads started after a pin
 * inherit its set. main() turns once per round; a workload whose
 * rounds are few and long turns once per item.
 */
class CpuRotation
{
  public:
    /** The process's rotation over the CPUs usable at its first call;
     *  main() makes that call before anything is pinned. */
    static CpuRotation &get();

    /** Pin to `threads` consecutive usable CPUs, starting at `turn`;
     *  no-op if fewer than `threads` + 1 are usable. */
    void pin(unsigned turn, unsigned threads);

  private:
    CpuRotation();

    std::vector<int> cpus_;
};

// ------------------------------------------------------------- host

/** Host fingerprint as a JSON object. */
std::string hostFingerprintJson();

/** JSON string literal. */
std::string jsonQuote(const std::string &s);

} // namespace layerbench
