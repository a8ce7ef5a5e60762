/**
 * @file
 * layerbench: the repository's benchmark program.
 *
 *   layerbench --workload corpus_chain|fuzz_diff|sim_long --seed N
 *              --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Sets the workload up, then runs rounds — a cold pass and a warm pass —
 * as a closed loop until S seconds have passed (at least two rounds).
 * Eight more set-ups, spread over the loop and thrown away, give the
 * set-up time its median. The exact counts of every cold pass must
 * equal the first's. Times and rates are the slower quartile over
 * passes (slowTime/slowRate in ledger.h). Each round runs on the next
 * of the usable CPUs (CpuRotation).
 *
 * With --trace 0 the last stdout line reports the end-to-end metrics;
 * with --trace 1 each round runs an untraced cold pass, a traced one,
 * the probe and the warm pass, and the line reports the per-layer
 * metrics (see README.md), each normalised per traced round. The line
 * before it carries the host fingerprint and run details. Exit status
 * is 0 only when every operation and check passed.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cfg_count.h"
#include "ledger.h"
#include "obs/catalog.h"
#include "support/logging.h"
#include "workload.h"

namespace {

using layerbench::Clock;
using layerbench::secondsSince;
using mips::support::strprintf;

constexpr size_t kSetupRuns = 9;

/** Span phases: set-up, traced cold passes, everything else. */
enum Phase : uint32_t
{
    SETUP = 1,
    PASS = 2,
    OTHER = 4,
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string trace_out;
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v, &end, 10);
            have_seed = *v && !*end;
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v, &end);
            if (!*v || *end)
                return false;
        } else if (k == "--trace") {
            a->trace = std::strcmp(v, "1") == 0   ? 1
                       : std::strcmp(v, "0") == 0 ? 0
                                                  : -1;
        } else if (k == "--trace-out") {
            a->trace_out = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a->workload.empty() && have_seed &&
           a->seconds > 0 && a->trace >= 0;
}

std::unique_ptr<layerbench::Workload>
makeWorkload(const std::string &name)
{
    if (name == "corpus_chain")
        return layerbench::makeCorpusChain();
    if (name == "fuzz_diff")
        return layerbench::makeFuzzDiff();
    if (name == "sim_long")
        return layerbench::makeSimLong();
    return nullptr;
}

/** Ordered metric list rendered as the result's `metrics` object. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        body_ += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           body_.empty() ? "" : ", ", name.c_str(), value,
                           unit);
    }
    const std::string &json() const { return body_; }

  private:
    std::string body_;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** Operations timed by spans, in report order. */
const char *const kOps[] = {
    "plc.compile",   "asm.assemble",   "reorg.reorganize", "verify.hazard",
    "verify.tv",     "verify.cfg",     "verify.cost",      "verify.range",
    "sim.simulate",  "sim.setup",      "sim.map_setup",    "sim.run",
    "sim.run_mapped", "sim.run_profiled", "sim.functional", "pipeline.hit",
    "fuzz.generate", "fuzz.diff",
};

/** The Session stages reported one by one. Totals (`pipeline.lookups`
 *  and the rest) sum every `pipeline.<stage>.*` counter instead, so a
 *  stage added later is counted there too. */
const char *const kStages[] = {
    "parse",         "compile",
    "assemble",      "reorganize",
    "hazard-verify", "translation-validate",
    "simulate",      "cost",
    "range",
};

int
run(const Args &args)
{
    mips::obs::registerBuiltinMetrics();
    layerbench::CpuRotation::get();
    const bool traced = args.trace == 1;
    layerbench::Tracer tracer(traced);
    layerbench::Tracer off(false);

    // ---- set-up: the workload the loop runs, then throwaway set-ups
    // spread over the loop, so their median sees the same host as the
    // passes do.
    std::vector<double> setup_s;
    auto setUp = [&](layerbench::Tracer &t) {
        std::unique_ptr<layerbench::Workload> fresh =
            makeWorkload(args.workload);
        if (!fresh)
            return fresh;
        tracer.setPhase(SETUP);
        Clock::time_point start = Clock::now();
        fresh->setup(args.seed, t);
        setup_s.push_back(secondsSince(start));
        return fresh;
    };
    std::unique_ptr<layerbench::Workload> w = setUp(tracer);
    if (!w) {
        std::fprintf(stderr, "layerbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    // ---- the measured loop.
    size_t attempted = 0;
    size_t failed = 0;
    std::string first_failure;
    auto tally = [&](size_t n, size_t bad, const std::string &why) {
        attempted += n;
        if (bad && failed == 0)
            first_failure = why;
        failed += bad;
    };

    bool have_first = false;
    layerbench::ExactCounts first;
    layerbench::CodeCounts code;
    bool exact_ok = true;
    std::string exact_error;

    std::vector<double> warm_ms;
    // Cold-pass latencies in time order, and by item index.
    std::vector<double> item_ms;
    std::vector<std::vector<double>> by_item(w->batchSize());
    std::vector<double> pass_rate, pass_mips; // per cold pass
    // Trace-mode accumulators (traced cold passes only).
    std::vector<double> untraced_pass_s, traced_pass_s;
    layerbench::Counters traced_delta;
    layerbench::Usage traced_usage;
    uint64_t traced_cfg_builds = 0;
    uint64_t traced_items = 0;

    struct Cold
    {
        layerbench::PassResult pass;
        double seconds;
        layerbench::Counters delta;
    };
    auto coldPass = [&](layerbench::Tracer &t) {
        Cold c;
        layerbench::Counters before = layerbench::Counters::read();
        Clock::time_point start = Clock::now();
        {
            layerbench::Scope span(t, "pass");
            c.pass = w->coldPass(t);
        }
        c.seconds = secondsSince(start);
        c.delta = layerbench::Counters::read().delta(before);

        layerbench::ExactCounts &x = c.pass.counts;
        x.lookups = c.delta.sum("pipeline.", ".lookups");
        x.instructions = c.delta.get("sim.instructions");
        if (c.pass.cycles_from_registry) {
            x.sim_cycles = x.instructions;
            c.pass.sim_instructions = x.instructions;
        }
        code = w->codeCounts();
        x.code_words = code.words_out;
        if (!have_first) {
            first = x;
            have_first = true;
        } else if (!(x == first) && exact_ok) {
            exact_ok = false;
            exact_error = strprintf(
                "exact counts moved between passes: sim_cycles %llu/%llu "
                "code_words %llu/%llu lookups %llu/%llu instructions "
                "%llu/%llu",
                (unsigned long long)first.sim_cycles,
                (unsigned long long)x.sim_cycles,
                (unsigned long long)first.code_words,
                (unsigned long long)x.code_words,
                (unsigned long long)first.lookups,
                (unsigned long long)x.lookups,
                (unsigned long long)first.instructions,
                (unsigned long long)x.instructions);
        }
        tally(c.pass.attempted, c.pass.failed, c.pass.first_failure);
        return c;
    };

    int rounds = 0;
    layerbench::Usage loop_start_usage = layerbench::processUsage();
    Clock::time_point loop_start = Clock::now();
    while (rounds < 2 || secondsSince(loop_start) < args.seconds) {
        if (setup_s.size() < kSetupRuns &&
            secondsSince(loop_start) >=
                args.seconds * static_cast<double>(setup_s.size()) /
                    kSetupRuns)
            setUp(off);
        layerbench::CpuRotation::get().pin(static_cast<unsigned>(rounds),
                                           w->threads());
        if (traced) {
            // The untraced pass runs first on even rounds and second on
            // odd ones, so pass order biases neither side of the
            // overhead ratio.
            if (rounds % 2 == 0)
                untraced_pass_s.push_back(coldPass(off).seconds);

            tracer.setPhase(PASS);
            layerbench::Usage u0 = layerbench::processUsage();
            uint64_t cfg0 = layerbench::cfgBuilds();
            Cold c = coldPass(tracer);
            traced_cfg_builds += layerbench::cfgBuilds() - cfg0;
            traced_usage += layerbench::processUsage() - u0;
            traced_pass_s.push_back(c.seconds);
            traced_delta += c.delta;
            traced_items += c.pass.attempted;
            tracer.setPhase(OTHER);

            if (rounds % 2 == 1)
                untraced_pass_s.push_back(coldPass(off).seconds);

            layerbench::Outcome probe = w->probe(tracer);
            tally(probe.attempted, probe.failed, probe.first_failure);
        } else {
            Cold c = coldPass(off);
            item_ms.insert(item_ms.end(), c.pass.item_ms.begin(),
                           c.pass.item_ms.end());
            for (size_t i = 0; i < c.pass.item_ms.size(); ++i)
                by_item[i].push_back(c.pass.item_ms[i]);
            pass_rate.push_back(
                ratio(static_cast<double>(c.pass.attempted), c.seconds));
            pass_mips.push_back(
                ratio(static_cast<double>(c.pass.sim_instructions),
                      c.pass.sim_seconds) /
                1e6);
        }
        Clock::time_point warm_start = Clock::now();
        layerbench::Outcome warm = w->warmPass(traced ? tracer : off);
        warm_ms.push_back(layerbench::msSince(warm_start));
        tally(warm.attempted, warm.failed, warm.first_failure);
        ++rounds;
    }
    double loop_s = secondsSince(loop_start);
    layerbench::Usage loop_usage =
        layerbench::processUsage() - loop_start_usage;
    while (setup_s.size() < kSetupRuns)
        setUp(off);

    bool correct = failed == 0 && exact_ok;
    if (failed)
        std::fprintf(stderr, "layerbench: %zu of %zu operations failed; "
                             "first: %s\n",
                     failed, attempted, first_failure.c_str());
    if (!exact_ok)
        std::fprintf(stderr, "layerbench: %s\n", exact_error.c_str());

    Metrics m;
    std::string extra;
    if (!traced) {
        auto [tail, tail_pct] = layerbench::blockedTail(item_ms);
        m.add("setup_s", layerbench::median(setup_s), "s");
        m.add("programs_per_s", layerbench::slowRate(pass_rate), "1/s");
        // The median item's latency: the median over items of each
        // item's slower-quartile latency over passes. A plain median of
        // every sample would jump between neighbouring programs'
        // latencies as host speed drifts.
        std::vector<double> item_times;
        for (std::vector<double> &v : by_item)
            item_times.push_back(layerbench::slowTime(std::move(v)));
        m.add("verdict_ms_p50", layerbench::median(item_times), "ms");
        m.add("verdict_ms_p99", tail, "ms");
        m.add("warm_pass_ms", layerbench::slowTime(warm_ms), "ms");
        m.add("sim_mips", layerbench::slowRate(pass_mips), "M/s");
        m.add("sim_cycles", static_cast<double>(first.sim_cycles), "count");
        m.add("code_words", static_cast<double>(first.code_words), "count");
        m.add("peak_rss_mb", layerbench::processUsage().maxrss_mb, "MB");
        extra = strprintf("\"verdict_samples\": %zu, "
                          "\"verdict_tail_percentile\": %.2f",
                          item_ms.size(), tail_pct);
    } else {
        const double n = rounds;
        auto setup_ops = tracer.aggregate(SETUP);
        auto loop_ops = tracer.aggregate(PASS | OTHER);
        for (const char *op : kOps) {
            // Set-up operations are reported per set-up (one is
            // traced), the rest per round.
            bool in_setup = setup_ops.count(op) != 0;
            layerbench::OpStats s =
                in_setup ? setup_ops[op]
                         : (loop_ops.count(op) ? loop_ops[op]
                                               : layerbench::OpStats{});
            double per = in_setup ? 1.0 : n;
            m.add(std::string(op) + "_ms", s.self_ms / per, "ms");
            m.add(std::string(op) + "_calls",
                  static_cast<double>(s.calls) / per, "count");
            m.add(std::string(op) + "_us_p50", s.self_us_p50, "us");
        }

        m.add("plc.out_words", static_cast<double>(code.plc_out_words),
              "count");
        m.add("reorg.words_in", static_cast<double>(code.words_in),
              "count");
        m.add("reorg.words_out", static_cast<double>(code.words_out),
              "count");
        m.add("reorg.noops", static_cast<double>(code.noops), "count");
        m.add("reorg.slot_fill_ratio",
              ratio(static_cast<double>(code.slots_filled),
                    static_cast<double>(code.slots_filled + code.noops)),
              "ratio");

        const layerbench::Counters &d = traced_delta;
        auto per = [&](const std::string &name) {
            return static_cast<double>(d.get(name)) / n;
        };
        m.add("verify.tv_proved_ratio",
              ratio(static_cast<double>(d.get("tv.proved")),
                    static_cast<double>(d.get("tv.units"))),
              "ratio");
        m.add("verify.cfg_builds",
              ratio(static_cast<double>(traced_cfg_builds),
                    static_cast<double>(traced_items)),
              "1/program");

        const layerbench::SetupUsage &su = layerbench::setupUsage();
        m.add("sim.setup_minflt",
              ratio(static_cast<double>(su.minflt),
                    static_cast<double>(su.calls)),
              "1/call");
        m.add("sim.setup_sys_us",
              ratio(su.sys_s * 1e6, static_cast<double>(su.calls)),
              "us/call");
        m.add("sim.instructions", per("sim.instructions"), "count");
        m.add("sim.decode_hit_ratio",
              ratio(static_cast<double>(d.get("sim.decode_cache.hits")),
                    static_cast<double>(d.get("sim.decode_cache.hits") +
                                        d.get("sim.decode_cache.misses"))),
              "ratio");
        m.add("sim.map.translations", per("sim.map.translations"), "count");
        m.add("sim.map.tlb_hit_ratio",
              ratio(static_cast<double>(d.get("sim.tlb.hits")),
                    static_cast<double>(d.get("sim.tlb.hits") +
                                        d.get("sim.tlb.misses"))),
              "ratio");
        m.add("sim.map.faults", per("sim.map.faults"), "count");

        uint64_t lookups = d.sum("pipeline.", ".lookups");
        uint64_t hits = d.sum("pipeline.", ".hits");
        uint64_t waits = d.sum("pipeline.", ".wait_blocks");
        uint64_t miss_us = d.sum("pipeline.", ".miss_us");
        m.add("pipeline.lookups", static_cast<double>(lookups) / n,
              "count");
        m.add("pipeline.hits", static_cast<double>(hits) / n, "count");
        m.add("pipeline.hit_ratio",
              ratio(static_cast<double>(hits),
                    static_cast<double>(lookups)),
              "ratio");
        for (const char *s : kStages)
            m.add(std::string("pipeline.") + s + ".miss",
                  per(std::string("pipeline.") + s + ".misses"), "count");
        m.add("pipeline.wait_blocks", static_cast<double>(waits) / n,
              "count");
        m.add("pipeline.shard_conflicts",
              per("pipeline.cache.shard_conflicts"), "count");

        double traced_us = sum(traced_pass_s) * 1e6;
        m.add("batch.busy_ratio",
              ratio(static_cast<double>(d.get("batch.worker_busy_us")),
                    static_cast<double>(d.get("batch.workers_spawned")) /
                        n * traced_us),
              "ratio");
        m.add("batch.steals", per("batch.steals"), "count");

        layerbench::OpStats diff =
            loop_ops.count("fuzz.diff") ? loop_ops["fuzz.diff"]
                                        : layerbench::OpStats{};
        m.add("fuzz.other_ms",
              diff.calls ? (diff.self_ms - static_cast<double>(miss_us) /
                                               1e3) /
                               n
                         : 0.0,
              "ms");

        m.add("proc.user_s", traced_usage.user_s / n, "s");
        m.add("proc.sys_s", traced_usage.sys_s / n, "s");
        m.add("proc.minflt", static_cast<double>(traced_usage.minflt) / n,
              "count");

        // Pass ledger: every traced pass's wall time is the self time of
        // its spans — the layer calls plus the untimed remainder.
        auto pass_ops = tracer.aggregate(PASS);
        double spans_ms = 0, untimed_ms = 0;
        for (const auto &[name, s] : pass_ops) {
            spans_ms += s.self_ms;
            if (name == "pass" || name == "chain" || name == "item")
                untimed_ms += s.self_ms;
        }
        double wall_ms = sum(traced_pass_s) * 1e3;
        m.add("pass.wall_ms", wall_ms / n, "ms");
        m.add("pass.untimed_ms", untimed_ms / n, "ms");
        m.add("trace.overhead",
              ratio(layerbench::median(traced_pass_s),
                    layerbench::median(untraced_pass_s)),
              "ratio");
        m.add("trace.spans", static_cast<double>(tracer.size()), "count");

        std::fprintf(stderr, "layerbench: traced pass ledger (ms per "
                             "round):\n");
        for (const auto &[name, s] : pass_ops)
            std::fprintf(stderr, "  %-22s %10.3f\n", name.c_str(),
                         s.self_ms / n);
        std::fprintf(stderr, "  %-22s %10.3f\n  %-22s %10.3f\n",
                     "sum (all threads)", spans_ms / n, "pass wall",
                     wall_ms / n);
        extra = strprintf("\"ledger_spans_ms\": %.3f, "
                          "\"ledger_wall_ms\": %.3f",
                          spans_ms / n, wall_ms / n);
        if (!args.trace_out.empty() &&
            !tracer.writeChromeTrace(args.trace_out)) {
            std::fprintf(stderr, "layerbench: cannot write %s\n",
                         args.trace_out.c_str());
            correct = false;
        }
    }

    std::printf(
        "{\"info\": {\"host\": %s, \"workload\": %s, \"seed\": %llu, "
        "\"batch\": %zu, \"threads\": %u, \"rounds\": %d, "
        "\"loop_s\": %.3f, \"user_s\": %.3f, \"sys_s\": %.3f, "
        "\"minflt\": %llu, \"fail_ratio\": %.6g, \"exact\": "
        "{\"sim_cycles\": %llu, \"code_words\": %llu, "
        "\"reorg.words_out\": %llu, \"pipeline.lookups\": %llu, "
        "\"sim.instructions\": %llu}, %s}}\n",
        layerbench::hostFingerprintJson().c_str(),
        layerbench::jsonQuote(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), w->batchSize(),
        w->threads(), rounds, loop_s,
        loop_usage.user_s, loop_usage.sys_s,
        static_cast<unsigned long long>(loop_usage.minflt),
        ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        static_cast<unsigned long long>(first.sim_cycles),
        static_cast<unsigned long long>(first.code_words),
        static_cast<unsigned long long>(code.words_out),
        static_cast<unsigned long long>(first.lookups),
        static_cast<unsigned long long>(first.instructions), extra.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                m.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: layerbench --workload "
                     "corpus_chain|fuzz_diff|sim_long --seed N "
                     "--seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "layerbench: %s\n", e.what());
        return 1;
    }
}
