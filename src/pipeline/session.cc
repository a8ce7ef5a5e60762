#include "pipeline/session.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <type_traits>

#include "obs/catalog.h"
#include "obs/trace.h"
#include "pipeline/batch.h"
#include "plc/parser.h"
#include "plc/sema.h"
#include "sim/machine.h"
#include "sim/obspub.h"
#include "support/table.h"

namespace mips::pipeline {

using support::strprintf;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Append printf-formatted text to a cache key, with no temporary
 *  string: a hit builds exactly one heap string, its key. */
[[gnu::format(printf, 2, 3)]] void
appendf(std::string &key, const char *fmt, ...)
{
    char buf[64];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    key.append(buf);
}

// Option serializations for cache keys. Every field that can change a
// stage's artifact must appear here; adding a field to an options
// struct means extending its key.

void
keyOf(std::string &key, const plc::CompileOptions &o)
{
    appendf(key, "L%d;S%u;J%d", static_cast<int>(o.layout), o.stack_top,
            o.jump_tables);
}

unsigned
bugBits(const reorg::ReorgBugs &b)
{
    return (b.pack_dependent << 0) | (b.hoist_blind << 1) |
           (b.alias_blind << 2) | (b.slot_overwritten_def << 3) |
           (b.drop_load_noop << 4) | (b.drop_branch_noop << 5) |
           (b.retarget_same_target << 6) | (b.dup_skip_second << 7);
}

void
keyOf(std::string &key, const reorg::ReorgOptions &o)
{
    appendf(key, "r%dp%df%d;V%u;B%02x", o.reorder, o.pack, o.fill_delay,
            o.alias.volatile_base, bugBits(o.bugs));
}

void
keyOf(std::string &key, const verify::VerifyOptions &o)
{
    appendf(key, "l%d;i%d;A%04x;S%04x", o.lint, o.interproc,
            static_cast<unsigned>(o.assume_initialized),
            static_cast<unsigned>(o.callee_saved));
}

void
keyOf(std::string &key, const verify::SymLimits &o)
{
    appendf(key, "M%zu", o.max_steps);
}

void
keyOf(std::string &key, const verify::RangeCheckOptions &o)
{
    appendf(key, "M%u;B%u;W%d", o.mem_words, o.stack_budget,
            o.range.widen_after);
}

void
keyOf(std::string &key, const SimOptions &o)
{
    appendf(key, "C%llu;P%d", static_cast<unsigned long long>(o.max_cycles),
            o.profile);
}

// ------------------------------------------------------- stage table
//
// Each stage is described once: its Stage, its artifact, the stage
// whose artifact it consumes (`Up`; void for a stage that reads the
// input text), the StageOptions member that enters its key (nullptr
// for none), and its work (`compute`, handed the upstream artifact or
// the input text). Session::Impl::run supplies everything else.

template <Stage S, typename A, typename U, auto Options>
struct StageDef
{
    static constexpr Stage kStage = S;
    using Artifact = A;
    using Up = U;
    static constexpr auto options = Options;
};

struct ParseStage
    : StageDef<Stage::PARSE, ParseArtifact, void, &StageOptions::compile>
{
    static support::Result<ParseRef>
    compute(std::string_view source, const StageOptions &o)
    {
        auto ast = plc::parseProgram(source);
        if (!ast.ok())
            return ast.error();
        auto artifact = std::make_shared<ParseArtifact>();
        artifact->ast = ast.take();
        auto sema = plc::analyze(artifact->ast, o.compile.layout);
        if (!sema.ok())
            return sema.error();
        return ParseRef(artifact);
    }
};

struct CompileStage : StageDef<Stage::COMPILE, CompileArtifact, void,
                               &StageOptions::compile>
{
    static support::Result<CompileRef>
    compute(std::string_view source, const StageOptions &o)
    {
        auto compiled = plc::compile(source, o.compile);
        if (!compiled.ok())
            return compiled.error();
        auto artifact = std::make_shared<CompileArtifact>();
        artifact->unit = compiled.value().unit;
        artifact->asm_text = std::move(compiled.value().asm_text);
        artifact->legal_unit = std::move(compiled.value().unit);
        artifact->peephole =
            plc::eliminateRedundantLoads(&artifact->legal_unit);
        return CompileRef(artifact);
    }
};

struct AssembleStage
    : StageDef<Stage::ASSEMBLE, AssembleArtifact, void, nullptr>
{
    static support::Result<AssembleRef>
    compute(std::string_view asm_text, const StageOptions &)
    {
        auto unit = assembler::parse(asm_text);
        if (!unit.ok())
            return unit.error();
        auto artifact = std::make_shared<AssembleArtifact>();
        artifact->unit = unit.take();
        return AssembleRef(artifact);
    }
};

struct ReorgStage : StageDef<Stage::REORGANIZE, ReorgArtifact, CompileStage,
                             &StageOptions::reorg>
{
    static support::Result<ReorgRef>
    compute(const CompileRef &dep, const StageOptions &o)
    {
        reorg::ReorgResult result =
            reorg::reorganize(dep->legal_unit, o.reorg);
        auto artifact = std::make_shared<ReorgArtifact>();
        artifact->compile = dep;
        artifact->stats = result.stats;
        artifact->hints = std::move(result.hints);
        artifact->final_unit = std::move(result.unit);
        auto program = assembler::link(artifact->final_unit);
        if (!program.ok())
            return program.error();
        artifact->program = program.take();
        return ReorgRef(artifact);
    }
};

struct VerifyStage : StageDef<Stage::HAZARD_VERIFY, VerifyArtifact,
                              ReorgStage, &StageOptions::verify>
{
    static support::Result<VerifyRef>
    compute(const ReorgRef &dep, const StageOptions &o)
    {
        auto artifact = std::make_shared<VerifyArtifact>();
        artifact->reorg = dep;
        // Each computed unit feeds the verify.unit_ms histogram; cache
        // hits replay the artifact without re-verifying and are
        // deliberately not re-observed.
        Clock::time_point start = Clock::now();
        artifact->report = verify::verifyReorganization(
            dep->compile->legal_unit, dep->final_unit, o.verify);
        obs::verifyUnitMs().observe(msSince(start));
        return VerifyRef(artifact);
    }
};

// The alias discipline comes from `reorg`, already in the upstream key.
struct TvStage : StageDef<Stage::TRANSLATION_VALIDATE, TvArtifact,
                          ReorgStage, &StageOptions::tv_limits>
{
    static support::Result<TvRef>
    compute(const ReorgRef &dep, const StageOptions &o)
    {
        verify::TvOptions tvopts;
        tvopts.alias = o.reorg.alias;
        tvopts.limits = o.tv_limits;
        auto artifact = std::make_shared<TvArtifact>();
        artifact->reorg = dep;
        artifact->report = verify::validateTranslation(
            dep->compile->legal_unit, dep->final_unit, dep->hints, tvopts);
        return TvRef(artifact);
    }
};

struct SimStage : StageDef<Stage::SIMULATE, SimArtifact, ReorgStage,
                           &StageOptions::sim>
{
    static support::Result<SimRef>
    compute(const ReorgRef &dep, const StageOptions &o)
    {
        sim::Machine machine;
        machine.load(dep->program);
        machine.cpu().enableProfiling(o.sim.profile);
        auto artifact = std::make_shared<SimArtifact>();
        artifact->reorg = dep;
        artifact->stop = machine.cpu().run(o.sim.max_cycles);
        if (artifact->stop != sim::StopReason::HALT)
            artifact->error = machine.cpu().errorMessage();
        artifact->console = machine.memory().consoleOutput();
        artifact->cycles = machine.cpu().stats().cycles;
        artifact->free_data_cycles =
            machine.cpu().stats().free_data_cycles;
        if (o.sim.profile) {
            workload::accumulateRefs(dep->final_unit, dep->program.origin,
                                     machine.cpu(), &artifact->refs);
            artifact->exec_counts = machine.cpu().execCounts(
                dep->program.origin, dep->final_unit.items.size());
        }
        // Fresh machine, one run: fold its counters into the
        // process-wide sim.* metrics (cache hits re-serve the artifact
        // without re-simulating, so nothing is counted twice).
        sim::publishMetrics(machine);
        return SimRef(artifact);
    }
};

// A pure function of the reorganized unit: no options of its own.
struct CostStage
    : StageDef<Stage::COST_MODEL, CostArtifact, ReorgStage, nullptr>
{
    static support::Result<CostRef>
    compute(const ReorgRef &dep, const StageOptions &)
    {
        verify::UnitAnalysis analysis(dep->final_unit);
        auto artifact = std::make_shared<CostArtifact>();
        artifact->reorg = dep;
        artifact->report = verify::computeCostModel(
            analysis.cfg, analysis.graph, "reorganized");
        verify::publishCostMetrics(artifact->report);
        return CostRef(artifact);
    }
};

struct RangeStage : StageDef<Stage::VALUE_RANGE, RangeArtifact, ReorgStage,
                             &StageOptions::range>
{
    static support::Result<RangeRef>
    compute(const ReorgRef &dep, const StageOptions &o)
    {
        verify::UnitAnalysis analysis(dep->final_unit);
        verify::DiagnosticEngine diags(&dep->final_unit);
        auto artifact = std::make_shared<RangeArtifact>();
        artifact->reorg = dep;
        artifact->report = verify::checkMemorySafety(
            analysis.cfg, analysis.graph, o.range, "reorganized", &diags);
        artifact->diags = diags.diagnostics();
        verify::publishRangeMetrics(artifact->report);
        return RangeRef(artifact);
    }
};

template <typename S>
using RefOf = std::shared_ptr<const typename S::Artifact>;

template <typename S>
void
composeKey(std::string &key, std::string_view text, const StageOptions &o)
{
    if constexpr (!std::is_null_pointer_v<decltype(S::options)>)
        keyOf(key, o.*S::options);
    if constexpr (std::is_void_v<typename S::Up>) {
        key += '\n';
        key.append(text);
    } else {
        key += '|';
        composeKey<typename S::Up>(key, text, o);
    }
}

} // namespace

size_t
cacheShardOf(std::string_view key)
{
    return std::hash<std::string_view>{}(key) & (kCacheShards - 1);
}

static_assert(kStageCount == obs::kPipelineStageCount,
              "a new Stage needs its name in obs::kStageNames");

const char *
stageName(Stage stage)
{
    return obs::pipelineStageName(static_cast<size_t>(stage));
}

uint64_t
PipelineStats::hits() const
{
    uint64_t n = 0;
    for (const StageCounters &c : stage)
        n += c.hits;
    return n;
}

uint64_t
PipelineStats::misses() const
{
    uint64_t n = 0;
    for (const StageCounters &c : stage)
        n += c.misses;
    return n;
}

double
PipelineStats::missMs() const
{
    double ms = 0;
    for (const StageCounters &c : stage)
        ms += c.miss_ms;
    return ms;
}

std::string
PipelineStats::table() const
{
    support::TextTable t("Pipeline session: per-stage cache counters");
    t.setHeader({"Stage", "Hits", "Misses", "Waits", "Hit rate",
                 "Miss ms"});
    auto row = [&t](const char *name, const StageCounters &c) {
        auto count = [](uint64_t n) {
            return strprintf("%llu", static_cast<unsigned long long>(n));
        };
        uint64_t total = c.hits + c.misses;
        t.addRow({name, count(c.hits), count(c.misses),
                  count(c.wait_blocks),
                  total ? support::TextTable::pct(
                              static_cast<double>(c.hits) /
                              static_cast<double>(total))
                        : "-",
                  support::TextTable::num(c.miss_ms, 1)});
    };
    StageCounters sum{hits(), misses(), 0, missMs()};
    for (size_t i = 0; i < kStageCount; ++i) {
        row(stageName(static_cast<Stage>(i)), stage[i]);
        sum.wait_blocks += stage[i].wait_blocks;
    }
    t.addSeparator();
    row("total", sum);
    return t.render() +
           strprintf("cache shard conflicts: %llu\n",
                     static_cast<unsigned long long>(shard_conflicts));
}

// ------------------------------------------------------ Session::Impl

struct Session::Impl
{
    /**
     * One cache entry. `result` is written exactly once, under the
     * owning shard's lock, after which `ready` flips (release) and
     * waiters wake; from then on the entry is immutable and may be
     * read with no lock at all — the fast path acquire-loads `ready`
     * and copies `result`. A shard map holds slots of its stage's
     * artifact type only, so a hit downcasts without a check.
     */
    struct SlotBase
    {
        std::atomic<bool> ready{false};
    };

    template <typename T>
    struct Slot : SlotBase
    {
        std::optional<support::Result<std::shared_ptr<const T>>> result;
    };

    using Map =
        std::unordered_map<std::string, std::shared_ptr<SlotBase>>;

    /**
     * One cache shard: a cache-line-aligned mutex/cv pair plus an
     * RCU-style published snapshot of the shard's key → slot map.
     * Readers atomically load `snap` and search it lock-free; writers
     * (misses) copy the map under `mu`, insert, and re-publish. The
     * copy is cheap — shard maps hold a handful of shared_ptrs — and
     * happens once per computed artifact, never per hit.
     */
    struct alignas(64) Shard
    {
        std::mutex mu;
        std::condition_variable cv;
        /** Lookups that found `mu` held by another thread. */
        std::atomic<uint64_t> conflicts{0};
        std::atomic<std::shared_ptr<const Map>> snap;
    };

    using Cache = std::array<Shard, kCacheShards>;
    std::array<Cache, kStageCount> caches;

    /** Per-stage counters, striped per thread (obs::Counter cells) so
     *  the lock-free hit path never shares a cache line between
     *  threads. `miss_ns` holds nanoseconds; stats() renders ms. */
    struct StageLocal
    {
        obs::Counter hits;
        obs::Counter misses;
        obs::Counter wait_blocks;
        obs::Counter miss_ns;
    };
    StageLocal counters[kStageCount];

    /** Lock a shard, counting the acquisition as a conflict (locally
     *  and in `pipeline.cache.shard_conflicts`) when another thread
     *  already holds it. */
    static std::unique_lock<std::mutex>
    lockShard(Shard &shard)
    {
        std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
        if (!lock.owns_lock()) {
            shard.conflicts.fetch_add(1, std::memory_order_relaxed);
            obs::pipelineCacheShardConflicts().add();
            lock.lock();
        }
        return lock;
    }

    template <typename T>
    static void
    publish(Shard &shard, Slot<T> &slot,
            support::Result<std::shared_ptr<const T>> result)
    {
        {
            std::unique_lock<std::mutex> lock = lockShard(shard);
            slot.result = std::move(result);
            slot.ready.store(true, std::memory_order_release);
        }
        shard.cv.notify_all();
    }

    /**
     * The one stage template: S's artifact for `text` under `o`. Its
     * own key is looked up first: ready entries are served lock-free,
     * and a key being computed is waited for on its shard only. Only
     * a miss resolves the upstream (through run<S::Up>), outside this
     * stage's timer and span, so miss_ms is the stage's own work. No
     * lock is held while any stage computes.
     */
    template <typename S>
    support::Result<RefOf<S>>
    run(std::string_view text, const StageOptions &o)
    {
        using T = typename S::Artifact;
        constexpr size_t index = static_cast<size_t>(S::kStage);
        std::string key;
        key.reserve(96 + text.size());
        composeKey<S>(key, text, o);

        obs::StageMetrics &om = obs::pipelineStageMetrics(index);
        om.lookups->add();
        StageLocal &local = counters[index];
        Shard &shard = caches[index][cacheShardOf(key)];
        auto hit = [&](const SlotBase &found) {
            local.hits.add();
            om.hits->add();
            return *static_cast<const Slot<T> &>(found).result;
        };

        // Fast path: a ready entry is immutable, so a hit is one
        // atomic snapshot load plus a shared_ptr copy — no mutex.
        if (std::shared_ptr<const Map> snap =
                shard.snap.load(std::memory_order_acquire)) {
            auto it = snap->find(key);
            if (it != snap->end() &&
                it->second->ready.load(std::memory_order_acquire))
                return hit(*it->second);
        }

        std::shared_ptr<Slot<T>> slot;
        {
            std::unique_lock<std::mutex> lock = lockShard(shard);
            // `snap` only changes under `mu`, so this re-read is
            // stable for the duration of the critical section.
            std::shared_ptr<const Map> snap =
                shard.snap.load(std::memory_order_relaxed);
            auto it = snap ? snap->find(key) : Map::const_iterator{};
            if (snap && it != snap->end()) {
                SlotBase &found = *it->second;
                if (!found.ready.load(std::memory_order_acquire)) {
                    local.wait_blocks.add();
                    om.wait_blocks->add();
                    shard.cv.wait(lock, [&] {
                        return found.ready.load(
                            std::memory_order_acquire);
                    });
                }
                return hit(found);
            }
            slot = std::make_shared<Slot<T>>();
            auto next = snap ? std::make_shared<Map>(*snap)
                             : std::make_shared<Map>();
            (*next)[key] = slot;
            shard.snap.store(std::move(next), std::memory_order_release);
        }

        // Registry mirror of the miss: counted on the throw path too,
        // so `lookups == hits + misses` holds even when a stage dies.
        std::optional<Clock::time_point> start;
        auto recordMiss = [&] {
            double ms = start ? msSince(*start) : 0.0;
            local.misses.add();
            local.miss_ns.add(static_cast<uint64_t>(ms * 1e6));
            om.misses->add();
            om.miss_us->add(static_cast<uint64_t>(ms * 1000.0));
            obs::pipelineStageMissMs().observe(ms);
        };
        auto own = [&](const auto &input) -> support::Result<RefOf<S>> {
            obs::Span span(stageName(S::kStage));
            start = Clock::now();
            return S::compute(input, o);
        };
        support::Result<RefOf<S>> result =
            support::makeError("pipeline stage threw");
        try {
            if constexpr (std::is_void_v<typename S::Up>) {
                result = own(text);
            } else {
                auto up = run<typename S::Up>(text, o);
                result = up.ok() ? own(up.value())
                                 : support::Result<RefOf<S>>(up.error());
            }
        } catch (...) {
            // Never leave waiters hung: publish the error, then
            // rethrow for the caller.
            recordMiss();
            publish(shard, *slot, std::move(result));
            throw;
        }
        recordMiss();
        publish(shard, *slot, std::move(result));
        return *slot->result;
    }
};

Session::Session() : impl_(std::make_unique<Impl>()) {}
Session::~Session() = default;

PipelineStats
Session::stats() const
{
    PipelineStats s;
    for (size_t i = 0; i < kStageCount; ++i) {
        const Impl::StageLocal &c = impl_->counters[i];
        s.stage[i].hits = c.hits.value();
        s.stage[i].misses = c.misses.value();
        s.stage[i].wait_blocks = c.wait_blocks.value();
        s.stage[i].miss_ms =
            static_cast<double>(c.miss_ns.value()) / 1e6;
        for (const Impl::Shard &shard : impl_->caches[i])
            s.shard_conflicts +=
                shard.conflicts.load(std::memory_order_relaxed);
    }
    return s;
}

void
Session::clear()
{
    for (size_t i = 0; i < kStageCount; ++i) {
        for (Impl::Shard &shard : impl_->caches[i]) {
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.snap.store(nullptr, std::memory_order_release);
            shard.conflicts.store(0, std::memory_order_relaxed);
        }
        Impl::StageLocal &c = impl_->counters[i];
        c.hits.reset();
        c.misses.reset();
        c.wait_blocks.reset();
        c.miss_ns.reset();
    }
}

// ------------------------------------------------------------ stages

support::Result<ParseRef>
Session::parse(std::string_view source, plc::Layout layout)
{
    StageOptions options;
    options.compile.layout = layout;
    return impl_->run<ParseStage>(source, options);
}

support::Result<CompileRef>
Session::compile(std::string_view source, const StageOptions &options)
{
    return impl_->run<CompileStage>(source, options);
}

support::Result<AssembleRef>
Session::assemble(std::string_view asm_text)
{
    return impl_->run<AssembleStage>(asm_text, StageOptions{});
}

support::Result<ReorgRef>
Session::reorganize(std::string_view source, const StageOptions &options)
{
    return impl_->run<ReorgStage>(source, options);
}

support::Result<VerifyRef>
Session::hazardVerify(std::string_view source,
                      const StageOptions &options)
{
    return impl_->run<VerifyStage>(source, options);
}

support::Result<TvRef>
Session::translationValidate(std::string_view source,
                             const StageOptions &options)
{
    return impl_->run<TvStage>(source, options);
}

support::Result<SimRef>
Session::simulate(std::string_view source, const StageOptions &options)
{
    return impl_->run<SimStage>(source, options);
}

support::Result<CostRef>
Session::costModel(std::string_view source, const StageOptions &options)
{
    return impl_->run<CostStage>(source, options);
}

support::Result<RangeRef>
Session::valueRange(std::string_view source, const StageOptions &options)
{
    return impl_->run<RangeStage>(source, options);
}

Session &
sharedSession()
{
    static Session session;
    return session;
}

// --------------------------------------------------- batched chains

ChainSpec
fuzzOracleChain()
{
    ChainSpec spec;
    spec.reorganize = true;
    spec.hazard_verify = true;
    spec.translation_validate = true;
    spec.simulate = true;
    spec.cost_model = true;
    spec.value_range = true;
    return spec;
}

std::vector<ChainResult>
runAll(Session &session,
       const std::vector<workload::CorpusProgram> &corpus,
       const ChainSpec &stages, const StageOptions &options,
       unsigned jobs)
{
    bool need_reorg = stages.reorganize || stages.hazard_verify ||
                      stages.translation_validate || stages.simulate ||
                      stages.cost_model || stages.value_range;
    BatchRunner runner(jobs);
    return runner.runAll(
        corpus,
        [&](const workload::CorpusProgram &program, size_t) {
            ChainResult r;
            r.name = program.name;
            obs::Span span("chain", program.name);
            Clock::time_point start = Clock::now();
            // Requested stages in dependency order; the first failure
            // ends the chain.
            auto step = [&](bool wanted, auto ChainResult::*ref,
                            auto call) {
                if (!wanted || !r.error.empty())
                    return;
                auto got = (session.*call)(program.source, options);
                if (got.ok())
                    r.*ref = got.value();
                else
                    r.error = got.error().str();
            };
            step(true, &ChainResult::compile, &Session::compile);
            step(need_reorg, &ChainResult::reorg, &Session::reorganize);
            step(stages.hazard_verify, &ChainResult::verify,
                 &Session::hazardVerify);
            step(stages.translation_validate, &ChainResult::tv,
                 &Session::translationValidate);
            step(stages.simulate, &ChainResult::sim, &Session::simulate);
            step(stages.cost_model, &ChainResult::cost,
                 &Session::costModel);
            step(stages.value_range, &ChainResult::range,
                 &Session::valueRange);
            r.elapsed_ms = msSince(start);
            return r;
        });
}

} // namespace mips::pipeline
