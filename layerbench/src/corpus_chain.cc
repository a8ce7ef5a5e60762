/**
 * @file
 * `corpus_chain`: the 14 checked-in programs through the full chain —
 * compile → reorganize → hazard verify → strict TV → simulate → cost →
 * range — one caller, jobs = 1, a fresh Session per cold pass, and a
 * warm re-query of the same Session after it. This is the
 * `mipsverify --corpus --tv --cost --range --strict` path.
 *
 * The stage calls go in dependency order, so each stage span is that
 * stage's own compute (its upstream artifacts are already cached). The
 * probe splits what the stage calls hide: machine set-up vs. the
 * profiled step loop, the CFG + call-graph build, and the functional
 * reference run.
 */
#include <algorithm>
#include <stdexcept>

#include "pipeline/session.h"
#include "plc/codegen.h"
#include "plc/optimize.h"
#include "support/rng.h"
#include "support/logging.h"
#include "verify/costmodel.h"
#include "workload.h"
#include "workload/corpus.h"

namespace layerbench {

namespace {

using mips::support::strprintf;
namespace pipeline = mips::pipeline;

constexpr double kCostTolerance = 0.02;

struct Program
{
    mips::workload::CorpusProgram source;
    std::string expected;                   ///< console it must print
    mips::assembler::Program legal;         ///< linked legal code
};

/** The artifacts one cold chain produced, for the warm check. */
struct Chain
{
    pipeline::CompileRef compile;
    pipeline::ReorgRef reorg;
    pipeline::VerifyRef verify;
    pipeline::TvRef tv;
    pipeline::SimRef sim;
    pipeline::CostRef cost;
    pipeline::RangeRef range;
};

class CorpusChain final : public Workload
{
  public:
    void setup(uint64_t seed, Tracer &tracer) override;
    size_t batchSize() const override { return programs_.size(); }
    PassResult coldPass(Tracer &tracer) override;
    CodeCounts codeCounts() override;
    Outcome warmPass(Tracer &tracer) override;
    Outcome probe(Tracer &tracer) override;

  private:
    /** Run one program's chain; fills `chain`, reports to `pass`. */
    void runChain(Tracer &tracer, uint32_t item, const Program &p,
                  Chain *chain, PassResult *pass);

    pipeline::StageOptions options_;
    std::vector<Program> programs_;
    std::unique_ptr<pipeline::Session> session_;
    std::vector<Chain> chains_;
};

void
CorpusChain::setup(uint64_t seed, Tracer &)
{
    std::vector<mips::workload::CorpusProgram> sources =
        mips::workload::corpus();
    for (const auto &p : mips::workload::dispatchCorpus())
        sources.push_back(p);
    sources.push_back(mips::workload::fibonacciProgram());
    sources.push_back(mips::workload::puzzle0Program());
    sources.push_back(mips::workload::puzzle1Program());

    // The seed fixes the order the programs run in.
    mips::support::Rng rng(seed);
    for (size_t i = sources.size(); i > 1; --i)
        std::swap(sources[i - 1], sources[rng.below(i)]);

    // Cost parity needs the profiled simulation.
    options_ = pipeline::StageOptions{};
    options_.sim.profile = true;

    programs_.clear();
    for (const auto &src : sources) {
        Program p;
        p.source = src;
        auto compiled = mips::plc::compile(src.source, options_.compile);
        if (!compiled.ok())
            throw std::runtime_error(strprintf(
                "%s: compile failed: %s", src.name,
                compiled.error().str().c_str()));
        mips::assembler::Unit legal = std::move(compiled.value().unit);
        mips::plc::eliminateRedundantLoads(&legal);
        auto linked = mips::assembler::link(legal);
        if (!linked.ok())
            throw std::runtime_error(strprintf(
                "%s: link failed: %s", src.name,
                linked.error().str().c_str()));
        p.legal = linked.take();
        if (src.expected_output && *src.expected_output) {
            p.expected = src.expected_output;
        } else {
            mips::sim::FunctionalRun ref = mips::sim::runFunctional(
                p.legal, options_.sim.max_cycles);
            if (ref.reason != mips::sim::StopReason::HALT)
                throw std::runtime_error(strprintf(
                    "%s: functional reference did not halt", src.name));
            p.expected = ref.memory->consoleOutput();
        }
        programs_.push_back(std::move(p));
    }
}

void
CorpusChain::runChain(Tracer &tracer, uint32_t item, const Program &p,
                      Chain *c, PassResult *pass)
{
    pipeline::Session &s = *session_;
    const char *name = p.source.name;
    const char *src = p.source.source;
    auto failed = [&](const char *stage, const std::string &why) {
        pass->fail(strprintf("%s: %s: %s", name, stage, why.c_str()));
    };

    {
        Scope span(tracer, "plc.compile", item);
        auto r = s.compile(src, options_);
        if (!r.ok())
            return failed("compile", r.error().str());
        c->compile = r.value();
    }
    {
        Scope span(tracer, "reorg.reorganize", item);
        auto r = s.reorganize(src, options_);
        if (!r.ok())
            return failed("reorganize", r.error().str());
        c->reorg = r.value();
    }
    {
        Scope span(tracer, "verify.hazard", item);
        auto r = s.hazardVerify(src, options_);
        if (!r.ok())
            return failed("hazard-verify", r.error().str());
        c->verify = r.value();
    }
    {
        Scope span(tracer, "verify.tv", item);
        auto r = s.translationValidate(src, options_);
        if (!r.ok())
            return failed("translation-validate", r.error().str());
        c->tv = r.value();
    }
    {
        Scope span(tracer, "sim.simulate", item);
        auto r = s.simulate(src, options_);
        if (!r.ok())
            return failed("simulate", r.error().str());
        c->sim = r.value();
    }
    {
        Scope span(tracer, "verify.cost", item);
        auto r = s.costModel(src, options_);
        if (!r.ok())
            return failed("cost", r.error().str());
        c->cost = r.value();
    }
    {
        Scope span(tracer, "verify.range", item);
        auto r = s.valueRange(src, options_);
        if (!r.ok())
            return failed("range", r.error().str());
        c->range = r.value();
    }

    if (!c->verify->report.clean())
        return failed("hazard-verify",
                      strprintf("%zu error(s)", c->verify->report.errors));
    if (c->tv->report.errors != 0 || c->tv->report.notes != 0)
        return failed("translation-validate",
                      strprintf("%zu error(s), %zu note(s)",
                                c->tv->report.errors,
                                c->tv->report.notes));
    if (c->sim->stop != mips::sim::StopReason::HALT)
        return failed("simulate", "did not halt: " + c->sim->error);
    if (c->sim->console != p.expected)
        return failed("console", "\"" + c->sim->console +
                                     "\" != \"" + p.expected + "\"");
    mips::verify::CostParity parity = mips::verify::checkCostParity(
        c->cost->report, c->sim->exec_counts, kCostTolerance);
    if (parity.violations != 0)
        return failed("cost-parity",
                      strprintf("%zu violation(s)", parity.violations));
}

PassResult
CorpusChain::coldPass(Tracer &tracer)
{
    session_.reset();
    chains_.assign(programs_.size(), Chain{});
    PassResult pass;
    pass.item_ms.reserve(programs_.size());
    session_ = std::make_unique<pipeline::Session>();
    for (size_t i = 0; i < programs_.size(); ++i) {
        Scope span(tracer, "chain", static_cast<uint32_t>(i));
        Clock::time_point start = Clock::now();
        ++pass.attempted;
        runChain(tracer, static_cast<uint32_t>(i), programs_[i],
                 &chains_[i], &pass);
        pass.item_ms.push_back(msSince(start));
    }

    for (const Chain &c : chains_)
        if (c.sim)
            pass.counts.sim_cycles += c.sim->cycles;
    pipeline::PipelineStats stats = session_->stats();
    pass.sim_instructions = pass.counts.sim_cycles;
    pass.sim_seconds =
        stats.stage[static_cast<size_t>(pipeline::Stage::SIMULATE)]
            .miss_ms /
        1e3;
    return pass;
}

CodeCounts
CorpusChain::codeCounts()
{
    CodeCounts code;
    for (const Chain &c : chains_) {
        if (c.compile)
            code.plc_out_words += c.compile->legal_unit.items.size();
        if (c.reorg)
            code.add(c.reorg->stats);
    }
    return code;
}

Outcome
CorpusChain::warmPass(Tracer &tracer)
{
    Outcome warm;
    pipeline::Session &s = *session_;
    // Every re-query must be served from the cache: the very artifact
    // the cold pass produced.
    auto check = [&](const char *name, const char *stage, auto result,
                     const auto &cold) {
        ++warm.attempted;
        if (!result.ok() || result.value() != cold)
            warm.fail(strprintf("%s: warm %s is not the cold artifact",
                                name, stage));
    };
    for (size_t i = 0; i < programs_.size(); ++i) {
        const char *name = programs_[i].source.name;
        const char *src = programs_[i].source.source;
        const Chain &c = chains_[i];
        uint32_t item = static_cast<uint32_t>(i);
        auto hit = [&](auto call) {
            Scope span(tracer, "pipeline.hit", item);
            return call();
        };
        check(name, "compile",
              hit([&] { return s.compile(src, options_); }), c.compile);
        check(name, "reorganize",
              hit([&] { return s.reorganize(src, options_); }), c.reorg);
        check(name, "hazard-verify",
              hit([&] { return s.hazardVerify(src, options_); }),
              c.verify);
        check(name, "translation-validate",
              hit([&] { return s.translationValidate(src, options_); }),
              c.tv);
        check(name, "simulate",
              hit([&] { return s.simulate(src, options_); }), c.sim);
        check(name, "cost",
              hit([&] { return s.costModel(src, options_); }), c.cost);
        check(name, "range",
              hit([&] { return s.valueRange(src, options_); }), c.range);
    }
    return warm;
}

Outcome
CorpusChain::probe(Tracer &tracer)
{
    Outcome out;
    for (size_t i = 0; i < programs_.size(); ++i) {
        const Chain &c = chains_[i];
        const Program &p = programs_[i];
        uint32_t item = static_cast<uint32_t>(i);
        if (!c.reorg || !c.sim)
            continue; // the cold pass already counted this failure
        ++out.attempted;
        timedCfg(tracer, item, c.reorg->final_unit);
        std::unique_ptr<mips::sim::Machine> m =
            timedSetup(tracer, item, c.reorg->program);
        m->cpu().enableProfiling(true);
        mips::sim::StopReason stop;
        {
            Scope span(tracer, "sim.run_profiled", item);
            stop = m->cpu().run(options_.sim.max_cycles);
        }
        if (stop != mips::sim::StopReason::HALT ||
            m->cpu().stats().cycles != c.sim->cycles) {
            out.fail(strprintf("%s: direct run differs from the "
                               "simulate stage",
                               p.source.name));
            continue;
        }
        std::optional<std::string> console = timedFunctional(
            tracer, item, p.legal, options_.sim.max_cycles);
        if (!console || *console != c.sim->console)
            out.fail(strprintf("%s: functional run differs from the "
                               "pipeline",
                               p.source.name));
    }
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeCorpusChain()
{
    return std::make_unique<CorpusChain>();
}

} // namespace layerbench
