/**
 * @file
 * `fuzz_diff`: what `mipsverify --fuzz 100 --seed 7` runs. The batch
 * from fuzz::generateBatch (mini-Pascal and assembly), each program
 * through fuzz::runDifferential on a BatchRunner with two workers
 * sharing one Session — fresh per cold pass; the warm pass re-runs the
 * batch on the Session the cold pass filled.
 *
 * The batch seed is fixed and the benchmark seed shuffles the order the
 * programs are submitted in: at 100 programs, batches from different
 * seeds differ in total work by about ±20% (simulated cycles, pass
 * time), more than a regression bound can absorb.
 *
 * The pass sees only runDifferential, so the traced run's per-layer
 * times come from the probe: each program once, under the primary
 * configuration (word layout, jump tables, every reorganizer stage),
 * through each layer's public function in turn.
 */
#include <utility>

#include "asm/assembler.h"
#include "fuzz/differ.h"
#include "fuzz/generator.h"
#include "pipeline/batch.h"
#include "plc/codegen.h"
#include "plc/optimize.h"
#include "support/logging.h"
#include "support/rng.h"
#include "verify/cfg.h"
#include "verify/costmodel.h"
#include "verify/interproc.h"
#include "verify/memsafety.h"
#include "verify/tv.h"
#include "verify/verify.h"
#include "workload.h"

namespace layerbench {

namespace {

using mips::support::strprintf;
namespace fuzz = mips::fuzz;
namespace pipeline = mips::pipeline;

/** The batch: fuzz::generateBatch(kBatchSeed, kBatch). */
constexpr uint64_t kBatchSeed = 7;
constexpr size_t kBatch = 100;
/** BatchRunner workers (the workload's thread budget). */
constexpr unsigned kJobs = 2;

size_t
errorCount(const std::vector<mips::verify::Diagnostic> &diags)
{
    size_t n = 0;
    for (const mips::verify::Diagnostic &d : diags)
        n += d.severity == mips::verify::Severity::ERROR;
    return n;
}

class FuzzDiff final : public Workload
{
  public:
    void setup(uint64_t seed, Tracer &tracer) override;
    size_t batchSize() const override { return batch_.size(); }
    unsigned threads() const override { return kJobs; }
    PassResult coldPass(Tracer &tracer) override;
    CodeCounts codeCounts() override;
    Outcome warmPass(Tracer &tracer) override;
    Outcome probe(Tracer &tracer) override;

  private:
    /** runDifferential over the batch on `session_`. */
    std::vector<fuzz::DiffResult> runBatch(Tracer &tracer,
                                           std::vector<double> *item_ms);
    /** One program's probe; returns a failure description or "". */
    std::string probeOne(Tracer &tracer, uint32_t item,
                         const fuzz::GeneratedProgram &program,
                         const std::string &source);

    std::vector<fuzz::GeneratedProgram> batch_;
    std::vector<std::string> sources_;
    fuzz::DiffOptions diff_;
    std::unique_ptr<pipeline::Session> session_;
    /** Batch count: program i of a batch runs on the CPU pair at
     *  rotation turn batch + i. A pair, not one CPU, so two workers
     *  never share a CPU they cannot leave. */
    unsigned batches_ = 0;
};

void
FuzzDiff::setup(uint64_t seed, Tracer &tracer)
{
    {
        Scope span(tracer, "fuzz.generate");
        batch_ = fuzz::generateBatch(kBatchSeed, kBatch);
    }
    mips::support::Rng rng(seed);
    for (size_t i = batch_.size(); i > 1; --i)
        std::swap(batch_[i - 1], batch_[rng.below(i)]);
    sources_.clear();
    for (const fuzz::GeneratedProgram &p : batch_)
        sources_.push_back(p.render());
}

std::vector<fuzz::DiffResult>
FuzzDiff::runBatch(Tracer &tracer, std::vector<double> *item_ms)
{
    if (item_ms)
        item_ms->assign(batch_.size(), 0.0);
    uint32_t caller = Tracer::current();
    unsigned turn = ++batches_;
    pipeline::BatchRunner runner(kJobs);
    return runner.runAll(
        batch_, [&](const fuzz::GeneratedProgram &program, size_t i) {
            CpuRotation::get().pin(turn + static_cast<unsigned>(i), kJobs);
            Scope span(tracer, "fuzz.diff", static_cast<uint32_t>(i),
                       caller);
            Clock::time_point start = Clock::now();
            fuzz::DiffResult r =
                fuzz::runDifferential(*session_, program, diff_);
            if (item_ms)
                (*item_ms)[i] = msSince(start);
            return r;
        });
}

PassResult
FuzzDiff::coldPass(Tracer &tracer)
{
    session_.reset();
    session_ = std::make_unique<pipeline::Session>();
    PassResult pass;
    std::vector<fuzz::DiffResult> results = runBatch(tracer, &pass.item_ms);
    for (const fuzz::DiffResult &r : results) {
        ++pass.attempted;
        if (!r.ok)
            pass.fail(r.name + ": " + r.failure);
    }
    pass.cycles_from_registry = true;
    pass.sim_seconds =
        session_->stats()
            .stage[static_cast<size_t>(pipeline::Stage::SIMULATE)]
            .miss_ms /
        1e3;
    return pass;
}

CodeCounts
FuzzDiff::codeCounts()
{
    // Primary configuration: default compile and reorganizer options.
    // The Pascal reorganize is a cache hit on the cold pass's Session.
    CodeCounts code;
    pipeline::StageOptions options;
    for (size_t i = 0; i < batch_.size(); ++i) {
        if (batch_[i].kind == fuzz::ProgramKind::PASCAL) {
            auto r = session_->reorganize(sources_[i], options);
            if (!r.ok())
                continue;
            code.plc_out_words +=
                r.value()->compile->legal_unit.items.size();
            code.add(r.value()->stats);
        } else {
            auto a = session_->assemble(sources_[i]);
            if (!a.ok())
                continue;
            code.add(mips::reorg::reorganize(a.value()->unit).stats);
        }
    }
    return code;
}

Outcome
FuzzDiff::warmPass(Tracer &)
{
    // Untraced: `fuzz.diff` spans are the cold pass's.
    Tracer off(false);
    Outcome warm;
    for (const fuzz::DiffResult &r : runBatch(off, nullptr)) {
        ++warm.attempted;
        if (!r.ok)
            warm.fail(r.name + ": warm: " + r.failure);
    }
    return warm;
}

std::string
FuzzDiff::probeOne(Tracer &tracer, uint32_t item,
                   const fuzz::GeneratedProgram &program,
                   const std::string &source)
{
    namespace verify = mips::verify;
    mips::assembler::Unit legal;
    if (program.kind == fuzz::ProgramKind::PASCAL) {
        Scope span(tracer, "plc.compile", item);
        auto compiled = mips::plc::compile(source);
        if (!compiled.ok())
            return "compile: " + compiled.error().str();
        legal = std::move(compiled.value().unit);
        mips::plc::eliminateRedundantLoads(&legal);
    } else {
        Scope span(tracer, "asm.assemble", item);
        auto parsed = mips::assembler::parse(source);
        if (!parsed.ok())
            return "assemble: " + parsed.error().str();
        legal = parsed.take();
    }
    auto legal_program = mips::assembler::link(legal);
    if (!legal_program.ok())
        return "link legal: " + legal_program.error().str();
    std::optional<std::string> expected = timedFunctional(
        tracer, item, legal_program.value(), diff_.max_cycles);
    if (!expected)
        return "functional machine did not halt";

    mips::reorg::ReorgResult rr;
    mips::assembler::Program program_out;
    {
        Scope span(tracer, "reorg.reorganize", item);
        rr = mips::reorg::reorganize(legal);
        auto linked = mips::assembler::link(rr.unit);
        if (!linked.ok())
            return "link: " + linked.error().str();
        program_out = linked.take();
    }
    {
        Scope span(tracer, "verify.hazard", item);
        verify::VerifyReport report =
            verify::verifyReorganization(legal, rr.unit);
        if (!report.clean())
            return strprintf("hazard-verify: %zu error(s)", report.errors);
    }
    {
        Scope span(tracer, "verify.tv", item);
        verify::VerifyReport report =
            verify::validateTranslation(legal, rr.unit, rr.hints);
        if (report.errors != 0 || report.notes != 0)
            return strprintf("tv: %zu error(s), %zu note(s)",
                             report.errors, report.notes);
    }
    timedCfg(tracer, item, rr.unit);
    // Cost and range each build their own CFG, as the Session's stages
    // do.
    {
        Scope span(tracer, "verify.cost", item);
        verify::DiagnosticEngine diags(&rr.unit);
        verify::Cfg cfg = verify::buildCfg(rr.unit, &diags);
        verify::CallGraph graph = verify::buildCallGraph(cfg);
        verify::computeCostModel(cfg, graph, program.name);
    }
    {
        Scope span(tracer, "verify.range", item);
        verify::DiagnosticEngine diags(&rr.unit);
        verify::Cfg cfg = verify::buildCfg(rr.unit, &diags);
        verify::CallGraph graph = verify::buildCallGraph(cfg);
        verify::checkMemorySafety(cfg, graph, verify::RangeCheckOptions{},
                                  program.name, &diags);
        if (size_t n = errorCount(diags.diagnostics()))
            return strprintf("range: %zu MUST finding(s)", n);
    }
    std::unique_ptr<mips::sim::Machine> machine =
        timedSetup(tracer, item, program_out);
    mips::sim::StopReason stop;
    {
        Scope span(tracer, "sim.run", item);
        stop = machine->cpu().run(diff_.max_cycles);
    }
    if (stop != mips::sim::StopReason::HALT)
        return "pipeline machine did not halt";
    if (machine->memory().consoleOutput() != *expected)
        return "pipeline console differs from the functional machine";
    return "";
}

Outcome
FuzzDiff::probe(Tracer &tracer)
{
    Outcome out;
    for (size_t i = 0; i < batch_.size(); ++i) {
        ++out.attempted;
        std::string why = probeOne(tracer, static_cast<uint32_t>(i),
                                   batch_[i], sources_[i]);
        if (!why.empty())
            out.fail(batch_[i].name + ": probe: " + why);
    }
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeFuzzDiff()
{
    return std::make_unique<FuzzDiff>();
}

} // namespace layerbench
