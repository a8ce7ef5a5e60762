#include "verify/verify.h"

#include "obs/catalog.h"
#include "verify/interproc.h"
#include "verify/passes.h"

namespace mips::verify {

namespace {

// The obs catalog mirrors the diagnostic-code list as strings so it
// can stay a leaf library; hold the two in lockstep here.
static_assert(static_cast<size_t>(kNumCodes) == obs::kVerifyDiagCodes,
              "new Code: extend obs::kDiagCodeNames and docs/METRICS.md");

/** Every check over one analysed unit, plus HZ005 against `input`
 *  when the unit is a reorganization of it. */
VerifyReport
run(const UnitAnalysis &analysis, const assembler::Unit *input,
    const VerifyOptions &options)
{
    DiagnosticEngine engine(analysis.cfg.unit);
    for (const Diagnostic &d : analysis.structural)
        engine.report(d.code, d.severity, d.item_index, d.message);
    checkHazards(analysis.cfg, &engine);
    if (options.lint)
        checkLints(analysis.cfg, options, &engine);
    if (options.interproc) {
        InterprocOptions io;
        io.callee_saved = options.callee_saved;
        io.assume_initialized = options.assume_initialized;
        checkCallingConventions(analysis.graph, io, &engine);
    }
    if (input)
        checkNoreorderIntegrity(*input, *analysis.cfg.unit, &engine);

    engine.sort();
    VerifyReport report;
    report.errors = engine.errorCount();
    report.warnings = engine.warningCount();
    report.notes = engine.noteCount();
    report.diagnostics = engine.diagnostics();

    // Every verification run — CLI, pipeline stage, or test oracle —
    // reports through the verify.* metrics.
    obs::VerifyMetrics &m = obs::verifyMetrics();
    m.units->add();
    if (report.clean())
        m.clean_units->add();
    for (const Diagnostic &d : report.diagnostics)
        m.diag[static_cast<size_t>(d.code)]->add();
    return report;
}

} // namespace

size_t
VerifyReport::countOf(Code code) const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics) {
        if (d.code == code)
            ++n;
    }
    return n;
}

// The one place a unit is analysed: layerbench counts buildCfg calls
// by wrapping the symbol at link time, which sees only calls made from
// outside cfg.cc.
UnitAnalysis::UnitAnalysis(const assembler::Unit &unit)
{
    DiagnosticEngine engine(&unit);
    cfg = buildCfg(unit, &engine);
    graph = buildCallGraph(cfg);
    structural = engine.diagnostics();
}

VerifyReport
verifyUnit(const UnitAnalysis &analysis, const VerifyOptions &options)
{
    return run(analysis, nullptr, options);
}

VerifyReport
verifyUnit(const assembler::Unit &unit, const VerifyOptions &options)
{
    return run(UnitAnalysis(unit), nullptr, options);
}

VerifyReport
verifyReorganization(const assembler::Unit &input,
                     const UnitAnalysis &output,
                     const VerifyOptions &options)
{
    return run(output, &input, options);
}

VerifyReport
verifyReorganization(const assembler::Unit &input,
                     const assembler::Unit &output,
                     const VerifyOptions &options)
{
    return run(UnitAnalysis(output), &input, options);
}

void
promoteNotesToErrors(VerifyReport *report)
{
    for (Diagnostic &d : report->diagnostics) {
        if (d.severity == Severity::NOTE) {
            d.severity = Severity::ERROR;
            --report->notes;
            ++report->errors;
        }
    }
}

std::string
reportText(const VerifyReport &report, const assembler::Unit &unit,
           const std::string &name)
{
    return renderText(report.diagnostics, &unit, name);
}

std::string
reportJson(const VerifyReport &report, const std::string &name,
           double elapsed_ms)
{
    return renderJson(report.diagnostics, name, elapsed_ms);
}

} // namespace mips::verify
