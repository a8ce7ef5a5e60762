#include "fuzz/differ.h"

#include <algorithm>

#include "asm/assembler.h"
#include "obs/catalog.h"
#include "sim/machine.h"
#include "support/logging.h"
#include "verify/costmodel.h"
#include "verify/memsafety.h"
#include "verify/tv.h"
#include "verify/verify.h"

namespace mips::fuzz {

using support::strprintf;

namespace {

/** Mirror of the generator's result-block contract (generator.cc):
 *  assembly chunks store into [kResultBase, kResultBase+kResultWords)
 *  and the differ compares the whole block across configurations. */
constexpr uint32_t kResultBase = 0x20000;
constexpr uint32_t kResultWords = 128;

/** Record the first failure; later layers for this program are not
 *  consulted (the minimizer wants one stable predicate, not a list). */
void
fail(DiffResult *result, const std::string &tag, const char *layer,
     const std::string &detail)
{
    result->ok = false;
    result->failure =
        strprintf("%s: %s: %s", tag.c_str(), layer, detail.c_str());
    obs::fuzzChainMetrics().oracle_failures->add();
}

void
frontEnd(DiffResult *result, const char *stage,
         const std::string &detail)
{
    result->ok = false;
    result->front_end_error = true;
    result->failure = strprintf("front-end: %s: %s", stage,
                                detail.c_str());
}

/** Printable prefix of a console string for failure messages. */
std::string
consolePreview(const std::string &s)
{
    std::string out = s.substr(0, 32);
    for (char &c : out)
        if (c == '\n')
            c = ' ';
    if (s.size() > 32)
        out += "...";
    return out;
}

/** ERROR-severity findings in a diagnostic list. */
size_t
errorCount(const std::vector<verify::Diagnostic> &diags)
{
    size_t n = 0;
    for (const verify::Diagnostic &d : diags)
        if (d.severity == verify::Severity::ERROR)
            ++n;
    return n;
}

std::vector<FuzzConfig>
withBugs(std::vector<FuzzConfig> matrix, const reorg::ReorgBugs &bugs)
{
    for (FuzzConfig &config : matrix)
        config.reorg.bugs = bugs;
    return matrix;
}

// ------------------------------------------------------ Pascal path

DiffResult
runPascalDifferential(pipeline::Session &session,
                      const GeneratedProgram &program,
                      const DiffOptions &options)
{
    DiffResult result;
    result.name = program.name;
    const std::string source = program.render();

    pipeline::ChainSpec spec = pipeline::fuzzOracleChain();
    spec.cost_model = options.cost_parity;
    spec.value_range = options.value_range;

    // Configs that differ only past the front end share one compile
    // artifact, and the functional machine is deterministic: baseline
    // each distinct artifact once. Every baselined artifact produced
    // `expected`, or the program has already failed.
    std::string expected;
    std::vector<pipeline::CompileRef> baselined;

    for (const FuzzConfig &config :
         withBugs(pascalMatrix(), options.bugs)) {
        obs::fuzzChainMetrics().chains->add();

        pipeline::StageOptions o;
        o.compile.layout = config.layout;
        o.compile.jump_tables = config.jump_tables;
        o.reorg = config.reorg;
        o.sim.max_cycles = options.max_cycles;
        o.sim.profile = spec.cost_model;

        // The front end must accept its own generator's output; a
        // parse/sema failure is a generator defect, not a finding.
        auto compile = session.compile(source, o);
        if (!compile.ok()) {
            frontEnd(&result, "compile", compile.error().str());
            return result;
        }

        // CC baseline: this config's *legal* code on the interlocked
        // functional machine defines the expected observable output.
        const pipeline::CompileRef &compiled = compile.value();
        if (std::find(baselined.begin(), baselined.end(), compiled) ==
            baselined.end()) {
            auto legal = assembler::link(compiled->legal_unit);
            if (!legal.ok()) {
                frontEnd(&result, "link-legal", legal.error().str());
                return result;
            }
            sim::FunctionalRun base =
                sim::runFunctional(legal.value(), options.max_cycles);
            if (base.reason != sim::StopReason::HALT) {
                fail(&result, config.tag, "cc-baseline",
                     "functional machine did not halt");
                return result;
            }
            const std::string &base_console =
                base.memory->consoleOutput();
            if (baselined.empty()) {
                expected = base_console;
            } else if (base_console != expected) {
                // Layout and lowering must not change semantics.
                fail(&result, config.tag, "cc-baseline",
                     strprintf("output diverged across configs "
                               "(\"%s\" vs \"%s\")",
                               consolePreview(expected).c_str(),
                               consolePreview(base_console).c_str()));
                return result;
            }
            baselined.push_back(compiled);
        }

        // A stage that cannot produce its artifact fails the config.
        auto ran = [&](const char *stage, const auto &got) {
            if (!got.ok())
                fail(&result, config.tag, stage, got.error().str());
            return got.ok();
        };

        if (spec.hazard_verify) {
            auto v = session.hazardVerify(source, o);
            if (!ran("hazard-verify", v))
                return result;
            if (!v.value()->report.clean()) {
                fail(&result, config.tag, "hazard-verify",
                     strprintf("%zu error(s)",
                               v.value()->report.errors));
                return result;
            }
        }

        if (spec.translation_validate) {
            auto tv = session.translationValidate(source, o);
            if (!ran("translation-validate", tv))
                return result;
            // Strict: a TV090 "not proven" note fails the fuzzer —
            // the generator must only emit provable shapes.
            if (tv.value()->report.errors != 0 ||
                tv.value()->report.notes != 0) {
                fail(&result, config.tag, "translation-validate",
                     strprintf("%zu error(s), %zu note(s)",
                               tv.value()->report.errors,
                               tv.value()->report.notes));
                return result;
            }
        }

        if (spec.value_range) {
            auto range = session.valueRange(source, o);
            if (!ran("value-range", range))
                return result;
            if (size_t n = errorCount(range.value()->diags)) {
                fail(&result, config.tag, "value-range",
                     strprintf("%zu MUST finding(s)", n));
                return result;
            }
        }

        auto sim = session.simulate(source, o);
        if (!ran("simulate", sim))
            return result;
        if (sim.value()->stop != sim::StopReason::HALT) {
            fail(&result, config.tag, "simulate",
                 sim.value()->error.empty()
                     ? std::string("pipeline machine did not halt")
                     : sim.value()->error);
            return result;
        }
        if (sim.value()->console != expected) {
            fail(&result, config.tag, "console",
                 strprintf("pipeline \"%s\" vs baseline \"%s\"",
                           consolePreview(sim.value()->console).c_str(),
                           consolePreview(expected).c_str()));
            return result;
        }

        if (spec.cost_model) {
            auto cost = session.costModel(source, o);
            if (!ran("cost-model", cost))
                return result;
            verify::CostParity parity = verify::checkCostParity(
                cost.value()->report, sim.value()->exec_counts,
                options.cost_tolerance);
            if (parity.violations != 0) {
                fail(&result, config.tag, "cost-parity",
                     strprintf("%zu violation(s)", parity.violations));
                return result;
            }
        }

        ++result.configs;
    }
    return result;
}

// ---------------------------------------------------- Assembly path

DiffResult
runAsmDifferential(pipeline::Session &session,
                   const GeneratedProgram &program,
                   const DiffOptions &options)
{
    DiffResult result;
    result.name = program.name;
    const std::string source = program.render();

    auto assembled = session.assemble(source);
    if (!assembled.ok()) {
        frontEnd(&result, "assemble", assembled.error().str());
        return result;
    }
    const assembler::Unit &input = assembled.value()->unit;

    // CC baseline: the legal input on the functional machine.
    auto legal = assembler::link(input);
    if (!legal.ok()) {
        frontEnd(&result, "link-legal", legal.error().str());
        return result;
    }
    sim::FunctionalRun base =
        sim::runFunctional(legal.value(), options.max_cycles);
    if (base.reason != sim::StopReason::HALT) {
        fail(&result, "legal", "cc-baseline",
             "functional machine did not halt");
        return result;
    }

    for (const FuzzConfig &config :
         withBugs(asmMatrix(), options.bugs)) {
        obs::fuzzChainMetrics().chains->add();

        reorg::ReorgResult rr = reorg::reorganize(input, config.reorg);

        // One analysis of the output serves hazard verify and range.
        verify::UnitAnalysis analysis(rr.unit);
        verify::VerifyReport vrep =
            verify::verifyReorganization(input, analysis);
        if (!vrep.clean()) {
            fail(&result, config.tag, "hazard-verify",
                 strprintf("%zu error(s)", vrep.errors));
            return result;
        }

        verify::TvOptions tvopts;
        tvopts.alias = config.reorg.alias;
        verify::VerifyReport tvrep = verify::validateTranslation(
            input, rr.unit, rr.hints, tvopts);
        if (tvrep.errors != 0 || tvrep.notes != 0) {
            fail(&result, config.tag, "translation-validate",
                 strprintf("%zu error(s), %zu note(s)", tvrep.errors,
                           tvrep.notes));
            return result;
        }

        if (options.value_range) {
            verify::DiagnosticEngine diags(&rr.unit);
            verify::checkMemorySafety(analysis.cfg, analysis.graph,
                                      verify::RangeCheckOptions{},
                                      program.name, &diags);
            if (size_t n = errorCount(diags.diagnostics())) {
                fail(&result, config.tag, "value-range",
                     strprintf("%zu MUST finding(s)", n));
                return result;
            }
        }

        auto linked = assembler::link(rr.unit);
        if (!linked.ok()) {
            fail(&result, config.tag, "link", linked.error().str());
            return result;
        }
        sim::Machine machine;
        machine.load(linked.value());
        sim::StopReason stop = machine.cpu().run(options.max_cycles);
        if (stop != sim::StopReason::HALT) {
            fail(&result, config.tag, "simulate",
                 stop == sim::StopReason::SIM_ERROR
                     ? machine.cpu().errorMessage()
                     : std::string("pipeline machine did not halt"));
            return result;
        }

        if (machine.memory().consoleOutput() !=
            base.memory->consoleOutput()) {
            fail(&result, config.tag, "console",
                 strprintf("pipeline \"%s\" vs baseline \"%s\"",
                           consolePreview(
                               machine.memory().consoleOutput())
                               .c_str(),
                           consolePreview(
                               base.memory->consoleOutput())
                               .c_str()));
            return result;
        }
        for (uint32_t w = 0; w < kResultWords; ++w) {
            uint32_t got = machine.memory().peek(kResultBase + w);
            uint32_t want = base.memory->peek(kResultBase + w);
            if (got != want) {
                fail(&result, config.tag, "result-block",
                     strprintf("word %u: pipeline 0x%08x vs baseline "
                               "0x%08x",
                               w, got, want));
                return result;
            }
        }

        ++result.configs;
    }
    return result;
}

} // namespace

std::vector<FuzzConfig>
pascalMatrix()
{
    std::vector<FuzzConfig> matrix;
    auto add = [&matrix](const char *tag, plc::Layout layout,
                         bool jump_tables, bool reorder, bool pack,
                         bool fill_delay) {
        FuzzConfig config;
        config.tag = tag;
        config.layout = layout;
        config.jump_tables = jump_tables;
        config.reorg.reorder = reorder;
        config.reorg.pack = pack;
        config.reorg.fill_delay = fill_delay;
        matrix.push_back(std::move(config));
    };
    add("word+jt", plc::Layout::WORD_ALLOCATED, true, true, true, true);
    add("word+jt-reorder", plc::Layout::WORD_ALLOCATED, true, false,
        true, true);
    add("word+jt-pack", plc::Layout::WORD_ALLOCATED, true, true, false,
        true);
    add("word+jt-fill", plc::Layout::WORD_ALLOCATED, true, true, true,
        false);
    add("word-jt", plc::Layout::WORD_ALLOCATED, false, true, true,
        true);
    add("byte+jt", plc::Layout::BYTE_ALLOCATED, true, true, true, true);
    return matrix;
}

std::vector<FuzzConfig>
asmMatrix()
{
    std::vector<FuzzConfig> matrix;
    auto add = [&matrix](const char *tag, bool reorder, bool pack,
                         bool fill_delay) {
        FuzzConfig config;
        config.tag = tag;
        config.reorg.reorder = reorder;
        config.reorg.pack = pack;
        config.reorg.fill_delay = fill_delay;
        matrix.push_back(std::move(config));
    };
    add("full", true, true, true);
    add("-reorder", false, true, true);
    add("-pack", true, false, true);
    add("-fill", true, true, false);
    add("noop-only", false, false, false);
    return matrix;
}

DiffResult
runDifferential(pipeline::Session &session,
                const GeneratedProgram &program,
                const DiffOptions &options)
{
    obs::fuzzMetrics().programs->add();
    DiffResult result =
        program.kind == ProgramKind::PASCAL
            ? runPascalDifferential(session, program, options)
            : runAsmDifferential(session, program, options);
    if (result.mismatch())
        obs::fuzzMetrics().mismatches->add();
    return result;
}

} // namespace mips::fuzz
