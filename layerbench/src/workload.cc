#include "workload.h"

#include "verify/cfg.h"
#include "verify/diagnostics.h"
#include "verify/interproc.h"

namespace layerbench {

void
CodeCounts::add(const mips::reorg::ReorgStats &s)
{
    words_in += s.input_words;
    words_out += s.output_words;
    noops += s.noops_inserted;
    slots_filled +=
        s.slots_filled_move + s.slots_filled_dup + s.slots_filled_hoist;
}

void
Outcome::fail(const std::string &what)
{
    if (failed++ == 0)
        first_failure = what;
}

SetupUsage &
setupUsage()
{
    static SetupUsage usage;
    return usage;
}

std::unique_ptr<mips::sim::Machine>
timedSetup(Tracer &tracer, uint32_t item,
           const mips::assembler::Program &program)
{
    Usage before = threadUsage();
    std::unique_ptr<mips::sim::Machine> machine;
    {
        Scope span(tracer, "sim.setup", item);
        machine = std::make_unique<mips::sim::Machine>();
        machine->load(program);
    }
    Usage used = threadUsage() - before;
    SetupUsage &acc = setupUsage();
    acc.minflt += used.minflt;
    acc.sys_s += used.sys_s;
    ++acc.calls;
    return machine;
}

size_t
timedCfg(Tracer &tracer, uint32_t item, const mips::assembler::Unit &unit)
{
    Scope span(tracer, "verify.cfg", item);
    mips::verify::DiagnosticEngine diags(&unit);
    mips::verify::Cfg cfg = mips::verify::buildCfg(unit, &diags);
    mips::verify::CallGraph graph = mips::verify::buildCallGraph(cfg);
    return cfg.size() + graph.size();
}

std::optional<std::string>
timedFunctional(Tracer &tracer, uint32_t item,
                const mips::assembler::Program &legal,
                uint64_t max_cycles)
{
    Scope span(tracer, "sim.functional", item);
    mips::sim::FunctionalRun run =
        mips::sim::runFunctional(legal, max_cycles);
    if (run.reason != mips::sim::StopReason::HALT)
        return std::nullopt;
    return run.memory->consoleOutput();
}

} // namespace layerbench
