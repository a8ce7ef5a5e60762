#include "cfg_count.h"

#include <atomic>

#include "verify/cfg.h"

namespace {

std::atomic<uint64_t> g_cfg_builds{0};

} // namespace

// The wrapped symbol is mips::verify::buildCfg(const assembler::Unit &,
// DiagnosticEngine *). `__real_` is weak so that a changed signature
// leaves it unresolved (and this wrapper unused) instead of failing the
// link.
extern "C" {

mips::verify::Cfg
__real__ZN4mips6verify8buildCfgERKNS_9assembler4UnitEPNS0_16DiagnosticEngineE(
    const mips::assembler::Unit &unit,
    mips::verify::DiagnosticEngine *diags) __attribute__((weak));

mips::verify::Cfg
__wrap__ZN4mips6verify8buildCfgERKNS_9assembler4UnitEPNS0_16DiagnosticEngineE(
    const mips::assembler::Unit &unit,
    mips::verify::DiagnosticEngine *diags)
{
    g_cfg_builds.fetch_add(1, std::memory_order_relaxed);
    return __real__ZN4mips6verify8buildCfgERKNS_9assembler4UnitEPNS0_16DiagnosticEngineE(
        unit, diags);
}

} // extern "C"

namespace layerbench {

uint64_t
cfgBuilds()
{
    return g_cfg_builds.load(std::memory_order_relaxed);
}

} // namespace layerbench
