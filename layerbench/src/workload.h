/**
 * @file
 * The workload interface main.cc runs as a closed loop,
 * plus the direct layer calls the workloads share.
 *
 * A run is: set-up (timed several times), then rounds until the time
 * is up, each round one *cold* pass over the workload's items on fresh
 * state and one *warm* pass over the same items on the state the cold
 * pass left. A traced run adds a *probe* after each traced cold pass:
 * direct calls into each layer's public functions on the same inputs,
 * so per-layer times are measured where a pass cannot see them.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asm/unit.h"
#include "ledger.h"
#include "reorg/reorganizer.h"
#include "sim/machine.h"

namespace layerbench {

/** Counts that must repeat exactly from pass to pass and run to run. */
struct ExactCounts
{
    uint64_t sim_cycles = 0;
    uint64_t code_words = 0; ///< == reorg.words_out of the pass
    uint64_t lookups = 0;    ///< pipeline.*.lookups
    uint64_t instructions = 0; ///< sim.instructions (obs registry)

    bool operator==(const ExactCounts &) const = default;
};

/** Static code counts of a pass's programs (Table 11's measures). */
struct CodeCounts
{
    uint64_t plc_out_words = 0; ///< compiler output (legal code) words
    uint64_t words_in = 0;      ///< reorganizer input words
    uint64_t words_out = 0;     ///< reorganizer output words
    uint64_t noops = 0;         ///< no-ops left in the output
    uint64_t slots_filled = 0;  ///< delay slots filled by schemes 1-3

    void add(const mips::reorg::ReorgStats &s);
};

/** Checked operations of a pass or probe. */
struct Outcome
{
    size_t attempted = 0;
    size_t failed = 0;
    std::string first_failure;

    void fail(const std::string &what);
};

/** Outcome of one cold pass. */
struct PassResult : Outcome
{
    std::vector<double> item_ms; ///< per-item latency
    ExactCounts counts; ///< `lookups`, `instructions`, `code_words`
                        ///< filled by main
    /** The pass cannot see its simulations' cycles: take `sim_cycles`
     *  and `sim_instructions` from the registry's sim.instructions. */
    bool cycles_from_registry = false;
    uint64_t sim_instructions = 0; ///< for sim_mips
    double sim_seconds = 0;        ///< host time in simulation, set-up in
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs from the seed. Spans recorded here count as
     *  set-up operations. */
    virtual void setup(uint64_t seed, Tracer &tracer) = 0;
    /** Items per pass. */
    virtual size_t batchSize() const = 0;
    /** Threads a pass runs on. */
    virtual unsigned threads() const { return 1; }
    virtual PassResult coldPass(Tracer &tracer) = 0;
    /** Static code counts of the last cold pass's programs; called
     *  outside the timed window. */
    virtual CodeCounts codeCounts() = 0;
    virtual Outcome warmPass(Tracer &tracer) = 0;
    /** Direct layer calls on the last cold pass's inputs (traced runs
     *  only); failures count like pass failures. */
    virtual Outcome probe(Tracer &tracer) = 0;
};

std::unique_ptr<Workload> makeCorpusChain();
std::unique_ptr<Workload> makeFuzzDiff();
std::unique_ptr<Workload> makeSimLong();

// ------------------------------------------------ shared layer calls

/** Minor faults and kernel time spent constructing machines. */
struct SetupUsage
{
    uint64_t minflt = 0;
    double sys_s = 0;
    uint64_t calls = 0;
};

/** Process-wide accumulator, read by main for `sim.setup_*`. */
SetupUsage &setupUsage();

/** Span `sim.setup`: construct a machine and load `program`; the
 *  thread's minor faults and system time across it go to
 *  setupUsage(). */
std::unique_ptr<mips::sim::Machine>
timedSetup(Tracer &tracer, uint32_t item,
           const mips::assembler::Program &program);

/** Span `verify.cfg`: build the CFG and call graph of `unit`; returns
 *  nodes plus functions. */
size_t timedCfg(Tracer &tracer, uint32_t item,
                const mips::assembler::Unit &unit);

/** Span `sim.functional`: run `legal` on the interlocked reference
 *  machine; returns its console, or nullopt if it did not halt. */
std::optional<std::string>
timedFunctional(Tracer &tracer, uint32_t item,
                const mips::assembler::Program &legal,
                uint64_t max_cycles);

} // namespace layerbench
