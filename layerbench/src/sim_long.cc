/**
 * @file
 * `sim_long`: long simulations, a fresh sim::Machine per cold run. Two
 * kernels (busy_loop, copy_loop) and two compiled mini-Pascal programs
 * (recursive Fibonacci, insertion sort), each sized to issue at least
 * 10^7 instructions, each run three ways: plain, under an identity page
 * map (every reference through the micro-TLB), and with profiling on.
 * The warm pass re-runs each on the machine its cold run built, so cold
 * minus warm is machine set-up.
 *
 * Results are checked against references computed here in C++, never
 * against another run of the toolchain. The seed picks the programs'
 * data; the trip counts are fixed.
 */
#include <algorithm>
#include <stdexcept>

#include "asm/assembler.h"
#include "plc/driver.h"
#include "sim/obspub.h"
#include "support/rng.h"
#include "support/logging.h"
#include "workload.h"

namespace layerbench {

namespace {

using mips::support::strprintf;

constexpr uint64_t kMaxCycles = 200'000'000;

// busy_loop: kBusyOuter x kBusyInner iterations accumulating the counter.
constexpr uint32_t kBusyOuter = 12;
constexpr uint32_t kBusyInner = 250'000;
constexpr uint32_t kBusyResult = 500;

// copy_loop: fill kCopyWords words, then copy them kCopyPasses times.
constexpr uint32_t kCopyWords = 100'000;
constexpr uint32_t kCopyPasses = 24;
constexpr uint32_t kCopySrc = 300'000;
constexpr uint32_t kCopyDst = 500'000;

constexpr int kFibN = 27;
constexpr int kSortN = 1500;

enum class Variant
{
    PLAIN,
    MAPPED,
    PROFILED,
};

const char *
runSpanName(Variant v)
{
    switch (v) {
    case Variant::PLAIN: return "sim.run";
    case Variant::MAPPED: return "sim.run_mapped";
    case Variant::PROFILED: return "sim.run_profiled";
    }
    return "sim.run";
}

/** One program and the result a correct run leaves behind. */
struct Program
{
    std::string name;
    mips::assembler::Program image;
    std::string console;                ///< expected console, if any
    uint32_t mem_base = 0;              ///< expected memory words...
    std::vector<uint32_t> mem_words;    ///< ...starting at mem_base
};

struct Item
{
    size_t program;
    Variant variant;
};

std::string
busyLoopSource(uint32_t acc0)
{
    return strprintf("  ldi #%u, r2\n"
                     "  ldi #%u, r5\n"
                     "outer: ldi #%u, r1\n"
                     "loop: sub r1, #1, r1\n"
                     "  add r2, r1, r2\n"
                     "  st r2, @%u\n"
                     "  bgt r1, #0, loop\n"
                     "  sub r5, #1, r5\n"
                     "  bgt r5, #0, outer\n"
                     "  halt\n",
                     acc0, kBusyOuter, kBusyInner, kBusyResult);
}

uint32_t
busyLoopReference(uint32_t acc0)
{
    uint32_t acc = acc0;
    for (uint32_t o = 0; o < kBusyOuter; ++o)
        for (uint32_t r1 = kBusyInner; r1 > 0;) {
            --r1;
            acc += r1;
        }
    return acc;
}

std::string
copyLoopSource(uint32_t v0, uint32_t step)
{
    return strprintf("  ldi #%u, r4\n"
                     "  ldi #%u, r1\n"
                     "  ldi #%u, r2\n"
                     "init: sub r1, #1, r1\n"
                     "  st r4, (r2+r1)\n"
                     "  add r4, #%u, r4\n"
                     "  bgt r1, #0, init\n"
                     "  ldi #%u, r5\n"
                     "outer: ldi #%u, r1\n"
                     "  ldi #%u, r2\n"
                     "  ldi #%u, r3\n"
                     "loop: sub r1, #1, r1\n"
                     "  ld (r2+r1), r6\n"
                     "  st r6, (r3+r1)\n"
                     "  bgt r1, #0, loop\n"
                     "  sub r5, #1, r5\n"
                     "  bgt r5, #0, outer\n"
                     "  halt\n",
                     v0, kCopyWords, kCopySrc, step, kCopyPasses,
                     kCopyWords, kCopySrc, kCopyDst);
}

std::vector<uint32_t>
copyLoopReference(uint32_t v0, uint32_t step)
{
    // The fill runs the index down from the top: src[W-1] = v0.
    std::vector<uint32_t> words(kCopyWords);
    uint32_t v = v0;
    for (uint32_t i = kCopyWords; i > 0;) {
        --i;
        words[i] = v;
        v += step;
    }
    return words;
}

std::string
fibSource(int offset)
{
    return strprintf("program fiblong;\n"
                     "function fib(n: integer): integer;\n"
                     "begin\n"
                     "  if n < 2 then fib := n\n"
                     "  else fib := fib(n - 1) + fib(n - 2);\n"
                     "end;\n"
                     "begin\n"
                     "  writeint(fib(%d) + %d);\n"
                     "end.\n",
                     kFibN, offset);
}

std::string
fibReference(int offset)
{
    int64_t a = 0, b = 1;
    for (int i = 0; i < kFibN; ++i) {
        int64_t next = a + b;
        a = b;
        b = next;
    }
    return strprintf("%lld", static_cast<long long>(a + offset));
}

std::string
sortSource(int x0)
{
    return strprintf(
        "program sortlong;\n"
        "const n = %d;\n"
        "var a: array [0..%d] of integer;\n"
        "    i, j, t, x, s: integer;\n"
        "begin\n"
        "  x := %d;\n"
        "  for i := 0 to n - 1 do begin\n"
        "    x := (x * 75 + 74) mod 65537;\n"
        "    a[i] := x;\n"
        "  end;\n"
        "  for i := 1 to n - 1 do begin\n"
        "    t := a[i]; j := i - 1;\n"
        "    while (j >= 0) and (a[j] > t) do begin\n"
        "      a[j + 1] := a[j];\n"
        "      j := j - 1;\n"
        "    end;\n"
        "    a[j + 1] := t;\n"
        "  end;\n"
        "  s := 0;\n"
        "  for i := 0 to n - 1 do\n"
        "    s := (s * 31 + a[i]) mod 1000003;\n"
        "  writeint(s);\n"
        "end.\n",
        kSortN, kSortN - 1, x0);
}

std::string
sortReference(int x0)
{
    std::vector<int64_t> a(kSortN);
    int64_t x = x0;
    for (int64_t &v : a) {
        x = (x * 75 + 74) % 65537;
        v = x;
    }
    std::sort(a.begin(), a.end());
    int64_t s = 0;
    for (int64_t v : a)
        s = (s * 31 + v) % 1000003;
    return strprintf("%lld", static_cast<long long>(s));
}

class SimLong final : public Workload
{
  public:
    void setup(uint64_t seed, Tracer &tracer) override;
    size_t batchSize() const override { return items_.size(); }
    PassResult coldPass(Tracer &tracer) override;
    CodeCounts codeCounts() override { return code_; }
    Outcome warmPass(Tracer &tracer) override;
    Outcome probe(Tracer &) override { return Outcome{}; }

  private:
    void addAsm(const std::string &name, const std::string &source);
    void addPascal(const std::string &name, const std::string &source);
    /** Configure `m` for `variant` after a load. */
    static void arm(mips::sim::Machine &m, Variant variant);
    /** Empty if the finished run left the expected result; its console
     *  output starts at `console_from`. */
    std::string check(const Program &p, mips::sim::Machine &m,
                      mips::sim::StopReason stop,
                      size_t console_from = 0) const;

    std::vector<Program> programs_;
    std::vector<Item> items_;
    CodeCounts code_;
    /** Each item's machine from the last cold pass, re-run warm. */
    std::vector<std::unique_ptr<mips::sim::Machine>> kept_;
    std::vector<uint64_t> cold_cycles_;
    /** Pass count: item i of a pass runs at rotation turn pass + i, so
     *  each item visits every CPU over successive passes. */
    unsigned passes_ = 0;
};

void
SimLong::addAsm(const std::string &name, const std::string &source)
{
    auto unit = mips::assembler::parse(source);
    if (!unit.ok())
        throw std::runtime_error(name + ": " + unit.error().str());
    mips::reorg::ReorgResult rr = mips::reorg::reorganize(unit.value());
    auto linked = mips::assembler::link(rr.unit);
    if (!linked.ok())
        throw std::runtime_error(name + ": " + linked.error().str());
    code_.add(rr.stats);
    Program p;
    p.name = name;
    p.image = linked.take();
    programs_.push_back(std::move(p));
}

void
SimLong::addPascal(const std::string &name, const std::string &source)
{
    auto exe = mips::plc::buildExecutable(source);
    if (!exe.ok())
        throw std::runtime_error(name + ": " + exe.error().str());
    code_.plc_out_words += exe.value().legal_unit.items.size();
    code_.add(exe.value().reorg_stats);
    Program p;
    p.name = name;
    p.image = exe.value().program;
    programs_.push_back(std::move(p));
}

void
SimLong::setup(uint64_t seed, Tracer &)
{
    mips::support::Rng rng(seed);
    uint32_t acc0 = static_cast<uint32_t>(rng.below(1u << 20));
    uint32_t v0 = static_cast<uint32_t>(rng.below(1u << 20));
    uint32_t step = static_cast<uint32_t>(1 + rng.below(15));
    int fib_offset = static_cast<int>(rng.below(1000));
    int sort_x0 = static_cast<int>(1 + rng.below(65536));

    programs_.clear();
    code_ = CodeCounts{};
    addAsm("busy_loop", busyLoopSource(acc0));
    programs_.back().mem_base = kBusyResult;
    programs_.back().mem_words = {busyLoopReference(acc0)};
    addAsm("copy_loop", copyLoopSource(v0, step));
    programs_.back().mem_base = kCopyDst;
    programs_.back().mem_words = copyLoopReference(v0, step);
    addPascal("fib", fibSource(fib_offset));
    programs_.back().console = fibReference(fib_offset);
    addPascal("sort", sortSource(sort_x0));
    programs_.back().console = sortReference(sort_x0);

    items_.clear();
    for (Variant v : {Variant::PLAIN, Variant::MAPPED, Variant::PROFILED})
        for (size_t p = 0; p < programs_.size(); ++p)
            items_.push_back({p, v});
    kept_.clear();
    kept_.resize(items_.size());
    cold_cycles_.assign(items_.size(), 0);
}

void
SimLong::arm(mips::sim::Machine &m, Variant variant)
{
    m.cpu().clearStats(); // reset() keeps the counters; count one run
    if (variant == Variant::PROFILED)
        m.cpu().enableProfiling(true);
    if (variant == Variant::MAPPED) {
        // Identity-map all of physical memory and turn translation on,
        // so every fetch and data reference goes through the micro-TLB.
        mips::sim::MappingUnit &mu = m.mapping();
        if (mu.pageCount() == 0) {
            mu.configure(0, 0);
            uint32_t frames = m.memory().size() >> mips::sim::kPageBits;
            for (uint32_t frame = 0; frame < frames; ++frame)
                mu.installPage(frame << mips::sim::kPageBits, frame);
        }
        m.cpu().surprise().map_enable = true;
    }
}

std::string
SimLong::check(const Program &p, mips::sim::Machine &m,
               mips::sim::StopReason stop, size_t console_from) const
{
    if (stop != mips::sim::StopReason::HALT)
        return p.name + ": did not halt: " + m.cpu().errorMessage();
    std::string console = m.memory().consoleOutput().substr(console_from);
    if (console != p.console)
        return p.name + ": console \"" + console + "\" != \"" +
               p.console + "\"";
    for (size_t i = 0; i < p.mem_words.size(); ++i) {
        uint32_t got = m.memory().peek(p.mem_base +
                                       static_cast<uint32_t>(i));
        if (got != p.mem_words[i])
            return strprintf("%s: word %zu is 0x%08x, expected 0x%08x",
                             p.name.c_str(), i, got, p.mem_words[i]);
    }
    return "";
}

PassResult
SimLong::coldPass(Tracer &tracer)
{
    PassResult pass;
    ++passes_;
    for (size_t i = 0; i < items_.size(); ++i) {
        const Item &it = items_[i];
        const Program &p = programs_[it.program];
        uint32_t item = static_cast<uint32_t>(i);
        CpuRotation::get().pin(passes_ + item, 1);
        ++pass.attempted;
        Scope span(tracer, "item", item);
        Clock::time_point start = Clock::now();
        std::unique_ptr<mips::sim::Machine> m =
            timedSetup(tracer, item, p.image);
        if (it.variant == Variant::MAPPED) {
            Scope map(tracer, "sim.map_setup", item);
            arm(*m, it.variant);
        } else {
            arm(*m, it.variant);
        }
        mips::sim::StopReason stop;
        {
            Scope run(tracer, runSpanName(it.variant), item);
            stop = m->cpu().run(kMaxCycles);
        }
        double ms = msSince(start);
        pass.item_ms.push_back(ms);
        pass.sim_seconds += ms / 1e3;
        uint64_t cycles = m->cpu().stats().cycles;
        pass.counts.sim_cycles += cycles;
        pass.sim_instructions += cycles;
        // Fresh machine, one run: publish it once, as the pipeline's
        // simulate stage does.
        mips::sim::publishMetrics(*m);
        std::string why = check(p, *m, stop);
        if (!why.empty())
            pass.fail(why);
        cold_cycles_[i] = cycles;
        kept_[i] = std::move(m);
    }
    return pass;
}

Outcome
SimLong::warmPass(Tracer &)
{
    Outcome warm;
    for (size_t i = 0; i < items_.size(); ++i) {
        const Item &it = items_[i];
        const Program &p = programs_[it.program];
        CpuRotation::get().pin(passes_ + static_cast<unsigned>(i), 1);
        ++warm.attempted;
        mips::sim::Machine &m = *kept_[i];
        size_t console_from = m.memory().consoleOutput().size();
        m.load(p.image);
        arm(m, it.variant);
        mips::sim::StopReason stop = m.cpu().run(kMaxCycles);
        // The result words are still in memory from the cold run, so
        // the cycle count is what shows the warm run did the work.
        std::string why = check(p, m, stop, console_from);
        if (why.empty() && m.cpu().stats().cycles != cold_cycles_[i])
            why = strprintf("%s: %llu cycles warm, %llu cold",
                            p.name.c_str(),
                            static_cast<unsigned long long>(
                                m.cpu().stats().cycles),
                            static_cast<unsigned long long>(
                                cold_cycles_[i]));
        if (!why.empty())
            warm.fail("warm: " + why);
    }
    return warm;
}

} // namespace

std::unique_ptr<Workload>
makeSimLong()
{
    return std::make_unique<SimLong>();
}

} // namespace layerbench
