/**
 * @file
 * Structural invariants of the flat (CSR) control-flow graph, checked
 * on every unit the toolchain produces for the corpus, the dispatch
 * corpus and a pinned batch of generated programs, plus hand-made
 * units for the label-resolution corner cases:
 *
 *  - the offset arrays are well formed and every edge list is sorted,
 *    unique and in range;
 *  - the predecessor lists are exactly the inverse of the successor
 *    lists;
 *  - every item's resolved label operand agrees with a reference
 *    label scan (first definition wins; a trailing label resolves past
 *    the end; an unknown one is undefined);
 *  - a recovered jump table's arms are successors of its dispatch's
 *    last delay slot.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "asm/assembler.h"
#include "fuzz/generator.h"
#include "isa/branch.h"
#include "plc/driver.h"
#include "reorg/reorganizer.h"
#include "verify/cfg.h"
#include "workload/corpus.h"

namespace mips::verify {
namespace {

using assembler::Unit;

Unit
parseUnit(std::string_view src)
{
    auto unit = assembler::parse(src);
    EXPECT_TRUE(unit.ok()) << (unit.ok() ? "" : unit.error().str());
    return unit.take();
}

size_t
countCode(const std::vector<Diagnostic> &diags, Code code)
{
    return static_cast<size_t>(std::count_if(
        diags.begin(), diags.end(),
        [code](const Diagnostic &d) { return d.code == code; }));
}

/** Check one CSR adjacency: offsets monotone from 0 to the array's
 *  size, every list strictly increasing and inside the unit. */
void
checkCsr(const std::vector<uint32_t> &begin,
         const std::vector<uint32_t> &list, size_t n,
         const std::string &what)
{
    ASSERT_EQ(begin.size(), n + 1) << what;
    EXPECT_EQ(begin.front(), 0u) << what;
    EXPECT_EQ(begin.back(), list.size()) << what;
    for (size_t i = 0; i < n; ++i) {
        ASSERT_LE(begin[i], begin[i + 1]) << what << " offsets at " << i;
        for (uint32_t e = begin[i]; e < begin[i + 1]; ++e) {
            EXPECT_LT(list[e], n) << what << " of " << i;
            if (e > begin[i]) {
                EXPECT_LT(list[e - 1], list[e])
                    << what << " of " << i << " not sorted and unique";
            }
        }
    }
}

/** The reference resolution: a plain scan of the unit's labels. */
std::map<std::string, size_t>
referenceLabels(const Unit &unit)
{
    std::map<std::string, size_t> labels;
    for (size_t i = 0; i < unit.items.size(); ++i)
        for (const std::string &label : unit.items[i].labels)
            labels.emplace(label, i); // the first definition wins
    for (const std::string &label : unit.trailing_labels)
        labels.emplace(label, kNoItem);
    return labels;
}

/** Check every invariant on one unit; returns its recovered tables. */
size_t
checkInvariants(const Unit &unit, const std::string &name)
{
    SCOPED_TRACE(name);
    Cfg cfg = buildCfg(unit, nullptr);
    size_t n = unit.items.size();
    EXPECT_EQ(cfg.size(), n);
    EXPECT_EQ(cfg.targets.size(), n);
    checkCsr(cfg.succ_begin, cfg.succ, n, "succs");
    checkCsr(cfg.pred_begin, cfg.pred, n, "preds");
    if (::testing::Test::HasFailure())
        return 0; // the checks below index by these arrays

    // Inverse: every edge appears in both directions, and there are
    // as many predecessor entries as successor entries (lists are
    // unique, so that makes the two relations equal).
    EXPECT_EQ(cfg.pred.size(), cfg.succ.size());
    for (size_t s = 0; s < n; ++s) {
        for (size_t t : cfg.succs(s)) {
            Cfg::Edges preds = cfg.preds(t);
            EXPECT_TRUE(
                std::binary_search(preds.begin(), preds.end(), s))
                << s << " -> " << t << " missing from preds(" << t << ")";
        }
    }

    // Label operands against the reference scan.
    std::map<std::string, size_t> labels = referenceLabels(unit);
    for (size_t i = 0; i < n; ++i) {
        const std::string &target = unit.items[i].target;
        if (target.empty()) {
            EXPECT_EQ(cfg.targetKind(i), TargetKind::NONE) << i;
            continue;
        }
        auto it = labels.find(target);
        if (it == labels.end()) {
            EXPECT_EQ(cfg.targetKind(i), TargetKind::UNDEFINED) << i;
        } else if (it->second == kNoItem) {
            EXPECT_EQ(cfg.targetKind(i), TargetKind::PAST_END) << i;
        } else {
            EXPECT_EQ(cfg.targetKind(i), TargetKind::ITEM) << i;
        }
        EXPECT_EQ(cfg.target(i),
                  it == labels.end() ? kNoItem : it->second)
            << "item " << i << " names '" << target << "'";
    }

    // Jump-table arms hang off the dispatch's last delay slot.
    for (const auto &[dispatch, table] : cfg.tables) {
        int delay = isa::jumpDelay(unit.items[dispatch].inst.jump->kind);
        size_t last = dispatch + static_cast<size_t>(delay);
        if (last >= n) {
            ADD_FAILURE() << "dispatch at " << dispatch << " has no slot";
            continue;
        }
        Cfg::Edges succs = cfg.succs(last);
        for (size_t arm : table.targets) {
            EXPECT_TRUE(
                std::binary_search(succs.begin(), succs.end(), arm))
                << "arm " << arm << " of the dispatch at " << dispatch;
        }
    }
    return cfg.tables.size();
}

/** Both ends of the compile path: the legal and the reorganized unit.
 *  Returns the tables recovered from both. */
size_t
checkPascal(const std::string &source, const std::string &name)
{
    auto exe = plc::buildExecutable(source);
    EXPECT_TRUE(exe.ok()) << name << ": "
                          << (exe.ok() ? "" : exe.error().str());
    if (!exe.ok())
        return 0;
    return checkInvariants(exe.value().legal_unit, name + " (legal)") +
           checkInvariants(exe.value().final_unit,
                           name + " (reorganized)");
}

TEST(CfgInvariants, Corpus)
{
    for (const workload::CorpusProgram &p : workload::corpus())
        checkPascal(p.source, p.name);
    checkPascal(workload::fibonacciProgram().source, "fibonacci");
    checkPascal(workload::puzzle0Program().source, "puzzle0");
    checkPascal(workload::puzzle1Program().source, "puzzle1");
}

TEST(CfgInvariants, DispatchCorpus)
{
    size_t tables = 0;
    for (const workload::CorpusProgram &p : workload::dispatchCorpus())
        tables += checkPascal(p.source, p.name);
    EXPECT_GT(tables, 0u); // the arm check had tables to check
}

TEST(CfgInvariants, GeneratedBatch)
{
    for (const fuzz::GeneratedProgram &p : fuzz::generateBatch(7, 20)) {
        std::string source = p.render();
        if (p.kind == fuzz::ProgramKind::PASCAL) {
            checkPascal(source, p.name);
            continue;
        }
        Unit legal = parseUnit(source);
        checkInvariants(legal, p.name + " (legal)");
        checkInvariants(reorg::reorganize(legal).unit,
                        p.name + " (reorganized)");
    }
}

// ------------------------------------------------ label resolution

TEST(CfgLabels, FirstDefinitionWins)
{
    Unit u = parseUnit(
        "beq r1, #0, twice\n" // 0
        "nop\n"               // 1
        "twice: halt\n"       // 2
        "halt\n");            // 3
    u.items[3].labels.push_back("twice"); // a second definition
    Cfg cfg = buildCfg(u, nullptr);
    EXPECT_EQ(cfg.targetKind(0), TargetKind::ITEM);
    EXPECT_EQ(cfg.target(0), 2u);
    EXPECT_TRUE(std::binary_search(cfg.succs(1).begin(),
                                   cfg.succs(1).end(), 2u));
    // The winning definition is reached only by the wired branch; the
    // shadowed one keeps the conservative marking.
    EXPECT_FALSE(cfg.nodes[2].unknown_pred);
    EXPECT_TRUE(cfg.nodes[3].unknown_pred);
    checkInvariants(u, "duplicate label");
}

TEST(CfgLabels, TrailingLabelResolvesPastTheEnd)
{
    Unit u = parseUnit(
        "beq r1, #0, end\n" // 0
        "nop\n"             // 1
        "halt\n"            // 2
        "end:\n");
    ASSERT_EQ(u.trailing_labels, (std::vector<std::string>{"end"}));
    DiagnosticEngine diags(&u);
    Cfg cfg = buildCfg(u, &diags);
    EXPECT_EQ(cfg.targetKind(0), TargetKind::PAST_END);
    EXPECT_EQ(cfg.target(0), kNoItem);
    EXPECT_EQ(countCode(diags.diagnostics(), Code::VF002), 0u);
    EXPECT_TRUE(cfg.nodes[1].unknown_succ); // the taken edge leaves
    checkInvariants(u, "trailing label");
}

TEST(CfgLabels, UndefinedLabelReportedOnce)
{
    Unit u = parseUnit(
        "beq r1, #0, nowhere\n" // 0
        "nop\n"                 // 1
        "halt\n");              // 2
    DiagnosticEngine diags(&u);
    Cfg cfg = buildCfg(u, &diags);
    EXPECT_EQ(cfg.targetKind(0), TargetKind::UNDEFINED);
    EXPECT_EQ(cfg.target(0), kNoItem);
    ASSERT_EQ(countCode(diags.diagnostics(), Code::VF002), 1u);
    EXPECT_EQ(diags.diagnostics()[0].item_index, 0u);
    EXPECT_TRUE(cfg.nodes[1].unknown_succ);
    checkInvariants(u, "undefined label");
}

TEST(CfgLabels, JumpTableArmsAreSuccessors)
{
    Unit u = parseUnit(
        "la tab, r2\n"          // 0
        "nop\n"                 // 1
        "movi #0, r3\n"         // 2
        "jtab (r2+r3), tab\n"   // 3
        "nop\n"                 // 4
        "nop\n"                 // 5: last slot carries the arms
        "tab: .word t0\n"       // 6
        ".word t1\n"            // 7
        "t0: halt\n"            // 8
        "t1: halt\n");          // 9
    Cfg cfg = buildCfg(u, nullptr);
    ASSERT_EQ(cfg.tables.count(3), 1u);
    Cfg::Edges arms = cfg.succs(5);
    EXPECT_EQ(std::vector<size_t>(arms.begin(), arms.end()),
              (std::vector<size_t>{8, 9}));
    EXPECT_FALSE(cfg.nodes[5].unknown_succ);
    EXPECT_EQ(cfg.target(6), 8u);
    EXPECT_EQ(cfg.target(7), 9u);
    checkInvariants(u, "jump table");
}

} // namespace
} // namespace mips::verify
