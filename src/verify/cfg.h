/**
 * @file
 * Delay-slot-aware control-flow graph over an assembled Unit.
 *
 * The pipeline transfers control only *after* a taken branch or jump
 * has executed its delay slots (one for branches and direct jumps, two
 * for indirect jumps — Section 4.2.1 / 3.3 of the paper). The graph
 * therefore hangs a transfer's outgoing edges off its **last delay
 * slot**, not off the transfer word itself: node i's successors are
 * exactly the words that can execute on the cycle after word i. That
 * is the edge relation every hazard check needs, because the load
 * delay and the taken-transfer shadow are both expressed in *cycles*,
 * not in static program order.
 *
 * Edges the analysis cannot follow (indirect jumps, calls, traps, RFE,
 * falling off the unit) are recorded as `unknown_succ` rather than
 * dropped, so downstream dataflow stays conservative.
 */
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "asm/unit.h"
#include "verify/diagnostics.h"

namespace mips::verify {

/** What kind of delay shadow covers an item, if any. */
enum class ShadowKind : uint8_t
{
    NONE = 0,
    BRANCH,   ///< slot of a branch or direct jump/call (1 slot)
    INDIRECT, ///< shadow of an indirect jump/call (2 slots)
};

/** Per-item CFG flags, 8 bytes (the edges live in Cfg's CSR
 *  arrays). */
struct CfgNode
{
    /** Delay shadow this item sits in (for the no-transfer-in-slot
     *  rule); owner is the transfer word that created the shadow and
     *  is meaningful only when `shadow` is not NONE. */
    uint32_t shadow_owner = UINT32_MAX;
    ShadowKind shadow = ShadowKind::NONE;
    /** The next executed word is statically unknown (call/indirect
     *  target, trap handler, or execution fell off the unit). */
    bool unknown_succ : 1 = false;
    /** Control can arrive here from statically unknown code (the item
     *  is labeled and not every reference is a resolved local branch,
     *  follows a call's delay slots, or follows a trap). */
    bool unknown_pred : 1 = false;
    /** The item defines at least one label. */
    bool labeled : 1 = false;
    /** Some item's label operand names one of this item's labels. */
    bool label_referenced : 1 = false;
};
static_assert(sizeof(CfgNode) == 8);

/** How an item's label operand (`Item::target`) resolved. */
enum class TargetKind : uint8_t
{
    NONE,      ///< the item has no label operand
    ITEM,      ///< defined at an item of the unit
    PAST_END,  ///< defined, but past the last item (a trailing label)
    UNDEFINED, ///< not defined anywhere in the unit
};

/** One recovered jump table (the successor set of a table dispatch).
 *  Entries are the contiguous `.word LABEL` data items starting at the
 *  label the `jtab` names; targets are the arm items they relocate to. */
struct JumpTable
{
    size_t first_entry = kNoItem; ///< item index of the first entry
    std::vector<size_t> entries;  ///< entry item indices, in order
    std::vector<size_t> targets;  ///< resolved arm item indices
};

/**
 * The graph plus label resolution for one unit, as flat arrays.
 *
 * Edges are CSR (compressed sparse row): item i's successors are
 * `succ[succ_begin[i] .. succ_begin[i + 1])`, its predecessors
 * likewise in `pred`/`pred_begin`; every list is sorted and unique,
 * and the predecessor lists are exactly the inverse of the successor
 * lists. Every label operand is looked up once, by buildCfg, into
 * `targets`; analyses read `target()`/`targetKind()` and never
 * compare label strings.
 */
struct Cfg
{
    using Edges = std::span<const uint32_t>;

    /** `targets` encodings other than an item index. */
    static constexpr uint32_t kTargetNone = UINT32_MAX;
    static constexpr uint32_t kTargetUndefined = UINT32_MAX - 1;
    static constexpr uint32_t kTargetPastEnd = UINT32_MAX - 2;

    const assembler::Unit *unit = nullptr;
    std::vector<CfgNode> nodes;          ///< per-item flags
    std::vector<uint32_t> succ_begin;    ///< size() + 1 offsets
    std::vector<uint32_t> succ;          ///< successor items
    std::vector<uint32_t> pred_begin;    ///< size() + 1 offsets
    std::vector<uint32_t> pred;          ///< predecessor items
    /** Per item: the item its label operand names, or one of the
     *  kTarget* encodings. The first definition of a label wins. */
    std::vector<uint32_t> targets;
    /** Well-formed jump tables, keyed by the dispatch item's index.
     *  A table dispatch absent from this map could not be recovered
     *  (VF003/VF004) and contributes `unknown_succ` instead. */
    std::map<size_t, JumpTable> tables;

    size_t size() const { return nodes.size(); }

    /** Items that can execute on the cycle after item i. */
    Edges
    succs(size_t i) const
    {
        return {succ.data() + succ_begin[i],
                succ.data() + succ_begin[i + 1]};
    }

    /** Items that can execute on the cycle before item i. */
    Edges
    preds(size_t i) const
    {
        return {pred.data() + pred_begin[i],
                pred.data() + pred_begin[i + 1]};
    }

    /** How item i's label operand resolved. */
    TargetKind
    targetKind(size_t i) const
    {
        switch (targets[i]) {
          case kTargetNone: return TargetKind::NONE;
          case kTargetUndefined: return TargetKind::UNDEFINED;
          case kTargetPastEnd: return TargetKind::PAST_END;
          default: return TargetKind::ITEM;
        }
    }

    /** The item item i's label operand names, or kNoItem when it has
     *  none or the label is undefined or defined past the end. */
    size_t
    target(size_t i) const
    {
        return targetKind(i) == TargetKind::ITEM ? targets[i] : kNoItem;
    }
};

/**
 * Build the execution CFG. Structural problems found along the way —
 * invalid instruction words (VF001), undefined label operands
 * (VF002), malformed jump tables (VF003), and table entries that
 * escape the unit's code (VF004) — are reported to `diags` (which may
 * be null to skip them); the offending edges become `unknown_succ`.
 * A table dispatch whose table is well formed contributes one edge
 * per entry instead of an unknown successor.
 */
Cfg buildCfg(const assembler::Unit &unit, DiagnosticEngine *diags);

} // namespace mips::verify
