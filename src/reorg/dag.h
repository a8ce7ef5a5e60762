/**
 * @file
 * Machine-level dependence DAG over one basic block.
 *
 * "Read in a basic block and create a machine-level dag that
 * represents the dependencies between individual instruction pieces"
 * (Section 4.2.1). Edges order pairs of instructions whose exchange
 * would change sequential semantics: register RAW/WAR/WAW, the LO byte
 * selector, system state (surprise/segmentation registers, traps), and
 * loads/stores that might be aliased.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "asm/unit.h"

namespace mips::reorg {

/** One DAG node: an input item plus dependence bookkeeping. */
struct DagNode
{
    assembler::Item item;
    std::vector<int> succs;   ///< nodes that must come after this one
    int pred_count = 0;       ///< unscheduled-predecessor counter
    bool scheduled = false;
};

/** Alias-analysis configuration. */
struct AliasOptions
{
    /**
     * Absolute addresses at or above this are treated as volatile
     * (device registers): they conflict with every other memory
     * reference. Matches the simulator's MMIO window by default.
     */
    uint32_t volatile_base = 0x000ff000;
};

/** The DAG for one basic block. */
class Dag
{
  public:
    /**
     * Build from the block's items (terminator included, if any).
     * `assume_no_alias` drops every memory-alias edge — test-only
     * fault injection (ReorgBugs::alias_blind); never set otherwise.
     */
    Dag(const std::vector<assembler::Item> &items,
        const AliasOptions &alias = AliasOptions{},
        bool assume_no_alias = false);

    std::vector<DagNode> &nodes() { return nodes_; }
    const std::vector<DagNode> &nodes() const { return nodes_; }

    /** True if `from` must precede `to` (direct edge). */
    bool hasEdge(int from, int to) const;

    /**
     * True if the two memory pieces might reference the same location
     * (at least one being a store is the caller's concern).
     * `block_written` is the set of GPRs written anywhere in the block
     * (as a bitmask); displacement-based disambiguation is only sound
     * when the shared base register is never redefined.
     */
    static bool mayAlias(const isa::MemPiece &a, const isa::MemPiece &b,
                         uint16_t block_written,
                         const AliasOptions &alias);

  private:
    std::vector<DagNode> nodes_;
};

} // namespace mips::reorg
