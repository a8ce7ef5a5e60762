#include "reorg/reorganizer.h"

#include <algorithm>
#include <map>
#include <optional>

#include "isa/instruction.h"
#include "support/logging.h"

namespace mips::reorg {

using assembler::Item;
using assembler::Unit;
using isa::Cond;
using isa::Instruction;
using isa::JumpKind;
using isa::RegUse;

namespace {

// ------------------------------------------------------------ Blocks

/** A basic block of input (later: output) items. */
struct Block
{
    std::vector<Item> items;
    std::vector<std::string> labels; ///< labels at block entry
    bool no_reorder = false;
    bool is_data = false;

    /** Terminating control transfer, if the block ends with one. */
    const Item *
    terminator() const
    {
        if (!items.empty() && !items.back().is_data &&
            items.back().inst.isControlTransfer()) {
            return &items.back();
        }
        return nullptr;
    }
};

/** Delay slots a terminator exposes on the pipeline (0 for traps,
 *  RFE and HALT, which redirect without executing successors). */
int
delaySlots(const Item &term)
{
    if (term.inst.branch)
        return isa::kBranchDelay;
    if (term.inst.jump)
        return isa::jumpDelay(term.inst.jump->kind);
    return 0;
}

/** Split a unit into basic blocks. */
std::vector<Block>
splitBlocks(const Unit &unit)
{
    std::vector<Block> blocks;
    bool force_new = true;
    for (const Item &item : unit.items) {
        bool starts_new = force_new || !item.labels.empty();
        if (!blocks.empty()) {
            const Block &prev = blocks.back();
            if (prev.no_reorder != item.no_reorder ||
                prev.is_data != item.is_data) {
                starts_new = true;
            }
        }
        if (starts_new || blocks.empty()) {
            Block b;
            b.labels = item.labels;
            b.no_reorder = item.no_reorder;
            b.is_data = item.is_data;
            blocks.push_back(std::move(b));
        }
        Item copy = item;
        copy.labels.clear();
        blocks.back().items.push_back(std::move(copy));
        force_new = !item.is_data && item.inst.isControlTransfer();
    }
    return blocks;
}

/** Map from label to the index of the block it starts. */
std::map<std::string, size_t>
labelMap(const std::vector<Block> &blocks)
{
    std::map<std::string, size_t> map;
    for (size_t i = 0; i < blocks.size(); ++i)
        for (const std::string &label : blocks[i].labels)
            map[label] = i;
    return map;
}

// ---------------------------------------------------------- Liveness

constexpr uint16_t kAllRegs = 0xfffe; // r0 excluded (never live)

/** Per-block liveness state. */
struct Liveness
{
    std::vector<uint16_t> live_in;
    std::vector<uint16_t> live_out;
};

/**
 * Compute GPR liveness over the block graph. Conservative: any edge
 * the analysis cannot follow (indirect jumps, numeric targets, calls,
 * traps, falling off the unit) contributes an all-live live-out.
 */
Liveness
computeLiveness(const std::vector<Block> &blocks,
                const std::map<std::string, size_t> &labels)
{
    size_t n = blocks.size();
    std::vector<uint16_t> use(n, 0), def(n, 0);
    std::vector<std::vector<size_t>> succs(n);
    std::vector<bool> unknown_succ(n, false);

    for (size_t i = 0; i < n; ++i) {
        const Block &b = blocks[i];
        if (b.is_data || b.no_reorder) {
            // Untouched regions: treat as using everything.
            use[i] = kAllRegs;
        } else {
            for (const Item &item : b.items) {
                RegUse u = isa::regUse(item.inst);
                use[i] |= u.gpr_reads & ~def[i];
                def[i] |= u.gpr_writes;
            }
        }

        const Item *term = b.terminator();
        auto addLabelSucc = [&](const std::string &target) {
            auto it = labels.find(target);
            if (it != labels.end())
                succs[i].push_back(it->second);
            else
                unknown_succ[i] = true;
        };
        auto addFallThrough = [&] {
            if (i + 1 < n)
                succs[i].push_back(i + 1);
            else
                unknown_succ[i] = true;
        };

        if (!term) {
            addFallThrough();
        } else if (term->inst.branch) {
            Cond c = term->inst.branch->cond;
            if (term->target.empty())
                unknown_succ[i] = true; // numeric target
            else if (c != Cond::NEVER)
                addLabelSucc(term->target);
            if (c != Cond::ALWAYS)
                addFallThrough();
        } else if (term->inst.jump) {
            const isa::JumpPiece &j = *term->inst.jump;
            if (isa::jumpIsCall(j.kind)) {
                // The callee may use and define anything.
                unknown_succ[i] = true;
            } else if (j.kind == JumpKind::DIRECT) {
                if (term->target.empty())
                    unknown_succ[i] = true;
                else
                    addLabelSucc(term->target);
            } else {
                unknown_succ[i] = true; // indirect
            }
        } else if (term->inst.special) {
            switch (term->inst.special->op) {
              case isa::SpecialOp::HALT:
                break; // no successors: nothing live
              default:
                // TRAP continues after the handler; RFE goes anywhere.
                unknown_succ[i] = true;
                break;
            }
        }
    }

    Liveness lv;
    lv.live_in.assign(n, 0);
    lv.live_out.assign(n, 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t ri = n; ri-- > 0;) {
            uint16_t out = unknown_succ[ri] ? kAllRegs : 0;
            for (size_t s : succs[ri])
                out |= lv.live_in[s];
            uint16_t in = use[ri] | (out & ~def[ri]);
            if (out != lv.live_out[ri] || in != lv.live_in[ri]) {
                lv.live_out[ri] = out;
                lv.live_in[ri] = in;
                changed = true;
            }
        }
    }
    return lv;
}

// ------------------------------------------------------ Scheduling

/** GPRs written by load pieces of a word (the delayed writes). */
uint16_t
loadDelayWrites(const Item &item)
{
    if (item.is_data || !item.inst.isLoad() ||
        item.inst.mem->rd == isa::kZeroReg) {
        return 0;
    }
    return static_cast<uint16_t>(1u << item.inst.mem->rd);
}

/** True if `cand` placed right after `prev` would read a stale value. */
bool
loadHazard(const Item &prev, const RegUse &cand_use)
{
    return (loadDelayWrites(prev) & cand_use.gpr_reads) != 0;
}

Item
makeNopItem()
{
    Item item;
    item.inst = Instruction::makeNop();
    return item;
}

bool
isNopItem(const Item &item)
{
    return !item.is_data && item.inst.isNop();
}

/** Per-block scheduler (see reorganizer.h for the contract). */
class BlockScheduler
{
  public:
    BlockScheduler(const Block &block, const ReorgOptions &opts,
                   ReorgStats *stats)
        : block_(block), opts_(opts), stats_(stats)
    {}

    /** Schedule a reorderable block; the caller passes untouchable
     *  (.noreorder and data) blocks through itself. */
    std::vector<Item> run();

  private:
    void emitNop();
    void emitNode(int id);
    bool tryPack(int id);
    bool hazardFreeAtEnd(const RegUse &use) const;
    void scheduleBody(Dag &dag);
    void fillSlotsByMoving(Dag &dag, int term_id, int nslots);

    const Block &block_;
    const ReorgOptions &opts_;
    ReorgStats *stats_;

    std::vector<Item> out_;
    /** DAG node ids per output word (empty for inserted no-ops). */
    std::vector<std::vector<int>> out_nodes_;
    Dag *dag_ = nullptr;
    std::vector<int> ready_;
    std::vector<int> height_;
};

bool
BlockScheduler::hazardFreeAtEnd(const RegUse &use) const
{
    if (out_.empty())
        return true;
    return !loadHazard(out_.back(), use);
}

void
BlockScheduler::emitNop()
{
    out_.push_back(makeNopItem());
    out_nodes_.emplace_back();
    ++stats_->noops_inserted;
}

void
BlockScheduler::emitNode(int id)
{
    DagNode &node = dag_->nodes()[id];
    node.scheduled = true;
    out_.push_back(node.item);
    out_nodes_.push_back({id});
    for (int succ : node.succs) {
        if (--dag_->nodes()[succ].pred_count == 0)
            ready_.push_back(succ);
    }
    ready_.erase(std::remove(ready_.begin(), ready_.end(), id),
                 ready_.end());
}

/**
 * Try to merge node `id` into the last emitted word (packing). The
 * merge is legal when the formats combine, there is no dependence from
 * the resident node to the candidate, and the candidate has no load
 * hazard at the *last word's* position.
 */
bool
BlockScheduler::tryPack(int id)
{
    if (!opts_.pack || out_.empty() || out_nodes_.back().size() != 1)
        return false;
    const Item &last = out_.back();
    const Item &cand = dag_->nodes()[id].item;
    if (last.is_data || cand.is_data || !cand.target.empty())
        return false;

    const Instruction &a = last.inst;
    const Instruction &b = cand.inst;
    std::optional<isa::AluPiece> alu;
    std::optional<isa::MemPiece> mem;
    if (a.alu && !a.mem && b.mem && !b.alu && !b.branch && !b.jump &&
        !b.special) {
        alu = a.alu;
        mem = b.mem;
    } else if (a.mem && !a.alu && b.alu && !b.mem && !b.branch &&
               !b.jump && !b.special) {
        alu = b.alu;
        mem = a.mem;
    } else {
        return false;
    }
    if (!isa::canPack(*alu, *mem))
        return false;

    int resident = out_nodes_.back()[0];
    if (!opts_.bugs.pack_dependent && dag_->hasEdge(resident, id))
        return false;

    // The candidate now executes one position earlier: recheck the
    // load hazard against the word before the last one.
    RegUse use = isa::regUse(cand.inst);
    if (out_.size() >= 2 && loadHazard(out_[out_.size() - 2], use))
        return false;

    Item merged = last;
    merged.inst = Instruction::makePacked(*alu, *mem);
    // The reference annotation travels with the memory piece.
    const Item &mem_item = a.mem ? last : cand;
    merged.ref_size = mem_item.ref_size;
    merged.ref_is_char = mem_item.ref_is_char;
    out_.back() = merged;
    out_nodes_.back().push_back(id);

    DagNode &node = dag_->nodes()[id];
    node.scheduled = true;
    for (int succ : node.succs) {
        if (--dag_->nodes()[succ].pred_count == 0)
            ready_.push_back(succ);
    }
    ready_.erase(std::remove(ready_.begin(), ready_.end(), id),
                 ready_.end());
    ++stats_->packed_words;
    return true;
}

void
BlockScheduler::scheduleBody(Dag &dag)
{
    auto &nodes = dag.nodes();
    int term_id = block_.terminator()
        ? static_cast<int>(nodes.size()) - 1 : -1;

    // Longest-path heights for the critical-path heuristic.
    height_.assign(nodes.size(), 1);
    for (int i = static_cast<int>(nodes.size()) - 1; i >= 0; --i)
        for (int succ : nodes[i].succs)
            height_[i] = std::max(height_[i], 1 + height_[succ]);

    ready_.clear();
    for (size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].pred_count == 0)
            ready_.push_back(static_cast<int>(i));

    size_t body_remaining = nodes.size() - (term_id >= 0 ? 1 : 0);
    while (body_remaining > 0) {
        // Packing first: it is free.
        bool packed = false;
        for (int id : ready_) {
            if (id != term_id && tryPack(id)) {
                packed = true;
                --body_remaining;
                break;
            }
        }
        if (packed)
            continue;

        int best = -1;
        auto better = [&](int a, int b) {
            // Critical path first; then fan-out (nodes with more
            // dependents unblock more of the block, and in particular
            // schedule loads consumed by the terminator early enough
            // to keep the delay slots fillable); then stability.
            if (height_[a] != height_[b])
                return height_[a] > height_[b];
            if (nodes[a].succs.size() != nodes[b].succs.size())
                return nodes[a].succs.size() > nodes[b].succs.size();
            return a < b;
        };
        for (int id : ready_) {
            if (id == term_id)
                continue;
            RegUse use = isa::regUse(nodes[id].item.inst);
            if (!hazardFreeAtEnd(use))
                continue;
            if (best < 0 || better(id, best))
                best = id;
        }
        if (best < 0 && opts_.bugs.drop_load_noop) {
            // Fault injection: emit the best *hazardous* candidate
            // instead of covering the load delay with a no-op.
            for (int id : ready_) {
                if (id != term_id && (best < 0 || better(id, best)))
                    best = id;
            }
        }
        if (best < 0) {
            emitNop();
            continue;
        }
        emitNode(best);
        --body_remaining;
    }
}

/** Scheme 1: move trailing independent words into the delay slots. */
void
BlockScheduler::fillSlotsByMoving(Dag &dag, int term_id, int nslots)
{
    // The terminator is the last emitted word; candidates sit just
    // before it. Each successful move relocates one word after the
    // terminator (preserving their mutual order).
    for (int filled = 0; filled < nslots; ++filled) {
        // Position of the terminator word in out_.
        size_t term_pos = out_.size() - 1 - static_cast<size_t>(filled);
        if (term_pos == 0)
            break;

        // Search backward for a movable word (the paper's scheme 1).
        // A candidate at position p may hop over the words between it
        // and the terminator only if it has no dependence edge to any
        // of them.
        size_t found = term_pos; // sentinel: nothing found
        size_t lowest = term_pos > 8 ? term_pos - 8 : 0;
        if (opts_.bugs.slot_overwritten_def) {
            // Fault injection: take the *first* plausible word from
            // the front, hopping it over later dependent words.
            for (size_t p = lowest; p < term_pos; ++p) {
                const Item &cand = out_[p];
                if (isNopItem(cand) || cand.is_data)
                    continue;
                if (loadDelayWrites(cand) != 0)
                    continue;
                found = p;
                break;
            }
            if (found == term_pos)
                break;
            std::rotate(out_.begin() + static_cast<long>(found),
                        out_.begin() + static_cast<long>(found) + 1,
                        out_.end());
            std::rotate(out_nodes_.begin() + static_cast<long>(found),
                        out_nodes_.begin() + static_cast<long>(found) + 1,
                        out_nodes_.end());
            ++stats_->slots_filled_move;
            continue;
        }
        for (size_t p = term_pos; p-- > lowest;) {
            const Item &cand = out_[p];
            if (isNopItem(cand) || cand.is_data)
                continue;
            if (loadDelayWrites(cand) != 0)
                continue; // loads never sit in delay slots
            // The move hops the candidate over everything after it —
            // the intervening words, the terminator, and any slot
            // words already placed — so it must have no dependence
            // edge to any of them.
            bool dep = false;
            for (int node_id : out_nodes_[p]) {
                for (size_t q = p + 1; q < out_.size() && !dep; ++q)
                    for (int other : out_nodes_[q])
                        dep = dep || dag.hasEdge(node_id, other);
            }
            (void)term_id;
            if (dep)
                continue;
            // Removing the candidate creates two new adjacencies:
            // out_[p-1] with out_[p+1], and (when adjacent to the
            // terminator) the terminator with its new predecessor.
            if (p > 0) {
                const Item &next = out_[p + 1];
                RegUse next_use = isa::regUse(next.inst);
                if (loadHazard(out_[p - 1], next_use))
                    continue;
            }
            found = p;
            break;
        }
        if (found == term_pos)
            break;

        std::rotate(out_.begin() + static_cast<long>(found),
                    out_.begin() + static_cast<long>(found) + 1,
                    out_.end());
        std::rotate(out_nodes_.begin() + static_cast<long>(found),
                    out_nodes_.begin() + static_cast<long>(found) + 1,
                    out_nodes_.end());
        ++stats_->slots_filled_move;
    }
}

std::vector<Item>
BlockScheduler::run()
{
    const Item *term = block_.terminator();

    if (!opts_.reorder) {
        // No reorganizer at all: the code generator knows nothing
        // about the pipeline, so the only safe lowering pads every
        // load with a delay no-op and every transfer with its delay
        // slots. Removing the unnecessary ones requires dependence
        // analysis — which is exactly the reorganization stage.
        for (const Item &item : block_.items) {
            out_.push_back(item);
            if (loadDelayWrites(item) != 0) {
                out_.push_back(makeNopItem());
                ++stats_->noops_inserted;
            }
        }
        if (term) {
            int nslots = delaySlots(*term);
            for (int i = 0; i < nslots; ++i) {
                out_.push_back(makeNopItem());
                ++stats_->noops_inserted;
            }
        }
        return out_;
    }

    Dag dag(block_.items, opts_.alias, opts_.bugs.alias_blind);
    dag_ = &dag;
    int term_id = term ? static_cast<int>(dag.nodes().size()) - 1 : -1;

    scheduleBody(dag);

    if (term) {
        RegUse term_use = isa::regUse(term->inst);
        if (!hazardFreeAtEnd(term_use) && !opts_.bugs.drop_load_noop)
            emitNop();
        emitNode(term_id);

        int nslots = delaySlots(*term);
        size_t before = stats_->slots_filled_move;
        if (opts_.fill_delay)
            fillSlotsByMoving(dag, term_id, nslots);
        int filled = static_cast<int>(stats_->slots_filled_move - before);
        if (opts_.bugs.drop_branch_noop && filled < nslots)
            ++filled; // fault injection: one slot no-op dropped
        for (int i = filled; i < nslots; ++i)
            emitNop();
    }
    return out_;
}

// ------------------------------------------- Cross-block slot filling

/** True when `item` is safe as a delay-slot occupant. */
bool
slotSafe(const Item &item)
{
    if (item.is_data || isNopItem(item))
        return false;
    if (item.inst.isControlTransfer())
        return false;
    if (loadDelayWrites(item) != 0 || item.inst.isLoad())
        return false;
    return true;
}

/**
 * Scheme 2: for an unconditional direct transfer whose slot is still a
 * no-op, duplicate the first instruction of the target block into the
 * slot and retarget the transfer past it.
 */
void
fillSlotsByDuplication(std::vector<Block> &blocks,
                       std::map<std::string, size_t> &labels,
                       const ReorgOptions &opts, ReorgStats *stats,
                       std::vector<DupHint> *hints)
{
    int fresh = 0;
    for (Block &b : blocks) {
        if (b.no_reorder || b.is_data || b.items.size() < 2)
            continue;
        // Terminator followed by exactly one no-op slot.
        size_t slot = b.items.size() - 1;
        if (!isNopItem(b.items[slot]))
            continue;
        const Item &term = b.items[slot - 1];
        if (term.is_data || term.target.empty())
            continue;
        bool unconditional =
            (term.inst.branch && term.inst.branch->cond == Cond::ALWAYS) ||
            (term.inst.jump &&
             (term.inst.jump->kind == JumpKind::DIRECT ||
              term.inst.jump->kind == JumpKind::CALL_DIRECT));
        if (!unconditional || delaySlots(term) != 1)
            continue;

        auto it = labels.find(term.target);
        if (it == labels.end())
            continue;
        Block &target = blocks[it->second];
        if (target.no_reorder || target.is_data || target.items.size() < 2)
            continue;
        const Item &w = target.items.front();
        if (!slotSafe(w) || w.inst.isStore())
            continue;

        Item copy = w;
        copy.labels.clear();

        if (opts.bugs.retarget_same_target) {
            // Fault injection: fill the slot but keep the original
            // target, so the duplicated word executes twice.
            b.items[slot] = std::move(copy);
            ++stats->slots_filled_dup;
            continue;
        }

        // Retarget past the duplicated instruction(s). With the
        // dup_skip_second fault injected, the retarget skips one word
        // more than was duplicated.
        size_t skip = opts.bugs.dup_skip_second ? 2u : 1u;
        if (target.items.size() <= skip)
            continue;
        std::string orig_label = term.target;
        std::string new_label;
        if (!target.items[skip].labels.empty()) {
            new_label = target.items[skip].labels.front();
        } else {
            new_label = support::strprintf("L$dup%d", fresh++);
            target.items[skip].labels.push_back(new_label);
            // Note: target.items[skip] now begins a block conceptually;
            // the final reassembly honours per-item labels.
        }
        b.items[slot] = std::move(copy);
        b.items[slot - 1].target = new_label;
        if (hints)
            hints->push_back(DupHint{orig_label, new_label, 1});
        ++stats->slots_filled_dup;
    }
}

/**
 * Scheme 3: for a conditional branch whose slot is still a no-op,
 * hoist the fall-through successor's first instruction into the slot
 * when its results are dead on the taken path.
 */
void
fillSlotsByHoisting(std::vector<Block> &blocks,
                    const std::map<std::string, size_t> &labels,
                    const Liveness &lv, const ReorgOptions &opts,
                    ReorgStats *stats)
{
    for (size_t i = 0; i + 1 < blocks.size(); ++i) {
        Block &b = blocks[i];
        if (b.no_reorder || b.is_data || b.items.size() < 2)
            continue;
        size_t slot = b.items.size() - 1;
        if (!isNopItem(b.items[slot]))
            continue;
        const Item &term = b.items[slot - 1];
        if (term.is_data || !term.inst.branch || term.target.empty())
            continue;
        Cond c = term.inst.branch->cond;
        if (c == Cond::ALWAYS || c == Cond::NEVER)
            continue;

        Block &next = blocks[i + 1];
        if (next.no_reorder || next.is_data || !next.labels.empty() ||
            next.items.empty()) {
            continue; // must be a pure fall-through block
        }
        const Item &w = next.items.front();
        if (!slotSafe(w) || !w.inst.alu || w.inst.mem)
            continue; // ALU-only: no memory effects on the taken path
        RegUse use = isa::regUse(w.inst);
        if (use.writes_lo || use.touches_system_state)
            continue;

        auto it = labels.find(term.target);
        if (it == labels.end())
            continue;
        uint16_t live_at_target = lv.live_in[it->second];
        if (!opts.bugs.hoist_blind &&
            (use.gpr_writes & live_at_target) != 0) {
            continue; // visible on the taken path
        }

        Item moved = w;
        moved.labels.clear();
        b.items[slot] = std::move(moved);
        next.items.erase(next.items.begin());
        ++stats->slots_filled_hoist;
    }
}

} // namespace

std::vector<std::pair<size_t, uint16_t>>
blockLiveIn(const Unit &unit)
{
    std::vector<Block> blocks = splitBlocks(unit);
    auto labels = labelMap(blocks);
    Liveness lv = computeLiveness(blocks, labels);
    std::vector<std::pair<size_t, uint16_t>> out;
    size_t index = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
        out.emplace_back(index, lv.live_in[i]);
        index += blocks[i].items.size();
    }
    return out;
}

ReorgResult
reorganize(const Unit &legal, const ReorgOptions &opts)
{
    // Symbolic-target requirement (code motion invalidates numeric
    // branch offsets).
    for (const Item &item : legal.items) {
        if (!item.is_data && !item.no_reorder && item.inst.branch &&
            item.target.empty() && item.inst.branch->offset != 0) {
            support::panic("reorganize: branch at source line %d has a "
                           "numeric target; use a label",
                           item.source_line);
        }
    }

    std::vector<Block> blocks = splitBlocks(legal);
    auto labels = labelMap(blocks);
    Liveness lv = computeLiveness(blocks, labels);

    ReorgResult result;
    result.stats.input_words = legal.items.size();

    // Per-block scheduling (covers scheme 1 when filling is enabled).
    std::vector<Block> scheduled;
    scheduled.reserve(blocks.size());
    // `blocks` is not read after this loop, so it is moved from.
    for (Block &b : blocks) {
        // Untouchable blocks pass through verbatim.
        std::vector<Item> items =
            b.no_reorder || b.is_data
                ? std::move(b.items)
                : BlockScheduler(b, opts, &result.stats).run();
        scheduled.push_back({std::move(items), std::move(b.labels),
                             b.no_reorder, b.is_data});
    }

    if (opts.fill_delay) {
        auto scheduled_labels = labelMap(scheduled);
        fillSlotsByDuplication(scheduled, scheduled_labels, opts,
                               &result.stats, &result.hints);
        fillSlotsByHoisting(scheduled, scheduled_labels, lv, opts,
                            &result.stats);
    }

    // Cross-block load-delay fixup: a fall-through block whose last
    // word is a load needs a no-op when the next block's first word
    // reads the loaded register.
    for (size_t i = 0; i + 1 < scheduled.size(); ++i) {
        Block &b = scheduled[i];
        if (b.items.empty() || b.terminator())
            continue;
        uint16_t delayed = loadDelayWrites(b.items.back());
        if (!delayed)
            continue;
        const Block &next = scheduled[i + 1];
        if (next.items.empty() || next.items.front().is_data)
            continue;
        RegUse use = isa::regUse(next.items.front().inst);
        if (delayed & use.gpr_reads) {
            b.items.push_back(makeNopItem());
            ++result.stats.noops_inserted;
        }
    }

    // Reassemble.
    Unit &out = result.unit;
    out.origin = legal.origin;
    out.trailing_labels = legal.trailing_labels;
    size_t words = 0;
    for (const Block &b : scheduled)
        words += b.items.size();
    out.items.reserve(words);
    for (Block &b : scheduled) {
        if (b.items.empty()) {
            // Emptied by hoisting; it had no labels by construction.
            continue;
        }
        for (size_t i = 0; i < b.items.size(); ++i) {
            Item item = std::move(b.items[i]);
            if (i == 0) {
                item.labels.insert(item.labels.begin(),
                                   b.labels.begin(), b.labels.end());
            }
            out.items.push_back(std::move(item));
        }
    }
    result.stats.output_words = out.items.size();
    return result;
}

} // namespace mips::reorg
