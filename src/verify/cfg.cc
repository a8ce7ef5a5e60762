#include "verify/cfg.h"

#include <algorithm>
#include <bit>
#include <string_view>

#include "isa/branch.h"
#include "support/logging.h"
#include "support/strings.h"

namespace mips::verify {

using assembler::Item;
using assembler::Unit;
using isa::Cond;
using isa::JumpKind;

namespace {

/** The longest delay a transfer exposes: the transfers whose edges
 *  hang off item s sit at s - 1 .. s - kMaxDelay. */
constexpr int kMaxDelay = isa::kIndirectJumpDelay;
static_assert(isa::kBranchDelay <= kMaxDelay);

/** Terminator classification used while wiring edges. */
struct Transfer
{
    bool is_transfer = false;
    int delay = 0;            ///< delay slots exposed (0: immediate)
    bool conditional = false; ///< fall-through also possible
    bool to_unknown = false;  ///< callee / indirect / trap / RFE
    size_t target = kNoItem;  ///< the single resolved target, if any
    /** Table-dispatch successor set (one per table entry). */
    const std::vector<size_t> *arms = nullptr;
    ShadowKind shadow = ShadowKind::NONE;
};

/** One label definition; the references to a name accumulate on its
 *  first definition. */
struct LabelDef
{
    uint64_t hash; ///< labelHash(name)
    std::string_view name;
    uint32_t item;  ///< defining item, or Cfg::kTargetPastEnd
    uint32_t first = 0;     ///< index of the name's first definition
    uint32_t safe_refs = 0; ///< wired local branches / direct jumps
    bool unsafe = false;    ///< any other reference from code
    bool referenced = false; ///< named by any operand, data included
};

/** How a label operand uses its label, for local resolution. */
enum class LabelUse : uint8_t
{
    DATA,   ///< a `.word LABEL` table entry: not a code reference
    WIRED,  ///< a live branch or direct jump: safe once its edge is wired
    UNSAFE, ///< address taken, call target, indirect, never-taken branch
};

/** One label operand, recorded in the pass that collects the
 *  definitions and resolved once they are all known. */
struct LabelRef
{
    uint64_t hash;
    std::string_view name;
    uint32_t item;
    LabelUse use;
};

/** FNV-1a: the hash table below compares names only on equal hashes. */
uint64_t
labelHash(std::string_view name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

LabelUse
labelUse(const Item &item)
{
    if (item.is_data)
        return LabelUse::DATA;
    if (item.inst.mem)
        return LabelUse::UNSAFE; // address taken (li/ld/st @label)
    if (item.inst.branch)
        return item.inst.branch->cond != Cond::NEVER ? LabelUse::WIRED
                                                     : LabelUse::UNSAFE;
    if (item.inst.jump && item.inst.jump->kind == JumpKind::DIRECT)
        return LabelUse::WIRED;
    return LabelUse::UNSAFE; // call target, indirect
}

/**
 * Resolve every item's label operand into `cfg.targets` through one
 * open-addressing table of definitions (the first definition of a
 * name wins, so an item's label shadows a trailing one), and mark the
 * label-derived node flags: `labeled`, `label_referenced`, and
 * `unknown_pred` on every labeled item some label of which is not
 * *locally resolved*. A label is locally resolved when it has at
 * least one reference, every reference from code is a branch or
 * non-call direct jump whose edge gets wired (delay slots inside the
 * unit, target an item), and no reference takes its address (mem
 * operand) or calls it. Labeled items whose labels are all locally
 * resolved need not be treated as reachable from unknown code.
 * Returns the table-dispatch items, in order.
 */
std::vector<size_t>
resolveLabels(Cfg &cfg)
{
    const Unit &unit = *cfg.unit;
    size_t n = unit.items.size();
    cfg.targets.assign(n, Cfg::kTargetNone);

    // One pass over the items: definitions, operands, dispatches.
    std::vector<LabelDef> defs;
    std::vector<LabelRef> refs;
    std::vector<size_t> dispatches;
    defs.reserve(n / 4 + unit.trailing_labels.size());
    refs.reserve(n / 2);
    for (size_t i = 0; i < n; ++i) {
        const Item &item = unit.items[i];
        for (const std::string &label : item.labels)
            defs.push_back({labelHash(label), label,
                            static_cast<uint32_t>(i)});
        if (!item.is_data && item.inst.jump &&
            isa::jumpIsTable(item.inst.jump->kind))
            dispatches.push_back(i);
        if (!item.target.empty()) {
            refs.push_back({labelHash(item.target), item.target,
                            static_cast<uint32_t>(i), labelUse(item)});
        }
    }
    for (const std::string &label : unit.trailing_labels)
        defs.push_back({labelHash(label), label, Cfg::kTargetPastEnd});

    // Name -> first definition, at most half full.
    constexpr uint32_t kEmpty = UINT32_MAX;
    size_t mask = std::bit_ceil(2 * defs.size() + 1) - 1;
    std::vector<uint32_t> slots(mask + 1, kEmpty);
    auto slotOf = [&](uint64_t hash, std::string_view name) {
        for (size_t s = hash & mask;; s = (s + 1) & mask) {
            uint32_t d = slots[s];
            if (d == kEmpty ||
                (defs[d].hash == hash && defs[d].name == name))
                return &slots[s];
        }
    };
    for (size_t d = 0; d < defs.size(); ++d) {
        uint32_t *slot = slotOf(defs[d].hash, defs[d].name);
        if (*slot == kEmpty)
            *slot = static_cast<uint32_t>(d);
        defs[d].first = *slot;
    }

    for (const LabelRef &ref : refs) {
        uint32_t d = *slotOf(ref.hash, ref.name);
        if (d == kEmpty) {
            cfg.targets[ref.item] = Cfg::kTargetUndefined;
            continue;
        }
        LabelDef &def = defs[d];
        cfg.targets[ref.item] = def.item;
        def.referenced = true;
        bool local = def.item != Cfg::kTargetPastEnd &&
                     ref.item + isa::kBranchDelay < n;
        if (ref.use == LabelUse::WIRED && local)
            ++def.safe_refs;
        else if (ref.use != LabelUse::DATA)
            def.unsafe = true;
    }

    for (const LabelDef &def : defs) {
        if (def.item == Cfg::kTargetPastEnd)
            continue;
        const LabelDef &first = defs[def.first];
        CfgNode &node = cfg.nodes[def.item];
        node.labeled = true;
        node.label_referenced |= first.referenced;
        // A duplicate definition means references resolve to the other
        // item; keep this one conservative.
        if (first.safe_refs == 0 || first.unsafe || def.item != first.item)
            node.unknown_pred = true;
    }
    return dispatches;
}

/** Resolve a numeric control-transfer target to an item index, or
 *  kNoItem when the address lies outside the unit. */
size_t
resolveIndex(const Cfg &cfg, int64_t index)
{
    if (index < 0 || index >= static_cast<int64_t>(cfg.size()))
        return kNoItem;
    return static_cast<size_t>(index);
}

/** Report item `i`'s label operand as undefined. */
void
reportUndefined(const Cfg &cfg, size_t i, DiagnosticEngine *diags)
{
    if (diags) {
        diags->report(Code::VF002, Severity::ERROR, i,
                      support::strprintf(
                          "undefined label '%s'",
                          cfg.unit->items[i].target.c_str()));
    }
}

/** Classify item `i`'s control behaviour. */
Transfer
classify(const Cfg &cfg, size_t i, DiagnosticEngine *diags)
{
    const Item &item = cfg.unit->items[i];
    Transfer t;
    if (item.is_data)
        return t;

    // The item's resolved label operand (kNoItem when it is not an
    // item), reporting an undefined one.
    auto labelTarget = [&]() -> size_t {
        if (cfg.targetKind(i) == TargetKind::UNDEFINED)
            reportUndefined(cfg, i, diags);
        return cfg.target(i);
    };
    bool labeled = cfg.targetKind(i) != TargetKind::NONE;

    if (item.inst.branch) {
        const isa::BranchPiece &b = *item.inst.branch;
        if (b.cond == Cond::NEVER)
            return t; // never taken: plain fall-through word
        t.is_transfer = true;
        t.delay = isa::kBranchDelay;
        t.conditional = b.cond != Cond::ALWAYS;
        t.shadow = ShadowKind::BRANCH;
        t.target = labeled
            ? labelTarget()
            : resolveIndex(cfg, static_cast<int64_t>(i) + 1 + b.offset);
        t.to_unknown = t.target == kNoItem;
        return t;
    }
    if (item.inst.jump) {
        const isa::JumpPiece &j = *item.inst.jump;
        t.is_transfer = true;
        t.delay = isa::jumpDelay(j.kind);
        t.shadow = isa::jumpIsIndirect(j.kind) || isa::jumpIsTable(j.kind)
                       ? ShadowKind::INDIRECT
                       : ShadowKind::BRANCH;
        if (isa::jumpIsTable(j.kind)) {
            // The successor set comes from the recovered table (built
            // before classification); a dispatch whose table could not
            // be recovered goes anywhere.
            auto it = cfg.tables.find(i);
            if (it == cfg.tables.end())
                t.to_unknown = true;
            else
                t.arms = &it->second.targets;
            return t;
        }
        if (isa::jumpIsCall(j.kind) || isa::jumpIsIndirect(j.kind)) {
            // Callee or register target: not statically followable
            // (calls also because the callee may go anywhere before
            // returning past the delay slots).
            if (labeled && j.kind == JumpKind::CALL_DIRECT)
                labelTarget(); // still check it resolves
            t.to_unknown = true;
            return t;
        }
        t.target = labeled
            ? labelTarget()
            : resolveIndex(cfg, static_cast<int64_t>(j.target_addr) -
                                    cfg.unit->origin);
        t.to_unknown = t.target == kNoItem;
        return t;
    }
    if (item.inst.special) {
        switch (item.inst.special->op) {
          case isa::SpecialOp::TRAP:
          case isa::SpecialOp::RFE:
            // Redirect with no delay slots into the handler / the
            // saved stream: the next executed word is unknown.
            t.is_transfer = true;
            t.delay = 0;
            t.to_unknown = true;
            return t;
          case isa::SpecialOp::HALT:
            t.is_transfer = true;
            t.delay = 0;
            return t; // no successors at all
          default:
            break;
        }
    }
    return t;
}

/**
 * Recover the jump table of every table dispatch in `dispatches`: the
 * label the `jtab` names must start a contiguous run of `.word LABEL`
 * data items, each relocating to an instruction word in the unit.
 * Only fully well-formed tables enter `cfg.tables`; the rest are
 * reported (VF003 for a missing/malformed table, VF004 per escaping
 * entry) and their dispatches fall back to an unknown successor.
 */
void
resolveTables(Cfg &cfg, const std::vector<size_t> &dispatches,
              DiagnosticEngine *diags)
{
    const Unit &unit = *cfg.unit;
    size_t n = unit.items.size();
    for (size_t i : dispatches) {
        const Item &item = unit.items[i];
        if (cfg.targetKind(i) == TargetKind::NONE) {
            if (diags) {
                diags->report(Code::VF003, Severity::ERROR, i,
                              "table-dispatch jump names no table "
                              "label; its successors are unknown");
            }
            continue;
        }
        if (cfg.targetKind(i) == TargetKind::UNDEFINED) {
            reportUndefined(cfg, i, diags);
            continue;
        }
        JumpTable tbl;
        tbl.first_entry = cfg.target(i);
        bool bad_entry = false;
        for (size_t e = tbl.first_entry;
             e != kNoItem && e < n && unit.items[e].is_data &&
             cfg.targetKind(e) != TargetKind::NONE;
             ++e) {
            tbl.entries.push_back(e);
            size_t arm = cfg.target(e);
            if (cfg.targetKind(e) == TargetKind::UNDEFINED) {
                reportUndefined(cfg, e, diags);
                bad_entry = true;
            } else if (arm == kNoItem || unit.items[arm].is_data) {
                if (diags) {
                    diags->report(
                        Code::VF004, Severity::ERROR, e,
                        support::strprintf(
                            "jump-table entry '%s' resolves outside "
                            "the unit's code",
                            unit.items[e].target.c_str()));
                }
                bad_entry = true;
            } else {
                tbl.targets.push_back(arm);
            }
        }
        if (tbl.entries.empty()) {
            if (diags) {
                diags->report(
                    Code::VF003, Severity::ERROR, i,
                    support::strprintf(
                        "table label '%s' does not start a run of "
                        ".word entries", item.target.c_str()));
            }
            continue;
        }
        if (bad_entry)
            continue;
        cfg.tables.emplace(i, std::move(tbl));
    }
}

/** Invert the successor lists into predecessor lists: count, prefix-
 *  sum, then fill in ascending source order, so every list comes out
 *  sorted (and unique, as the successor lists are). */
void
invertEdges(Cfg &cfg)
{
    size_t n = cfg.size();
    cfg.pred_begin.assign(n + 1, 0);
    for (uint32_t t : cfg.succ)
        ++cfg.pred_begin[t + 1];
    for (size_t i = 0; i < n; ++i)
        cfg.pred_begin[i + 1] += cfg.pred_begin[i];
    // Filling advances each pred_begin[t] to the start of t + 1;
    // shifting right by one restores the offsets.
    cfg.pred.resize(cfg.succ.size());
    for (size_t s = 0; s < n; ++s)
        for (uint32_t t : cfg.succs(s))
            cfg.pred[cfg.pred_begin[t]++] = static_cast<uint32_t>(s);
    std::copy_backward(cfg.pred_begin.begin(), cfg.pred_begin.begin() + n,
                       cfg.pred_begin.begin() + n + 1);
    cfg.pred_begin[0] = 0;
}

} // namespace

Cfg
buildCfg(const Unit &unit, DiagnosticEngine *diags)
{
    Cfg cfg;
    cfg.unit = &unit;
    size_t n = unit.items.size();
    if (n >= Cfg::kTargetPastEnd)
        support::panic("buildCfg: %zu items overflow 32-bit item indices",
                       n);
    cfg.nodes.resize(n);
    if (n > 0)
        cfg.nodes[0].unknown_pred = true; // the unit entry

    // Jump-table recovery (before classification, which consumes it).
    resolveTables(cfg, resolveLabels(cfg), diags);

    // One pass in item order: structural validation, then item s's
    // successor list. Node s falls through to s + 1 by default; every
    // transfer whose last delay slot is s then adds its targets there,
    // oldest transfer first, and the first of them that is
    // unconditional drops the fall-through. `recent` holds the
    // classifications of s - kMaxDelay .. s.
    size_t arms = 0;
    for (const auto &entry : cfg.tables)
        arms += entry.second.targets.size();
    cfg.succ_begin.resize(n + 1);
    cfg.succ.reserve(n + n / 4 + arms);
    Transfer recent[kMaxDelay + 1];
    for (size_t s = 0; s < n; ++s) {
        const Item &item = unit.items[s];
        CfgNode &node = cfg.nodes[s];
        if (!item.is_data) {
            std::string err = isa::validate(item.inst);
            if (!err.empty() && diags) {
                diags->report(Code::VF001, Severity::ERROR, s,
                              "invalid instruction word: " + err);
            }
            // Label uses outside transfers (ld @sym / st @sym / li @sym).
            if (item.inst.mem &&
                cfg.targetKind(s) == TargetKind::UNDEFINED)
                reportUndefined(cfg, s, diags);
        }
        Transfer &t = recent[s % (kMaxDelay + 1)];
        t = classify(cfg, s, diags);
        uint32_t begin = static_cast<uint32_t>(cfg.succ.size());
        cfg.succ_begin[s] = begin;

        if (item.is_data)
            node.unknown_succ = true; // falling into data executes an
                                      // unpredictable decode
        else if (t.is_transfer && t.delay == 0)
            node.unknown_succ = t.to_unknown; // TRAP / RFE / HALT
        else if (s + 1 < n)
            cfg.succ.push_back(static_cast<uint32_t>(s + 1));
        else
            node.unknown_succ = true; // falls off the unit

        bool overridden = false;
        for (int d = kMaxDelay; d >= 1; --d) {
            if (s < static_cast<size_t>(d))
                continue;
            const Transfer &o = recent[(s - d) % (kMaxDelay + 1)];
            if (!o.is_transfer || o.delay != d)
                continue;
            if (!overridden) {
                overridden = true;
                if (!o.conditional) {
                    cfg.succ.resize(begin);
                    node.unknown_succ = false;
                }
            }
            if (o.to_unknown)
                node.unknown_succ = true;
            if (o.target != kNoItem)
                cfg.succ.push_back(static_cast<uint32_t>(o.target));
            if (o.arms)
                for (size_t arm : *o.arms)
                    cfg.succ.push_back(static_cast<uint32_t>(arm));
        }
        // Overlapping overrides on erroneous code can double up.
        if (cfg.succ.size() - begin > 1) {
            auto first = cfg.succ.begin() + begin;
            std::sort(first, cfg.succ.end());
            cfg.succ.erase(std::unique(first, cfg.succ.end()),
                           cfg.succ.end());
        }

        if (t.is_transfer && t.delay > 0) {
            // Mark the delay shadow (the first transfer to cover a
            // slot owns it).
            for (int d = 1; d <= t.delay && s + d < n; ++d) {
                CfgNode &slot = cfg.nodes[s + d];
                if (slot.shadow == ShadowKind::NONE) {
                    slot.shadow = t.shadow;
                    slot.shadow_owner = static_cast<uint32_t>(s);
                }
            }
            // A call returns past its delay slots: that resume point
            // can be entered from the callee's indirect jump.
            size_t resume = s + static_cast<size_t>(t.delay) + 1;
            if (item.inst.jump && isa::jumpIsCall(item.inst.jump->kind) &&
                resume < n)
                cfg.nodes[resume].unknown_pred = true;
        }
        if (!item.is_data && item.inst.special &&
            item.inst.special->op == isa::SpecialOp::TRAP && s + 1 < n)
            cfg.nodes[s + 1].unknown_pred = true; // handler resumes here
    }
    if (cfg.succ.size() >= UINT32_MAX)
        support::panic("buildCfg: %zu edges overflow 32-bit offsets",
                       cfg.succ.size());
    cfg.succ_begin[n] = static_cast<uint32_t>(cfg.succ.size());

    invertEdges(cfg);
    return cfg;
}

} // namespace mips::verify
