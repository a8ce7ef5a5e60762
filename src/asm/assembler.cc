#include "asm/assembler.h"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "support/bits.h"
#include "support/logging.h"
#include "support/strings.h"

namespace mips::assembler {

using isa::AluOp;
using isa::AluPiece;
using isa::BranchPiece;
using isa::Cond;
using isa::Instruction;
using isa::JumpKind;
using isa::JumpPiece;
using isa::MemMode;
using isa::MemPiece;
using isa::Reg;
using isa::SpecialOp;
using isa::SpecialPiece;
using isa::SpecialReg;
using isa::Src2;
using support::Error;
using support::Result;
using support::trim;

namespace {

/** Parser for one source; accumulates items into a Unit. */
class Parser
{
  public:
    explicit Parser(std::string_view source) : source_(source) {}

    Result<Unit> run();

  private:
    // --- Line-level parsing -------------------------------------------
    Result<bool> parseLine(std::string_view line);
    Result<bool> parseDirective(std::string_view body);
    Result<Instruction> parseInstruction(std::string_view text);
    Result<Instruction> parsePiece(std::string_view text,
                                   std::string *target);

    // Individual statement families; `ops` holds comma-split operands.
    Result<Instruction> parseAluLike(const std::string &mnemonic,
                                     const std::vector<std::string> &ops);
    Result<Instruction> parseMem(const std::string &mnemonic,
                                 const std::vector<std::string> &ops,
                                 std::string *target);
    Result<Instruction> parseBranch(const std::string &mnemonic,
                                    const std::vector<std::string> &ops,
                                    std::string *target);
    Result<Instruction> parseJump(const std::string &mnemonic,
                                  const std::vector<std::string> &ops,
                                  std::string *target);

    // --- Operand parsing ----------------------------------------------
    std::optional<Reg> parseReg(std::string_view text) const;
    std::optional<int64_t> parseNumber(std::string_view text) const;
    std::optional<int64_t> parseImmediate(std::string_view text) const;
    Result<Src2> parseSrc2(std::string_view text) const;
    Result<MemPiece> parseMemOperand(std::string_view text,
                                     bool is_store, Reg data) const;

    Error err(const std::string &message) const;
    void addItem(Item item);

    std::string_view source_;
    Unit unit_;
    std::vector<std::string> pending_labels_;
    std::string pending_target_;
    bool no_reorder_ = false;
    int line_no_ = 0;
};

Error
Parser::err(const std::string &message) const
{
    return Error{message, line_no_, 0};
}

void
Parser::addItem(Item item)
{
    item.labels = pending_labels_;
    pending_labels_.clear();
    item.no_reorder = no_reorder_;
    item.source_line = line_no_;
    unit_.items.push_back(std::move(item));
}

std::optional<Reg>
Parser::parseReg(std::string_view text) const
{
    text = trim(text);
    if (text.size() < 2 || text.size() > 3 || text[0] != 'r')
        return std::nullopt;
    int value = 0;
    for (size_t i = 1; i < text.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(text[i])))
            return std::nullopt;
        value = value * 10 + (text[i] - '0');
    }
    if (!isa::isValidReg(value))
        return std::nullopt;
    return static_cast<Reg>(value);
}

std::optional<int64_t>
Parser::parseNumber(std::string_view text) const
{
    text = trim(text);
    if (text.empty())
        return std::nullopt;
    // Character literal.
    if (text.size() == 3 && text.front() == '\'' && text.back() == '\'')
        return static_cast<int64_t>(static_cast<unsigned char>(text[1]));
    std::string s(text);
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size())
        return std::nullopt;
    return v;
}

std::optional<int64_t>
Parser::parseImmediate(std::string_view text) const
{
    text = trim(text);
    if (text.empty() || text[0] != '#')
        return std::nullopt;
    return parseNumber(text.substr(1));
}

Result<Src2>
Parser::parseSrc2(std::string_view text) const
{
    if (auto reg = parseReg(text))
        return Src2::fromReg(*reg);
    if (auto imm = parseImmediate(text)) {
        if (*imm < 0 || *imm > 15) {
            return err("inline constant out of range 0..15 "
                       "(use reverse operators for negatives, "
                       "movi/ldi for larger values)");
        }
        return Src2::fromImm(static_cast<uint8_t>(*imm));
    }
    return err("bad operand '" + std::string(text) +
               "' (expected register or #constant)");
}

Result<MemPiece>
Parser::parseMemOperand(std::string_view text, bool is_store,
                        Reg data) const
{
    text = trim(text);
    MemPiece m;
    m.is_store = is_store;
    m.rd = data;

    if (!text.empty() && text[0] == '@') {
        // Absolute: @addr
        auto addr = parseNumber(text.substr(1));
        if (!addr)
            return err("bad absolute address");
        m.mode = MemMode::ABSOLUTE;
        m.imm = static_cast<int32_t>(*addr);
        return m;
    }

    size_t open = text.find('(');
    if (open == std::string_view::npos || text.back() != ')')
        return err("bad memory operand '" + std::string(text) + "'");
    std::string_view disp_text = trim(text.substr(0, open));
    std::string_view inner =
        trim(text.substr(open + 1, text.size() - open - 2));

    size_t plus = inner.find('+');
    if (plus != std::string_view::npos) {
        // (base+index) or (base+index>>shift)
        if (!disp_text.empty())
            return err("displacement not allowed with (base+index)");
        auto base = parseReg(inner.substr(0, plus));
        if (!base)
            return err("bad base register");
        std::string_view rest = trim(inner.substr(plus + 1));
        size_t shift_pos = rest.find(">>");
        if (shift_pos == std::string_view::npos) {
            auto index = parseReg(rest);
            if (!index)
                return err("bad index register");
            m.mode = MemMode::BASE_INDEX;
            m.base = *base;
            m.index = *index;
        } else {
            auto index = parseReg(rest.substr(0, shift_pos));
            auto shift = parseNumber(rest.substr(shift_pos + 2));
            if (!index || !shift || *shift < 0 || *shift > 7)
                return err("bad base-shifted operand");
            m.mode = MemMode::BASE_SHIFT;
            m.base = *base;
            m.index = *index;
            m.shift = static_cast<uint8_t>(*shift);
        }
        return m;
    }

    // disp(base); empty displacement means 0.
    auto base = parseReg(inner);
    if (!base)
        return err("bad base register '" + std::string(inner) + "'");
    int64_t disp = 0;
    if (!disp_text.empty()) {
        auto d = parseNumber(disp_text);
        if (!d)
            return err("bad displacement '" + std::string(disp_text) + "'");
        disp = *d;
    }
    m.mode = MemMode::DISP;
    m.base = *base;
    m.imm = static_cast<int32_t>(disp);
    return m;
}

Result<Instruction>
Parser::parseAluLike(const std::string &mnemonic,
                     const std::vector<std::string> &ops)
{
    AluPiece a;

    // set<cond>
    if (support::startsWith(mnemonic, "set") && mnemonic.size() > 3) {
        Cond cond;
        if (!isa::parseCond(mnemonic.substr(3), &cond))
            return err("unknown comparison '" + mnemonic.substr(3) + "'");
        if (ops.size() != 3)
            return err("set<cond> needs 3 operands: rs, src2, rd");
        auto rs = parseReg(ops[0]);
        auto src2 = parseSrc2(ops[1]);
        auto rd = parseReg(ops[2]);
        if (!rs || !src2.ok() || !rd)
            return err("bad set<cond> operands");
        a.op = AluOp::SET;
        a.cond = cond;
        a.rs = *rs;
        a.src2 = src2.value();
        a.rd = *rd;
        return Instruction::makeAlu(a);
    }

    if (mnemonic == "movi") {
        if (ops.size() != 2)
            return err("movi needs 2 operands: #imm8, rd");
        auto imm = parseImmediate(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!imm || !rd)
            return err("bad movi operands");
        if (*imm < 0 || *imm > 255)
            return err("movi constant out of range 0..255");
        a.op = AluOp::MOVI8;
        a.imm8 = static_cast<uint8_t>(*imm);
        a.rd = *rd;
        return Instruction::makeAlu(a);
    }

    if (mnemonic == "li") {
        // Pseudo: pick the cheapest encoding.
        if (ops.size() != 2)
            return err("li needs 2 operands: #imm, rd");
        auto imm = parseImmediate(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!imm || !rd)
            return err("bad li operands");
        if (*imm >= 0 && *imm <= 255) {
            a.op = AluOp::MOVI8;
            a.imm8 = static_cast<uint8_t>(*imm);
            a.rd = *rd;
            return Instruction::makeAlu(a);
        }
        if (support::fitsSigned(*imm, isa::kLongImmBits)) {
            MemPiece m;
            m.mode = MemMode::LONG_IMM;
            m.rd = *rd;
            m.imm = static_cast<int32_t>(*imm);
            return Instruction::makeMem(m);
        }
        return err("li constant exceeds 21 bits; use a .word pool");
    }

    if (mnemonic == "mov") {
        if (ops.size() != 2)
            return err("mov needs 2 operands: rs, rd");
        auto rs = parseReg(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!rs || !rd)
            return err("bad mov operands");
        a.op = AluOp::ADD;
        a.rs = *rs;
        a.src2 = Src2::fromImm(0);
        a.rd = *rd;
        return Instruction::makeAlu(a);
    }

    if (mnemonic == "not") {
        if (ops.size() != 2)
            return err("not needs 2 operands: rs, rd");
        auto rs = parseReg(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!rs || !rd)
            return err("bad not operands");
        a.op = AluOp::NOT;
        a.rs = *rs;
        a.rd = *rd;
        return Instruction::makeAlu(a);
    }

    if (mnemonic == "mtlo" || mnemonic == "mflo") {
        if (ops.size() != 1)
            return err(mnemonic + " needs 1 operand");
        auto r = parseReg(ops[0]);
        if (!r)
            return err("bad register");
        a.op = mnemonic == "mtlo" ? AluOp::MTLO : AluOp::MFLO;
        (mnemonic == "mtlo" ? a.rs : a.rd) = *r;
        return Instruction::makeAlu(a);
    }

    if (mnemonic == "ic" || mnemonic == "mstep" || mnemonic == "dstep") {
        if (ops.size() != 2)
            return err(mnemonic + " needs 2 operands: rs, rd");
        auto rs = parseReg(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!rs || !rd)
            return err("bad operands");
        a.op = mnemonic == "ic" ? AluOp::IC
             : mnemonic == "mstep" ? AluOp::MSTEP : AluOp::DSTEP;
        a.rs = *rs;
        a.rd = *rd;
        return Instruction::makeAlu(a);
    }

    // Three-operand ALU ops.
    static const std::pair<const char *, AluOp> kThreeOps[] = {
        {"add", AluOp::ADD}, {"sub", AluOp::SUB}, {"rsub", AluOp::RSUB},
        {"and", AluOp::AND}, {"or", AluOp::OR}, {"xor", AluOp::XOR},
        {"sll", AluOp::SLL}, {"srl", AluOp::SRL}, {"sra", AluOp::SRA},
        {"xc", AluOp::XC},
    };
    for (const auto &[name, op] : kThreeOps) {
        if (mnemonic != name)
            continue;
        if (ops.size() != 3)
            return err(mnemonic + " needs 3 operands: rs, src2, rd");
        auto rs = parseReg(ops[0]);
        auto src2 = parseSrc2(ops[1]);
        auto rd = parseReg(ops[2]);
        if (!rs || !src2.ok() || !rd) {
            return src2.ok() ? err("bad " + mnemonic + " operands")
                             : src2.error();
        }
        a.op = op;
        a.rs = *rs;
        a.src2 = src2.value();
        a.rd = *rd;
        return Instruction::makeAlu(a);
    }

    return err("unknown mnemonic '" + mnemonic + "'");
}

Result<Instruction>
Parser::parseMem(const std::string &mnemonic,
                 const std::vector<std::string> &ops,
                 std::string *target)
{
    if (mnemonic == "ldi") {
        if (ops.size() != 2)
            return err("ldi needs 2 operands: #imm, rd");
        auto imm = parseImmediate(ops[0]);
        auto rd = parseReg(ops[1]);
        if (!imm || !rd)
            return err("bad ldi operands");
        MemPiece m;
        m.mode = MemMode::LONG_IMM;
        m.rd = *rd;
        m.imm = static_cast<int32_t>(*imm);
        std::string verr = isa::memValidate(m);
        if (!verr.empty())
            return err(verr);
        return Instruction::makeMem(m);
    }

    bool is_store = mnemonic == "st";
    if (ops.size() != 2)
        return err(mnemonic + " needs 2 operands");

    // ld addr, rd  /  st rd, addr
    const std::string &addr_text = is_store ? ops[1] : ops[0];
    const std::string &data_text = is_store ? ops[0] : ops[1];
    auto data = parseReg(data_text);
    if (!data)
        return err("bad data register '" + data_text + "'");

    // Symbolic absolute: "@label" resolves at link time.
    std::string_view addr_view = trim(addr_text);
    if (addr_view.size() > 1 && addr_view[0] == '@' &&
        !parseNumber(addr_view.substr(1))) {
        MemPiece m;
        m.mode = MemMode::ABSOLUTE;
        m.is_store = is_store;
        m.rd = *data;
        m.imm = 0;
        *target = std::string(addr_view.substr(1));
        return Instruction::makeMem(m);
    }

    auto mem = parseMemOperand(addr_text, is_store, *data);
    if (!mem.ok())
        return mem.error();
    std::string verr = isa::memValidate(mem.value());
    if (!verr.empty())
        return err(verr);
    return Instruction::makeMem(mem.value());
}

Result<Instruction>
Parser::parseBranch(const std::string &mnemonic,
                    const std::vector<std::string> &ops,
                    std::string *target)
{
    BranchPiece b;
    const std::string *target_text = nullptr;

    if (mnemonic == "bra") {
        if (ops.size() != 1)
            return err("bra needs 1 operand: target");
        b.cond = Cond::ALWAYS;
        target_text = &ops[0];
    } else {
        Cond cond;
        if (!isa::parseCond(mnemonic.substr(1), &cond))
            return err("unknown branch '" + mnemonic + "'");
        b.cond = cond;
        if (cond == Cond::ALWAYS || cond == Cond::NEVER) {
            if (ops.size() != 1)
                return err(mnemonic + " needs 1 operand: target");
            target_text = &ops[0];
        } else {
            if (ops.size() != 3)
                return err(mnemonic +
                           " needs 3 operands: rs, src2, target");
            auto rs = parseReg(ops[0]);
            auto src2 = parseSrc2(ops[1]);
            if (!rs || !src2.ok())
                return err("bad branch operands");
            b.rs = *rs;
            b.src2 = src2.value();
            target_text = &ops[2];
        }
    }

    if (auto num = parseNumber(*target_text)) {
        // Absolute numeric target: caller resolves relative offset at
        // link time via the synthetic label path; store directly.
        b.offset = 0;
        Instruction inst = Instruction::makeBranch(b);
        // Encode the absolute target as a synthetic label "@N" so the
        // linker computes the relative offset from the final address.
        *target = support::strprintf("@abs:%lld",
                                     static_cast<long long>(*num));
        return inst;
    }
    *target = *target_text;
    return Instruction::makeBranch(b);
}

Result<Instruction>
Parser::parseJump(const std::string &mnemonic,
                  const std::vector<std::string> &ops,
                  std::string *target)
{
    JumpPiece j;
    bool is_call = mnemonic == "call";
    if (mnemonic == "jtab") {
        // jtab (base+index)[, table_label] — PC = mem[base + index].
        // The label names the table's first .word entry; it is not
        // encoded (the base register already holds the address) but
        // travels as item metadata for the verifier's successor sets.
        if (ops.empty() || ops.size() > 2)
            return err("jtab needs (base+index) and an optional "
                       "table label");
        std::string_view tv = trim(ops[0]);
        if (tv.size() < 2 || tv.front() != '(' || tv.back() != ')')
            return err("bad jtab operand '" + ops[0] + "'");
        std::string_view inner = trim(tv.substr(1, tv.size() - 2));
        size_t plus = inner.find('+');
        if (plus == std::string_view::npos)
            return err("jtab needs a (base+index) operand");
        auto base = parseReg(inner.substr(0, plus));
        auto index = parseReg(inner.substr(plus + 1));
        if (!base || !index)
            return err("bad jtab registers");
        j.kind = JumpKind::TABLE;
        j.target_reg = *base;
        j.index = *index;
        if (ops.size() == 2)
            *target = ops[1];
        return Instruction::makeJump(j);
    }
    if (is_call) {
        if (ops.size() != 2)
            return err("call needs 2 operands: target, link");
        auto link = parseReg(ops[1]);
        if (!link)
            return err("bad link register");
        j.link = *link;
    } else if (ops.size() != 1) {
        return err("jmp needs 1 operand");
    }

    const std::string &t = ops[0];
    std::string_view tv = trim(t);
    if (!tv.empty() && tv.front() == '(' && tv.back() == ')') {
        auto reg = parseReg(tv.substr(1, tv.size() - 2));
        if (!reg)
            return err("bad indirect jump register");
        j.kind = is_call ? JumpKind::CALL_INDIRECT : JumpKind::INDIRECT;
        j.target_reg = *reg;
        return Instruction::makeJump(j);
    }

    j.kind = is_call ? JumpKind::CALL_DIRECT : JumpKind::DIRECT;
    if (auto num = parseNumber(tv)) {
        j.target_addr = static_cast<uint32_t>(*num);
    } else {
        *target = std::string(tv);
    }
    return Instruction::makeJump(j);
}

Result<Instruction>
Parser::parsePiece(std::string_view text, std::string *target)
{
    text = trim(text);
    size_t sp = text.find_first_of(" \t");
    std::string mnemonic = support::toLower(
        sp == std::string_view::npos ? text : text.substr(0, sp));
    std::string_view rest =
        sp == std::string_view::npos ? "" : trim(text.substr(sp));

    std::vector<std::string> ops;
    if (!rest.empty()) {
        for (std::string_view piece : support::split(rest, ','))
            ops.emplace_back(trim(piece));
    }

    if (mnemonic == "nop")
        return Instruction::makeNop();
    if (mnemonic == "halt")
        return Instruction::makeHalt();
    if (mnemonic == "rfe") {
        SpecialPiece p;
        p.op = SpecialOp::RFE;
        return Instruction::makeSpecial(p);
    }
    if (mnemonic == "trap") {
        if (ops.size() != 1)
            return err("trap needs 1 operand: #code");
        auto code = parseImmediate(ops[0]);
        if (!code || *code < 0 || *code >= 4096)
            return err("bad trap code");
        return Instruction::makeTrap(static_cast<uint16_t>(*code));
    }
    if (mnemonic == "mfs" || mnemonic == "mts") {
        if (ops.size() != 2)
            return err(mnemonic + " needs 2 operands");
        SpecialPiece p;
        p.op = mnemonic == "mfs" ? SpecialOp::MFS : SpecialOp::MTS;
        const std::string &sreg_text = mnemonic == "mfs" ? ops[0] : ops[1];
        const std::string &reg_text = mnemonic == "mfs" ? ops[1] : ops[0];
        auto reg = parseReg(reg_text);
        if (!reg)
            return err("bad register");
        p.reg = *reg;
        bool found = false;
        for (int i = 0; i < isa::kNumSpecialRegs; ++i) {
            auto sr = static_cast<SpecialReg>(i);
            if (isa::specialRegName(sr) == support::toLower(sreg_text)) {
                p.sreg = sr;
                found = true;
                break;
            }
        }
        if (!found)
            return err("unknown special register '" + sreg_text + "'");
        return Instruction::makeSpecial(p);
    }

    if (mnemonic == "la") {
        // Load address: a long immediate whose value is a label.
        if (ops.size() != 2)
            return err("la needs 2 operands: label, rd");
        auto rd = parseReg(ops[1]);
        if (!rd)
            return err("bad la destination register");
        MemPiece m;
        m.mode = MemMode::LONG_IMM;
        m.rd = *rd;
        if (auto num = parseNumber(ops[0]))
            m.imm = static_cast<int32_t>(*num);
        else
            *target = ops[0];
        return Instruction::makeMem(m);
    }
    if (mnemonic == "ld" || mnemonic == "st" || mnemonic == "ldi")
        return parseMem(mnemonic, ops, target);
    if (mnemonic == "bra" ||
        (mnemonic.size() > 1 && mnemonic[0] == 'b' &&
         mnemonic != "and")) {
        Cond c;
        if (mnemonic == "bra" || isa::parseCond(mnemonic.substr(1), &c))
            return parseBranch(mnemonic, ops, target);
    }
    if (mnemonic == "jmp" || mnemonic == "call" || mnemonic == "jtab")
        return parseJump(mnemonic, ops, target);

    return parseAluLike(mnemonic, ops);
}

Result<Instruction>
Parser::parseInstruction(std::string_view text)
{
    // Packed source form: "alu | mem" (either order).
    size_t bar = text.find('|');
    std::string target;
    if (bar == std::string_view::npos) {
        auto inst = parsePiece(text, &target);
        if (!inst.ok())
            return inst;
        Instruction result = inst.value();
        if (!target.empty()) {
            // Communicated via member below (addItem attaches it).
            pending_target_ = target;
        }
        return result;
    }

    auto first = parsePiece(text.substr(0, bar), &target);
    if (!first.ok())
        return first;
    if (!target.empty())
        return err("branches cannot be packed");
    auto second = parsePiece(text.substr(bar + 1), &target);
    if (!second.ok())
        return second;
    if (!target.empty())
        return err("branches cannot be packed");

    Instruction a = first.value(), b = second.value();
    const Instruction &alu_word = a.alu ? a : b;
    const Instruction &mem_word = a.alu ? b : a;
    if (!alu_word.alu || !mem_word.mem)
        return err("a packed word needs one ALU and one memory piece");
    Instruction packed =
        Instruction::makePacked(*alu_word.alu, *mem_word.mem);
    std::string verr = isa::validate(packed);
    if (!verr.empty())
        return err(verr);
    return packed;
}

Result<bool>
Parser::parseDirective(std::string_view body)
{
    auto tokens = support::splitWhitespace(body);
    std::string name = support::toLower(tokens[0]);

    if (name == ".org") {
        if (tokens.size() != 2)
            return err(".org needs an address");
        auto addr = parseNumber(tokens[1]);
        if (!addr || *addr < 0)
            return err("bad .org address");
        if (!unit_.items.empty())
            return err(".org must precede all instructions");
        unit_.origin = static_cast<uint32_t>(*addr);
        return true;
    }
    if (name == ".word") {
        if (tokens.size() != 2)
            return err(".word needs a value");
        Item item;
        item.is_data = true;
        if (auto value = parseNumber(tokens[1])) {
            item.data_value = static_cast<uint32_t>(*value);
        } else {
            // Symbolic entry: the label's address becomes the word at
            // link time (jump-table entries are built from these).
            item.target = std::string(tokens[1]);
        }
        addItem(std::move(item));
        return true;
    }
    if (name == ".space") {
        if (tokens.size() != 2)
            return err(".space needs a count");
        auto count = parseNumber(tokens[1]);
        if (!count || *count < 0 || *count > (1 << 20))
            return err("bad .space count");
        for (int64_t i = 0; i < *count; ++i) {
            Item item;
            item.is_data = true;
            addItem(std::move(item));
        }
        return true;
    }
    if (name == ".asciiw") {
        size_t q1 = body.find('"');
        size_t q2 = body.rfind('"');
        if (q1 == std::string_view::npos || q2 <= q1)
            return err(".asciiw needs a quoted string");
        std::string_view text = body.substr(q1 + 1, q2 - q1 - 1);
        // Pack four characters per word, low byte first; always
        // emit the terminating zero byte.
        uint32_t word = 0;
        int nbytes = 0;
        for (size_t i = 0; i <= text.size(); ++i) {
            uint8_t c = i < text.size()
                ? static_cast<uint8_t>(text[i]) : 0;
            word |= static_cast<uint32_t>(c) << (8 * nbytes);
            if (++nbytes == 4 || i == text.size()) {
                Item item;
                item.is_data = true;
                item.data_value = word;
                addItem(std::move(item));
                word = 0;
                nbytes = 0;
            }
        }
        return true;
    }
    if (name == ".noreorder") {
        no_reorder_ = true;
        return true;
    }
    if (name == ".reorder") {
        no_reorder_ = false;
        return true;
    }
    return err("unknown directive '" + name + "'");
}

Result<bool>
Parser::parseLine(std::string_view line)
{
    // Strip comment.
    size_t semi = line.find(';');
    if (semi != std::string_view::npos)
        line = line.substr(0, semi);
    line = trim(line);
    if (line.empty())
        return true;

    // Leading labels: IDENT ':' (possibly several).
    while (true) {
        size_t colon = line.find(':');
        if (colon == std::string_view::npos)
            break;
        std::string_view head = trim(line.substr(0, colon));
        bool is_ident = !head.empty();
        for (char c : head) {
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '_' && c != '$' && c != '.') {
                is_ident = false;
                break;
            }
        }
        if (!is_ident)
            break;
        pending_labels_.emplace_back(head);
        line = trim(line.substr(colon + 1));
        if (line.empty())
            return true;
    }

    if (line[0] == '.')
        return parseDirective(line);

    auto inst = parseInstruction(line);
    if (!inst.ok())
        return inst.error();
    Item item;
    item.inst = inst.value();
    item.target = std::move(pending_target_);
    pending_target_.clear();
    addItem(std::move(item));
    return true;
}

Result<Unit>
Parser::run()
{
    for (std::string_view raw : support::split(source_, '\n')) {
        ++line_no_;
        auto ok = parseLine(raw);
        if (!ok.ok())
            return ok.error();
    }
    unit_.trailing_labels = pending_labels_;

    // Synthesize labels for absolute numeric branch targets ("@abs:N").
    // They resolve to fixed addresses regardless of code motion.
    // We implement them by pre-seeding the link()-visible label space:
    // link() cannot know them, so rewrite into offsets now.
    uint32_t addr = unit_.origin;
    for (Item &item : unit_.items) {
        if (support::startsWith(item.target, "@abs:")) {
            long long target = std::strtoll(item.target.c_str() + 5,
                                            nullptr, 10);
            if (item.inst.branch) {
                item.inst.branch->offset =
                    static_cast<int32_t>(target -
                                         (static_cast<int64_t>(addr) + 1));
            }
            item.target.clear();
        }
        ++addr;
    }
    return std::move(unit_); // run() is the parser's last use
}

} // namespace

Result<Unit>
parse(std::string_view source)
{
    Parser parser(source);
    return parser.run();
}

Result<Program>
assemble(std::string_view source)
{
    auto unit = parse(source);
    if (!unit.ok())
        return unit.error();
    return link(unit.value());
}

Program
assembleOrDie(std::string_view source)
{
    auto prog = assemble(source);
    if (!prog.ok())
        support::panic("assembly failed: %s", prog.error().str().c_str());
    return prog.take();
}

} // namespace mips::assembler
