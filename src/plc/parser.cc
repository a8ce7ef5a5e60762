#include "plc/parser.h"

#include "plc/lexer.h"
#include "support/logging.h"

namespace mips::plc {

namespace {

using support::Error;
using support::Result;

class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens)
        : tokens_(std::move(tokens))
    {}

    Result<ProgramAst> run();

  private:
    const Token &peek(int ahead = 0) const;
    Token take();
    bool at(Tok kind) const { return peek().kind == kind; }
    bool accept(Tok kind);

    [[noreturn]] void fail(const std::string &message);
    void expect(Tok kind);
    std::string expectIdent();

    void parseConsts(std::vector<ConstDecl> *out);
    void parseVars(std::vector<VarDecl> *out);
    Type parseType();
    Routine parseRoutine();
    std::vector<StmtPtr> parseStmts(); // until 'end'/'until'
    StmtPtr parseStmt();
    ExprPtr parseExpr();
    ExprPtr parseSimple();
    ExprPtr parseTerm();
    ExprPtr parseFactor();
    std::vector<ExprPtr> parseArgs();

    /** One open nesting level (see kMaxNestingDepth). */
    struct Level
    {
        explicit Level(Parser *p) : parser(p)
        {
            if (++parser->depth_ > kMaxNestingDepth)
                parser->fail(support::strprintf(
                    "nesting deeper than %d levels", kMaxNestingDepth));
        }
        ~Level() { --parser->depth_; }
        Parser *parser;
    };

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    int depth_ = 0;
    Error error_;
};

// Parse failures unwind via exception to keep the descent readable;
// the exception never escapes run().
struct ParseFailure
{
};

const Token &
Parser::peek(int ahead) const
{
    size_t i = pos_ + static_cast<size_t>(ahead);
    if (i >= tokens_.size())
        i = tokens_.size() - 1; // END_OF_FILE sentinel
    return tokens_[i];
}

Token
Parser::take()
{
    Token t = peek();
    if (pos_ + 1 < tokens_.size())
        ++pos_;
    return t;
}

bool
Parser::accept(Tok kind)
{
    if (at(kind)) {
        take();
        return true;
    }
    return false;
}

void
Parser::fail(const std::string &message)
{
    error_ = Error{message, peek().line, peek().column};
    throw ParseFailure{};
}

void
Parser::expect(Tok kind)
{
    if (!at(kind))
        fail("expected " + tokName(kind) + ", found " +
             tokName(peek().kind));
    take();
}

std::string
Parser::expectIdent()
{
    if (!at(Tok::IDENT))
        fail("expected identifier, found " + tokName(peek().kind));
    return take().text;
}

void
Parser::parseConsts(std::vector<ConstDecl> *out)
{
    if (!accept(Tok::KW_CONST))
        return;
    while (at(Tok::IDENT)) {
        ConstDecl decl;
        decl.line = peek().line;
        decl.name = expectIdent();
        expect(Tok::EQ);
        bool negative = accept(Tok::MINUS);
        if (at(Tok::INT_LIT)) {
            decl.value = take().int_value;
            if (negative)
                decl.value = -decl.value;
        } else if (at(Tok::CHAR_LIT) && !negative) {
            decl.value = static_cast<unsigned char>(take().char_value);
            decl.is_char = true;
        } else {
            fail("expected constant value");
        }
        expect(Tok::SEMI);
        out->push_back(std::move(decl));
    }
}

Type
Parser::parseType()
{
    Type type;
    if (accept(Tok::KW_PACKED)) {
        type.packed = true;
        if (!at(Tok::KW_ARRAY))
            fail("'packed' must precede 'array'");
    }
    if (accept(Tok::KW_ARRAY)) {
        type.is_array = true;
        expect(Tok::LBRACKET);
        bool neg_lo = accept(Tok::MINUS);
        if (!at(Tok::INT_LIT))
            fail("expected array lower bound");
        type.lo = take().int_value * (neg_lo ? -1 : 1);
        expect(Tok::DOTDOT);
        bool neg_hi = accept(Tok::MINUS);
        if (!at(Tok::INT_LIT))
            fail("expected array upper bound");
        type.hi = take().int_value * (neg_hi ? -1 : 1);
        if (type.hi < type.lo)
            fail("array upper bound below lower bound");
        expect(Tok::RBRACKET);
        expect(Tok::KW_OF);
    }
    if (accept(Tok::KW_INTEGER))
        type.base = BaseType::INTEGER;
    else if (accept(Tok::KW_CHAR))
        type.base = BaseType::CHAR;
    else if (accept(Tok::KW_BOOLEAN))
        type.base = BaseType::BOOLEAN;
    else
        fail("expected type name");
    if (type.packed && type.base == BaseType::INTEGER)
        fail("packed arrays of integer are not supported");
    return type;
}

void
Parser::parseVars(std::vector<VarDecl> *out)
{
    if (!accept(Tok::KW_VAR))
        return;
    while (at(Tok::IDENT)) {
        std::vector<std::string> names;
        std::vector<int> lines;
        names.push_back(expectIdent());
        lines.push_back(peek().line);
        while (accept(Tok::COMMA)) {
            lines.push_back(peek().line);
            names.push_back(expectIdent());
        }
        expect(Tok::COLON);
        Type type = parseType();
        expect(Tok::SEMI);
        for (size_t i = 0; i < names.size(); ++i) {
            VarDecl decl;
            decl.name = names[i];
            decl.type = type;
            decl.line = lines[i];
            out->push_back(std::move(decl));
        }
    }
}

Routine
Parser::parseRoutine()
{
    Routine routine;
    routine.line = peek().line;
    routine.is_function = take().kind == Tok::KW_FUNCTION;
    routine.name = expectIdent();

    if (accept(Tok::LPAREN)) {
        while (!at(Tok::RPAREN)) {
            std::vector<std::string> names;
            names.push_back(expectIdent());
            while (accept(Tok::COMMA))
                names.push_back(expectIdent());
            expect(Tok::COLON);
            Type type = parseType();
            if (type.is_array)
                fail("array parameters are not supported");
            for (const std::string &name : names)
                routine.params.push_back(Param{name, type.base});
            if (!at(Tok::RPAREN))
                expect(Tok::SEMI);
        }
        expect(Tok::RPAREN);
    }
    if (routine.is_function) {
        expect(Tok::COLON);
        Type type = parseType();
        if (type.is_array)
            fail("functions must return scalars");
        routine.return_type = type.base;
    }
    expect(Tok::SEMI);

    parseConsts(&routine.consts);
    parseVars(&routine.locals);
    expect(Tok::KW_BEGIN);
    routine.body = parseStmts();
    expect(Tok::KW_END);
    expect(Tok::SEMI);
    return routine;
}

std::vector<StmtPtr>
Parser::parseStmts()
{
    std::vector<StmtPtr> out;
    while (!at(Tok::KW_END) && !at(Tok::KW_UNTIL)) {
        out.push_back(parseStmt());
        if (!accept(Tok::SEMI))
            break;
    }
    return out;
}

std::vector<ExprPtr>
Parser::parseArgs()
{
    std::vector<ExprPtr> args;
    expect(Tok::LPAREN);
    if (!at(Tok::RPAREN)) {
        args.push_back(parseExpr());
        while (accept(Tok::COMMA))
            args.push_back(parseExpr());
    }
    expect(Tok::RPAREN);
    return args;
}

StmtPtr
Parser::parseStmt()
{
    Level level(this);
    auto stmt = std::make_unique<Stmt>();
    stmt->line = peek().line;

    switch (peek().kind) {
      case Tok::IDENT: {
        stmt->name = take().text;
        if (accept(Tok::LBRACKET)) {
            stmt->kind = Stmt::Kind::ASSIGN;
            stmt->index = parseExpr();
            expect(Tok::RBRACKET);
            expect(Tok::ASSIGN);
            stmt->value = parseExpr();
        } else if (accept(Tok::ASSIGN)) {
            stmt->kind = Stmt::Kind::ASSIGN;
            stmt->value = parseExpr();
        } else if (at(Tok::LPAREN)) {
            stmt->kind = Stmt::Kind::CALL;
            stmt->args = parseArgs();
        } else {
            stmt->kind = Stmt::Kind::CALL; // argument-less call
        }
        return stmt;
      }
      case Tok::KW_IF: {
        take();
        stmt->kind = Stmt::Kind::IF;
        stmt->cond = parseExpr();
        expect(Tok::KW_THEN);
        stmt->body.push_back(parseStmt());
        if (accept(Tok::KW_ELSE))
            stmt->else_body.push_back(parseStmt());
        return stmt;
      }
      case Tok::KW_CASE: {
        take();
        stmt->kind = Stmt::Kind::CASE;
        stmt->cond = parseExpr();
        expect(Tok::KW_OF);
        while (!at(Tok::KW_END) && !at(Tok::KW_ELSE)) {
            CaseArm arm;
            arm.labels.push_back(parseExpr());
            while (accept(Tok::COMMA))
                arm.labels.push_back(parseExpr());
            expect(Tok::COLON);
            arm.body.push_back(parseStmt());
            stmt->arms.push_back(std::move(arm));
            if (!accept(Tok::SEMI))
                break;
        }
        if (accept(Tok::KW_ELSE))
            stmt->else_body = parseStmts();
        expect(Tok::KW_END);
        return stmt;
      }
      case Tok::KW_WHILE: {
        take();
        stmt->kind = Stmt::Kind::WHILE;
        stmt->cond = parseExpr();
        expect(Tok::KW_DO);
        stmt->body.push_back(parseStmt());
        return stmt;
      }
      case Tok::KW_REPEAT: {
        take();
        stmt->kind = Stmt::Kind::REPEAT;
        stmt->body = parseStmts();
        expect(Tok::KW_UNTIL);
        stmt->cond = parseExpr();
        return stmt;
      }
      case Tok::KW_FOR: {
        take();
        stmt->kind = Stmt::Kind::FOR;
        stmt->name = expectIdent();
        expect(Tok::ASSIGN);
        stmt->from = parseExpr();
        if (accept(Tok::KW_DOWNTO))
            stmt->downto = true;
        else
            expect(Tok::KW_TO);
        stmt->to = parseExpr();
        expect(Tok::KW_DO);
        stmt->body.push_back(parseStmt());
        return stmt;
      }
      case Tok::KW_BEGIN: {
        take();
        // Compound statements flatten into an EMPTY node with a body.
        stmt->kind = Stmt::Kind::EMPTY;
        stmt->body = parseStmts();
        expect(Tok::KW_END);
        return stmt;
      }
      case Tok::SEMI:
      case Tok::KW_END:
        stmt->kind = Stmt::Kind::EMPTY;
        return stmt;
      default:
        fail("expected a statement, found " + tokName(peek().kind));
    }
}

ExprPtr
Parser::parseExpr()
{
    ExprPtr lhs = parseSimple();
    Tok kind = peek().kind;
    if (kind == Tok::EQ || kind == Tok::NE || kind == Tok::LT ||
        kind == Tok::LE || kind == Tok::GT || kind == Tok::GE) {
        auto expr = std::make_unique<Expr>();
        expr->kind = Expr::Kind::BINOP;
        expr->line = peek().line;
        expr->op = take().kind;
        expr->lhs = std::move(lhs);
        expr->rhs = parseSimple();
        return expr;
    }
    return lhs;
}

ExprPtr
Parser::parseSimple()
{
    ExprPtr lhs;
    if (at(Tok::MINUS)) {
        auto expr = std::make_unique<Expr>();
        expr->kind = Expr::Kind::UNOP;
        expr->line = peek().line;
        expr->op = take().kind;
        expr->lhs = parseTerm();
        lhs = std::move(expr);
    } else {
        lhs = parseTerm();
    }
    while (at(Tok::PLUS) || at(Tok::MINUS) || at(Tok::KW_OR)) {
        auto expr = std::make_unique<Expr>();
        expr->kind = Expr::Kind::BINOP;
        expr->line = peek().line;
        expr->op = take().kind;
        expr->lhs = std::move(lhs);
        expr->rhs = parseTerm();
        lhs = std::move(expr);
    }
    return lhs;
}

ExprPtr
Parser::parseTerm()
{
    ExprPtr lhs = parseFactor();
    while (at(Tok::STAR) || at(Tok::KW_DIV) || at(Tok::KW_MOD) ||
           at(Tok::KW_AND)) {
        auto expr = std::make_unique<Expr>();
        expr->kind = Expr::Kind::BINOP;
        expr->line = peek().line;
        expr->op = take().kind;
        expr->lhs = std::move(lhs);
        expr->rhs = parseFactor();
        lhs = std::move(expr);
    }
    return lhs;
}

ExprPtr
Parser::parseFactor()
{
    Level level(this);
    auto expr = std::make_unique<Expr>();
    expr->line = peek().line;

    switch (peek().kind) {
      case Tok::INT_LIT:
        expr->kind = Expr::Kind::INT_LIT;
        expr->int_value = take().int_value;
        return expr;
      case Tok::CHAR_LIT:
        expr->kind = Expr::Kind::CHAR_LIT;
        expr->char_value = take().char_value;
        return expr;
      case Tok::KW_TRUE:
      case Tok::KW_FALSE:
        expr->kind = Expr::Kind::BOOL_LIT;
        expr->bool_value = take().kind == Tok::KW_TRUE;
        return expr;
      case Tok::KW_NOT:
        take();
        expr->kind = Expr::Kind::UNOP;
        expr->op = Tok::KW_NOT;
        expr->lhs = parseFactor();
        return expr;
      case Tok::LPAREN: {
        take();
        ExprPtr inner = parseExpr();
        expect(Tok::RPAREN);
        return inner;
      }
      case Tok::IDENT: {
        expr->name = take().text;
        if (accept(Tok::LBRACKET)) {
            expr->kind = Expr::Kind::INDEX;
            expr->lhs = parseExpr();
            expect(Tok::RBRACKET);
        } else if (at(Tok::LPAREN)) {
            expr->kind = Expr::Kind::CALL;
            expr->args = parseArgs();
        } else {
            expr->kind = Expr::Kind::VAR;
        }
        return expr;
      }
      default:
        fail("expected an expression, found " + tokName(peek().kind));
    }
}

Result<ProgramAst>
Parser::run()
{
    try {
        ProgramAst program;
        expect(Tok::KW_PROGRAM);
        program.name = expectIdent();
        expect(Tok::SEMI);
        parseConsts(&program.consts);
        parseVars(&program.globals);
        while (at(Tok::KW_PROCEDURE) || at(Tok::KW_FUNCTION))
            program.routines.push_back(parseRoutine());
        expect(Tok::KW_BEGIN);
        program.body = parseStmts();
        expect(Tok::KW_END);
        expect(Tok::DOT);
        return program;
    } catch (const ParseFailure &) {
        return error_;
    }
}

} // namespace

std::string
baseTypeName(BaseType type)
{
    switch (type) {
      case BaseType::INTEGER: return "integer";
      case BaseType::CHAR:    return "char";
      case BaseType::BOOLEAN: return "boolean";
    }
    support::panic("baseTypeName: bad type");
}

support::Result<ProgramAst>
parseProgram(std::string_view source)
{
    auto tokens = lex(source);
    if (!tokens.ok())
        return tokens.error();
    Parser parser(tokens.take());
    return parser.run();
}

} // namespace mips::plc
