/**
 * @file
 * Recursive-descent parser for the Pascal-like language.
 *
 * Grammar sketch (case-insensitive keywords):
 *
 *   program    := 'program' IDENT ';' block '.'
 *   block      := [consts] [vars] {routine} 'begin' stmts 'end'
 *   consts     := 'const' {IDENT '=' (INT|CHAR) ';'}
 *   vars       := 'var' {identlist ':' type ';'}
 *   type       := 'integer' | 'char' | 'boolean'
 *               | ['packed'] 'array' '[' INT '..' INT ']' 'of' scalar
 *   routine    := ('procedure'|'function') IDENT [params]
 *                 [':' scalar] ';' [consts] [vars]
 *                 'begin' stmts 'end' ';'
 *   stmt       := IDENT [':=' expr | '[' expr ']' ':=' expr | args]
 *               | 'if' expr 'then' stmt ['else' stmt]
 *               | 'while' expr 'do' stmt
 *               | 'repeat' stmts 'until' expr
 *               | 'for' IDENT ':=' expr ('to'|'downto') expr 'do' stmt
 *               | 'begin' stmts 'end'
 *   expr       := simple [relop simple]
 *   simple     := ['-'] term {('+'|'-'|'or') term}
 *   term       := factor {('*'|'div'|'mod'|'and') factor}
 *   factor     := INT | CHAR | 'true' | 'false' | IDENT ['[' expr ']'
 *               | '(' args ')'] | '(' expr ')' | 'not' factor
 */
#pragma once

#include <string_view>

#include "plc/ast.h"
#include "support/result.h"

namespace mips::plc {

/**
 * Deepest nesting the parser accepts, counting every open statement
 * and factor (literal, variable, call, parenthesised expression or
 * `not` operand). It bounds the recursion of the parser and of every
 * pass over the tree; deeper input is a parse error naming the limit.
 */
constexpr int kMaxNestingDepth = 256;

/** Parse a whole program (no semantic analysis). */
support::Result<ProgramAst> parseProgram(std::string_view source);

} // namespace mips::plc
