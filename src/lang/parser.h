// A textual frontend for the imperative language: parses programs written
// in the paper's pseudocode style into lang::Programs.
//
//   yesterday = empty();
//   day = 1;
//   do {
//     visits = readFile("pageVisitLog" ++ day);
//     counts = visits.map(pairWithOne).reduceByKey(sumInt64);
//     if (day != 1) {
//       summed = yesterday.join(counts).map(absDiff).reduce(sumInt64);
//       write(summed, "diff" ++ day);
//     }
//     yesterday = counts;
//     day = day + 1;
//   } while (day <= 365);
//
// User functions are referenced by name from the builtin table,
// MITOS_BUILTINS in lang/functions.h: one row per builtin gives its name,
// its int64 literal parameters with their valid ranges, and its body. A
// reference with the wrong argument count or an argument out of range is
// a parse error. This keeps the surface language closed — exactly
// the situation of an external DSL like SystemDS' language, which the
// paper names as an alternative frontend whose compiler "can naturally
// inspect the control flow" (Sec. 3).
//
// Grammar (informal):
//   program   := stmt*
//   stmt      := ident '=' expr ';'
//              | 'while' '(' expr ')' block
//              | 'do' block 'while' '(' expr ')' ';'
//              | 'if' '(' expr ')' block ('else' block)?
//              | 'write' '(' expr ',' expr ')' ';'
//   block     := '{' stmt* '}'
//   expr      := orExpr, with '||' '&&' '==' '!=' '<' '<=' '>' '>='
//                '+' '-' '++' '*' '/' '%' '!' and parentheses;
//                postfix method chains: e '.' method '(' args ')'
//   primary   := int | float | string | 'true' | 'false' | ident
//              | 'readFile' '(' expr ')' | 'empty' '(' ')'
//              | 'bagOf' '(' literal* ')' | 'newBag' '(' expr ')'
//              | 'scalarOf' '(' expr ')'
//   literal   := int | float | string | '(' literal (',' literal)* ')'
//                (parenthesized literals are tuples, e.g. bagOf((1, 2)))
//   methods   := map | filter | flatMap | reduceByKey | reduce | join
//              | union | distinct | count
#ifndef MITOS_LANG_PARSER_H_
#define MITOS_LANG_PARSER_H_

#include <string>

#include "common/status.h"
#include "lang/ast.h"

namespace mitos::lang {

// Parses `source`; errors carry line/column and a short description.
StatusOr<Program> Parse(const std::string& source);

}  // namespace mitos::lang

#endif  // MITOS_LANG_PARSER_H_
