"""Recursive-descent parser for rules and procedures.

Binary operators are parsed by precedence climbing over
ast.BINARY_PREC, the one place their binding strengths are set; the
printer reads the same table.

Total over arbitrary input: every malformed program raises ParseError
carrying line, column, and the expected-token set. A depth guard keeps
deeply nested input from hitting the interpreter recursion limit, so the
parser never crashes: it either returns a tree or raises ParseError.
Each chain, expression and operand counts one level toward it; the climb
through the few precedence levels between them does not. A caller so
deep in the stack that the frames run out before the guard trips gets
the same ParseError.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ParseError
from .ast import (
    BINARY_PREC,
    INT64_MAX,
    INT64_MIN,
    Allow,
    Assign,
    Binary,
    Call,
    Deny,
    Expr,
    Foreach,
    If,
    Item,
    Lit,
    ProcedureAst,
    RuleAst,
    Unary,
    Var,
)
from .lexer import Token, tokenize

# Context variables the engine binds at a PEP firing; procedure bodies may
# reference these in addition to their own params and locals.
SYSTEM_VARS = frozenset({
    "user.name", "user.role", "op",
    "obj.path", "obj.owner", "coll.path", "resc.name",
})

_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.var_refs: list[Token] = []
        self._assigned: set[str] = set()

    # -- token plumbing ------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        got = tok.value if tok.kind != "EOF" else "end of input"
        return ParseError(f"unexpected {got!r}", tok.line, tok.column, expected)

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == op:
            return self.advance()
        raise self.fail((f"'{op}'",))

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value == word:
            return self.advance()
        raise self.fail((f"'{word}'",))

    def expect_name(self, what: str, allow_dotted: bool = False) -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.fail((what,))
        if not allow_dotted and "." in tok.value:
            raise ParseError(f"{what} must not be dotted", tok.line, tok.column)
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in words

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ParseError("nesting too deep", tok.line, tok.column)

    def _leave(self) -> None:
        self.depth -= 1

    # -- grammar -------------------------------------------------------

    def parse_ruleset(self) -> list[RuleAst]:
        rules: list[RuleAst] = []
        while self.peek().kind != "EOF":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> RuleAst:
        self.expect_kw("rule")
        name = self.expect_name("rule name").value
        priority = 0
        if self.at_kw("priority"):
            self.advance()
            priority = self._signed_int()
        self.expect_kw("on")
        pep = self.expect_name("enforcement point name", allow_dotted=True).value
        condition: Expr = Lit(True)
        if self.at_kw("when"):
            self.advance()
            condition = self.parse_expr()
        self.expect_kw("do")
        actions = self.parse_chain()
        return RuleAst(name=name, pep=pep, priority=priority,
                       condition=condition, actions=actions)

    def parse_procedure(self) -> ProcedureAst:
        self.expect_kw("procedure")
        name = self.expect_name("procedure name").value
        params = self._comma_list(self._param)
        self.expect_op("{")
        body = self.parse_chain()
        self.expect_op("}")
        if self.peek().kind != "EOF":
            raise self.fail(("end of input",))
        proc = ProcedureAst(name=name, params=params, body=body)
        self._check_references(proc)
        return proc

    def _param(self, params: list[str]) -> str:
        tok = self._simple_var("parameter")
        if tok.value in params:
            raise ParseError(f"duplicate parameter '${tok.value}'",
                             tok.line, tok.column)
        return tok.value

    def _comma_list(self, parse_one: Callable[[list], object]) -> list:
        """A parenthesized, comma-separated list, possibly empty;
        parse_one is handed the items parsed so far."""
        self.expect_op("(")
        items: list = []
        if not self.at_op(")"):
            items.append(parse_one(items))
            while self.at_op(","):
                self.advance()
                items.append(parse_one(items))
        self.expect_op(")")
        return items

    def _simple_var(self, what: str) -> Token:
        """A `$name` without dots; what names it in the error texts."""
        tok = self.peek()
        if tok.kind != "VAR":
            raise self.fail((what,))
        if "." in tok.value:
            raise ParseError(f"{what} must be a simple name",
                             tok.line, tok.column)
        return self.advance()

    def _signed_int(self) -> int:
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != "INT":
            raise self.fail(("integer",))
        self.advance()
        value = -tok.int_value if negative else tok.int_value
        if not INT64_MIN <= value <= INT64_MAX:
            raise ParseError("integer literal out of range", tok.line, tok.column)
        return value

    # -- chains ----------------------------------------------------------

    def parse_chain(self) -> list[Item]:
        self._enter()
        try:
            items = [self.parse_item()]
            while self.at_op(";"):
                self.advance()
                if self._at_item_start():
                    items.append(self.parse_item())
                else:
                    break  # trailing separator
            return items
        finally:
            self._leave()

    def _at_item_start(self) -> bool:
        tok = self.peek()
        if tok.kind in ("NAME", "VAR"):
            return True
        return tok.kind == "KEYWORD" and tok.value in (
            "if", "foreach", "allow", "deny")

    def parse_item(self) -> Item:
        tok = self.peek()
        if tok.kind == "NAME":
            return self.parse_call()
        if tok.kind == "VAR":
            if "." in tok.value:
                raise ParseError("cannot assign to a system binding",
                                 tok.line, tok.column)
            self.advance()
            self.expect_op("=")
            value = self.parse_call() if self.peek().kind == "NAME" \
                else self.parse_expr()
            self._assigned.add(tok.value)
            return Assign(target=tok.value, value=value)
        if self.at_kw("allow"):
            self.advance()
            self.expect_op("(")
            self.expect_op(")")
            return Allow()
        if self.at_kw("deny"):
            self.advance()
            self.expect_op("(")
            reason_tok = self.peek()
            if reason_tok.kind != "STRING":
                raise self.fail(("string",))
            self.advance()
            self.expect_op(")")
            return Deny(reason=reason_tok.value)
        if self.at_kw("if"):
            self.advance()
            cond = self.parse_expr()
            self.expect_op("{")
            then = self.parse_chain()
            self.expect_op("}")
            orelse = None
            if self.at_kw("else"):
                self.advance()
                self.expect_op("{")
                orelse = self.parse_chain()
                self.expect_op("}")
            return If(cond=cond, then=then, orelse=orelse)
        if self.at_kw("foreach"):
            self.advance()
            var = self._simple_var("loop variable").value
            self.expect_kw("in")
            items_expr = self.parse_expr()
            self.expect_op("{")
            self._assigned.add(var)
            body = self.parse_chain()
            self.expect_op("}")
            return Foreach(var=var, items=items_expr, body=body)
        raise self.fail(("call", "assignment", "'if'", "'foreach'",
                         "'allow'", "'deny'"))

    def parse_call(self) -> Call:
        name = self.expect_name("micro-service name").value
        args = self._comma_list(lambda _args: self.parse_expr())
        return Call(name=name, args=tuple(args))

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        self._enter()
        try:
            return self._parse_binary(1)
        finally:
            self._leave()

    def _parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing: operands joined by the operators that
        bind at least min_prec tightly. The right operand of an operator
        takes only tighter ones, so equal ones group to the left."""
        node = self._parse_unary()
        while True:
            tok = self.peek()  # not a string "+" nor a $matches
            prec = BINARY_PREC.get(tok.value, 0) \
                if tok.kind in ("OP", "KEYWORD") else 0
            if prec < min_prec:
                return node
            self.advance()
            node = Binary(tok.value, node, self._parse_binary(prec + 1))

    def _parse_unary(self) -> Expr:
        """An operand: `!` before an operand, a literal, a variable, or
        an expression in parentheses."""
        self._enter()
        try:
            tok = self.peek()
            if self.at_op("!"):
                self.advance()
                return Unary("!", self._parse_unary())
            if tok.kind == "INT" or (self.at_op("-") and
                                     self.tokens[self.pos + 1].kind == "INT"):
                return Lit(self._signed_int())
            if tok.kind == "STRING":
                self.advance()
                return Lit(tok.value)
            if self.at_kw("true", "false"):
                self.advance()
                return Lit(tok.value == "true")
            if tok.kind == "VAR":
                self.advance()
                self.var_refs.append(tok)
                return Var(tok.value)
            if self.at_op("("):
                self.advance()
                node = self.parse_expr()
                self.expect_op(")")
                return node
            raise self.fail(("expression",))
        finally:
            self._leave()

    # -- static reference check for procedures ---------------------------

    def _check_references(self, proc: ProcedureAst) -> None:
        declared = set(proc.params) | self._assigned
        for tok in self.var_refs:
            name = tok.value
            if name in declared or name in SYSTEM_VARS:
                continue
            raise ParseError(f"reference to undeclared variable '${name}'",
                             tok.line, tok.column)


def _parse(text: str, start: Callable[[_Parser], object]):
    parser = _Parser(text)
    try:
        return start(parser)
    except RecursionError:
        # _MAX_DEPTH bounds the nesting, not the frames below the caller:
        # a caller already deep in the stack runs out of frames first.
        tok = parser.peek()
        raise ParseError("nesting too deep", tok.line, tok.column) from None


def parse_rules(text: str) -> list[RuleAst]:
    """Parse zero or more rules; source order is preserved."""
    return _parse(text, _Parser.parse_ruleset)


def parse_procedure(text: str) -> ProcedureAst:
    """Parse exactly one procedure definition."""
    return _parse(text, _Parser.parse_procedure)
