import inspect
import re
import sys

import pytest

from pgzone.errors import (
    DivisionByZero,
    ParseError,
    TypeMismatch,
    UnboundVariable,
)
from pgzone.ruledsl import (
    Allow,
    Assign,
    Binary,
    Call,
    Deny,
    Foreach,
    If,
    Lit,
    RuleAst,
    Unary,
    Var,
    eval_expr,
    parse_procedure,
    parse_rules,
    pretty_print,
    print_rule,
)
from pgzone.ruledsl.ast import BINARY_PREC, INT64_MAX, INT64_MIN
from pgzone.ruledsl.lexer import tokenize

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]  # drop EOF


def test_lexer_basic_tokens():
    assert kinds('rule x on pep.data.put.pre do allow()') == [
        ("KEYWORD", "rule"), ("NAME", "x"), ("KEYWORD", "on"),
        ("NAME", "pep.data.put.pre"), ("KEYWORD", "do"),
        ("KEYWORD", "allow"), ("OP", "("), ("OP", ")"),
    ]


def test_lexer_vars_and_ops():
    got = kinds('$a.b == $c && !$d || 1 <= 2')
    assert ("VAR", "a.b") in got and ("OP", "&&") in got
    assert ("OP", "<=") in got and ("OP", "!") in got


def test_lexer_string_escapes():
    toks = tokenize(r'"a\"b\\c\nd"')
    assert toks[0].value == 'a"b\\c\nd'


def test_lexer_comments_and_newlines():
    toks = kinds("allow() # trailing comment\n# full line\ndeny")
    assert toks == [("KEYWORD", "allow"), ("OP", "("), ("OP", ")"),
                    ("KEYWORD", "deny")]


@pytest.mark.parametrize("bad", [
    '"unterminated', '"bad \\q escape"', "@", "&", "|", "1" * 20,
    '"newline\nin string"',
    "92233720368³4775807",  # unicode digit inside a number
    "٢",                    # ARABIC-INDIC TWO, isdigit() but not ASCII
])
def test_lexer_rejects(bad):
    with pytest.raises(ParseError):
        tokenize(bad)


def test_lexer_error_carries_position():
    with pytest.raises(ParseError) as e:
        tokenize("allow()\n  @")
    assert e.value.line == 2 and e.value.column == 3


def test_lexer_end_after_trailing_comment_is_the_true_end():
    text = "rule r on pep.data.put.pre do # c"
    end = tokenize(text)[-1]
    assert (end.kind, end.line, end.column) == ("EOF", 1, len(text) + 1)
    with pytest.raises(ParseError) as e:
        parse_rules(text)
    assert (e.value.line, e.value.column) == (1, len(text) + 1)


@pytest.mark.parametrize("space", ["\f", "\xa0", "\u3000"])
def test_rule_with_unicode_whitespace_between_tokens_parses(space):
    (rule,) = parse_rules(
        f"rule r{space}on pep.data.get.pre{space}do{space}allow()\n"
        f"{space}")
    assert (rule.name, rule.pep, rule.actions) == (
        "r", "pep.data.get.pre", [Allow()])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

FULL_RULE = '''
# quota enforcement for the ingest area
rule quota_ingest priority 10 on pep.data.put.pre
when $obj.path matches "/ingest/*" && $user.role != "admin"
do
    $limit = 1048576;
    if $limit < 4096 {
        deny("quota too small")
    } else {
        set_avu($obj.path, "quota.checked", "yes");
        allow()
    }
'''


def test_parse_full_rule_shape():
    (rule,) = parse_rules(FULL_RULE)
    assert rule.name == "quota_ingest"
    assert rule.priority == 10
    assert rule.pep == "pep.data.put.pre"
    assert isinstance(rule.condition, Binary) and rule.condition.op == "&&"
    assert isinstance(rule.actions[0], Assign)
    assert isinstance(rule.actions[1], If)


def test_parse_defaults():
    (rule,) = parse_rules('rule r on pep.data.get.pre do allow()')
    assert rule.priority == 0
    assert rule.condition == Lit(True)


def test_parse_multiple_rules_preserve_order():
    rules = parse_rules(
        'rule b on pep.data.get.pre do allow()\n'
        'rule a on pep.data.get.pre do deny("no")')
    assert [r.name for r in rules] == ["b", "a"]


def test_parse_negative_priority_and_literals():
    (rule,) = parse_rules(
        f'rule r priority -5 on pep.data.get.pre when $x == -9 do allow()')
    assert rule.priority == -5
    assert rule.condition.right == Lit(-9)


def test_parse_int64_bounds():
    (rule,) = parse_rules(
        f'rule r on pep.data.get.pre when $x == -{2**63} do allow()')
    assert rule.condition.right == Lit(INT64_MIN)
    with pytest.raises(ParseError):
        parse_rules(f'rule r on pep.data.get.pre when $x == {2**63} do allow()')


def test_parse_foreach_and_call_assignment():
    (rule,) = parse_rules(
        'rule r on pep.data.put.pre do '
        '$sum = checksum($obj.path); '
        'foreach $p in $targets { replicate_to($p, "vault") }')
    assert isinstance(rule.actions[0].value, Call)
    assert isinstance(rule.actions[1], Foreach)
    assert rule.actions[1].var == "p"


def test_parse_trailing_semicolon_ok():
    (rule,) = parse_rules('rule r on pep.data.get.pre do allow();')
    assert rule.actions == [type(rule.actions[0])()]


def test_parse_procedure():
    proc = parse_procedure(
        'procedure p($a, $b) { $c = $a + $b; put_int($c, "out") }')
    assert proc.name == "p" and proc.params == ["a", "b"]


@pytest.mark.parametrize("bad", [
    'rule r on pep.data.get.pre do $obj.path = "x"',    # system binding
    'procedure p($a, $a) { allow() }',                  # duplicate param
    'procedure p($a) { $x = $undeclared }',             # unknown var
    'procedure p() { allow() } trailing',               # junk after end
    'rule r priority on pep.x.pre do allow()',          # missing int
    'rule r on pep.data.get.pre do deny(42)',           # deny needs string
    'rule r on pep.data.get.pre do',                    # empty chain
    'rule r on pep.data.get.pre when do allow()',       # empty condition
    'procedure p($a.b) { allow() }',                    # dotted param
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_procedure(bad) if bad.startswith("procedure") \
            else parse_rules(bad)


def test_procedure_system_vars_allowed():
    proc = parse_procedure(
        'procedure p() { audit_msg($user.name); audit_msg($obj.path) }')
    assert proc.params == []


def test_parser_depth_guard():
    deep = "(" * 500 + "1" + ")" * 500
    with pytest.raises(ParseError) as e:
        parse_rules(f'rule r on pep.data.get.pre when {deep} == 1 do allow()')
    assert "nesting" in str(e.value)


@pytest.mark.parametrize("op", ["+", "||"])
def test_parser_depth_guard_counts_parentheses_not_levels(op):
    # Only each expression and operand count toward the guard, not the
    # precedence levels between them: 99 nested operands still parse.
    def nested(depth):
        inner = f"1 {op} (" * depth + "1" + ")" * depth
        return f"rule r on pep.data.get.pre when {inner} do allow()"
    assert len(parse_rules(nested(99))) == 1
    with pytest.raises(ParseError, match="nesting"):
        parse_rules(nested(100))


def test_parser_depth_guard_holds_deep_in_the_stack():
    # 99 levels through every precedence level stay under _MAX_DEPTH
    # (98 in a procedure, whose body counts one) but need about 800
    # frames; with 300 left, both entry points refuse.
    def nested(depth):
        return "1 || 1 && 1 == 1 + 1 * (" * depth + "1" + ")" * depth
    rule = f"rule r on pep.data.get.pre when {nested(99)} do allow()"
    proc = f"procedure p() {{ $x = {nested(98)} }}"
    assert len(parse_rules(rule)) == 1 and parse_procedure(proc).name == "p"
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 300)
    try:
        for parse, text in ((parse_rules, rule), (parse_procedure, proc)):
            with pytest.raises(ParseError, match="nesting too deep"):
                parse(text)
    finally:
        sys.setrecursionlimit(limit)


def test_parse_error_expected_set():
    with pytest.raises(ParseError) as e:
        parse_rules('rule r on pep.data.get.pre allow()')
    assert e.value.expected and "'do'" in e.value.expected
    assert e.value.line == 1


# ---------------------------------------------------------------------------
# Printer: canonical fixpoint
# ---------------------------------------------------------------------------

CORPUS = [
    'rule a on pep.data.put.pre do allow()',
    'rule b priority 3 on pep.data.get.pre when $user.role == "admin" '
    'do allow()',
    'rule c on pep.data.remove.pre when ($x + 1) * 2 > 6 && !$flag '
    'do deny("nope")',
    'rule d on pep.meta.add.pre when $obj.path matches "/x/*" do '
    'set_avu($obj.path, "a", "b"); allow()',
    'rule e on pep.data.put.post do foreach $t in $targets { '
    'replicate_to($obj.path, $t) }',
    'rule f on pep.workflow.run.pre when $a || $b && $c do allow()',
    'rule g on pep.data.get.pre when $n == -42 do allow()',
    'rule h on pep.data.get.pre when $s matches "a?c\\"d" do allow()',
    'rule i on pep.stream.ingest.pre when 1 + 2 * 3 - 4 / 2 == 5 '
    'do allow()',
    'rule j on pep.data.put.pre do if $x == 1 { allow() } else '
    '{ if $x == 2 { deny("two") } }',
]


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip_fixpoint(text):
    ast1 = parse_rules(text)
    printed1 = pretty_print(ast1)
    ast2 = parse_rules(printed1)
    printed2 = pretty_print(ast2)
    assert ast1 == ast2
    assert printed1 == printed2


def test_printer_parenthesizes_only_when_needed():
    (rule,) = parse_rules(
        'rule r on pep.data.get.pre when ($a + $b) * $c == $a + $b * $c '
        'do allow()')
    text = print_rule(rule)
    assert "($a + $b) * $c" in text
    assert "== $a + $b * $c" in text


def test_every_operator_pair_round_trips():
    # Each ordered pair of binary operators, the inner one nested on the
    # left and on the right: the printer's parentheses must match how
    # tightly the parser binds, whatever the two precedences.
    a, b, c = Var("a"), Var("b"), Var("c")
    trees = []
    for outer in BINARY_PREC:
        for inner in BINARY_PREC:
            trees.append(Binary(outer, Binary(inner, a, b), c))
            trees.append(Binary(outer, a, Binary(inner, b, c)))
    assert len(trees) == 338
    for tree in trees:
        rule = RuleAst(name="r", pep="pep.data.get.pre", condition=tree,
                       actions=[Allow()])
        assert parse_rules(print_rule(rule)) == [rule], print_rule(rule)


def test_printer_escapes_strings():
    (rule,) = parse_rules(r'rule r on pep.data.get.pre do deny("a\"b\\c\nd")')
    assert parse_rules(print_rule(rule))[0] == rule


# ---------------------------------------------------------------------------
# Evaluator vs independent oracle
# ---------------------------------------------------------------------------

def wrap64(n):
    n &= (1 << 64) - 1
    return n - (1 << 64) if n >= (1 << 63) else n


def oracle_div(a, b):
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def oracle_glob(text, pattern):
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.fullmatch("".join(parts), text, re.S) is not None


def test_eval_int_arithmetic_random(rng):
    ops = {"+": lambda a, b: wrap64(a + b),
           "-": lambda a, b: wrap64(a - b),
           "*": lambda a, b: wrap64(a * b),
           "/": oracle_div}
    for _ in range(2000):
        a = rng.randint(INT64_MIN, INT64_MAX)
        b = rng.randint(INT64_MIN, INT64_MAX)
        if rng.random() < 0.3:
            b = rng.randint(-4, 4)
        op = rng.choice("+-*/")
        expr = Binary(op, Lit(a), Lit(b))
        if op == "/" and b == 0:
            with pytest.raises(DivisionByZero):
                eval_expr(expr, {})
        else:
            assert eval_expr(expr, {}) == ops[op](a, b), (a, op, b)


def test_eval_wrapping_edges():
    assert eval_expr(Binary("+", Lit(INT64_MAX), Lit(1)), {}) == INT64_MIN
    assert eval_expr(Binary("-", Lit(INT64_MIN), Lit(1)), {}) == INT64_MAX
    assert eval_expr(Binary("/", Lit(INT64_MIN), Lit(-1)), {}) == INT64_MIN
    assert eval_expr(Binary("/", Lit(-7), Lit(2)), {}) == -3
    assert eval_expr(Binary("/", Lit(7), Lit(-2)), {}) == -3


def test_eval_comparisons_and_strings():
    assert eval_expr(Binary("<", Lit("abc"), Lit("abd")), {}) is True
    assert eval_expr(Binary(">=", Lit(3), Lit(3)), {}) is True
    assert eval_expr(Binary("==", Lit("x"), Lit("x")), {}) is True
    with pytest.raises(TypeMismatch):
        eval_expr(Binary("+", Lit("ab"), Lit("cd")), {})


def test_eval_matches_random(rng):
    alphabet = "ab/c?*"
    for _ in range(2000):
        text = "".join(rng.choice("ab/cd") for _ in range(rng.randint(0, 8)))
        pattern = "".join(rng.choice(alphabet)
                          for _ in range(rng.randint(0, 6)))
        expr = Binary("matches", Lit(text), Lit(pattern))
        assert eval_expr(expr, {}) == oracle_glob(text, pattern), \
            (text, pattern)


def test_eval_glob_crosses_slash():
    expr = Binary("matches", Lit("/a/b/c"), Lit("/a/*"))
    assert eval_expr(expr, {}) is True
    assert eval_expr(Binary("matches", Lit("/a/b"), Lit("/a/?")), {}) is True
    assert eval_expr(Binary("matches", Lit("/a/bc"), Lit("/a/?")), {}) is False


def test_eval_short_circuit():
    boom = Binary("==", Binary("/", Lit(1), Lit(0)), Lit(0))
    assert eval_expr(Binary("&&", Lit(False), boom), {}) is False
    assert eval_expr(Binary("||", Lit(True), boom), {}) is True
    with pytest.raises(DivisionByZero):
        eval_expr(Binary("&&", Lit(True), boom), {})


@pytest.mark.parametrize("expr", [
    Binary("+", Lit(1), Lit("a")),
    Binary("<", Lit("a"), Lit(1)),
    Binary("==", Lit(1), Lit(True)),
    Binary("==", Lit("1"), Lit(1)),
    Binary("&&", Lit(1), Lit(True)),
    Unary("!", Lit(0)),
    Binary("matches", Lit(1), Lit("*")),
])
def test_eval_type_strictness(expr):
    with pytest.raises(TypeMismatch):
        eval_expr(expr, {})


def test_eval_vars_and_unbound():
    assert eval_expr(Var("user.name"), {"user.name": "zoe"}) == "zoe"
    with pytest.raises(UnboundVariable):
        eval_expr(Var("nope"), {})


def test_bool_results_are_python_bools():
    result = eval_expr(Binary("==", Lit(1), Lit(1)), {})
    assert result is True
