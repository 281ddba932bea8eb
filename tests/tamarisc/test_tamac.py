"""TamaC compiler: lexer, parser, codegen, end-to-end execution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tamarisc.iss import InstructionSetSimulator
from repro.tamarisc.tamac import compile_program, compile_source, \
    parse, tokenize
from repro.tamarisc.tamac.lexer import CompileError, TokenKind
from repro.tamarisc.tamac import parser as ast


def run_main(source, max_cycles=1_000_000):
    compiled = compile_program(source)
    iss = InstructionSetSimulator(compiled.program)
    iss.core.pc = compiled.program.entry
    iss.run(max_cycles=max_cycles)
    return compiled, iss


def global_value(compiled, iss, name):
    return iss.read(compiled.address_of(name))


def eval_main_expr(expression):
    """Compile `out = <expression>;` and return the stored 16-bit word."""
    compiled, iss = run_main(f"""
        var out;
        func main() {{ out = {expression}; return; }}
    """)
    return global_value(compiled, iss, "out")


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("var x = 0x10; // comment\nfunc f() {}")
        kinds = [token.kind for token in tokens[:4]]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT,
                         TokenKind.OP, TokenKind.NUMBER]

    def test_comments_stripped(self):
        tokens = tokenize("/* a\nb */ x // y\n z")
        values = [t.value for t in tokens if t.kind == TokenKind.IDENT]
        assert values == ["x", "z"]

    def test_char_literals(self):
        tokens = tokenize("'a' '\\n'")
        assert [t.value for t in tokens[:2]] == [97, 10]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n\nc")
        lines = {t.value: t.line for t in tokens
                 if t.kind == TokenKind.IDENT}
        assert lines == {"a": 1, "b": 2, "c": 4}

    def test_division_rejected_with_explanation(self):
        with pytest.raises(CompileError, match="divider"):
            tokenize("a / b")

    def test_bad_character(self):
        with pytest.raises(CompileError, match="unexpected"):
            tokenize("a @ b")


class TestParser:
    def test_module_structure(self):
        module = parse("var a; var b[4]; func main() { return; }")
        assert [g.name for g in module.globals] == ["a", "b"]
        assert module.globals[1].size == 4
        assert "main" in module.functions

    def test_precedence(self):
        module = parse("func main() { return 1 + 2 * 3; }")
        expr = module.functions["main"].body[0].expr
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert expr.rhs.op == "*"

    def test_comparison_binds_looser_than_shift(self):
        module = parse("func main() { return 1 << 2 < 3; }")
        expr = module.functions["main"].body[0].expr
        assert expr.op == "<"

    @pytest.mark.parametrize("source,pattern", [
        ("func main() { 5 = x; }", "assignment target"),
        ("func main() { 5; }", "function call"),
        ("func f(a, a) {}", "duplicate parameter"),
        ("var x[0];", "positive"),
        ("var x[2] = 1;", "array initialisers"),
        ("func main() { if 1 {} }", "expected"),
        ("blah;", "expected 'var' or 'func'"),
        ("func main() {", "unterminated"),
        ("func f() {} func f() {}", "duplicate function"),
    ])
    def test_rejects(self, source, pattern):
        with pytest.raises(CompileError, match=pattern):
            parse(source)


class TestExpressions:
    @pytest.mark.parametrize("expr,expected", [
        ("1 + 2 * 3", 7),
        ("(1 + 2) * 3", 9),
        ("10 - 3 - 2", 5),
        ("1 << 10", 1024),
        ("0xFF00 >> 8", 0xFF),
        ("0xF0F0 & 0x0FF0", 0x00F0),
        ("0xF000 | 0x000F", 0xF00F),
        ("0xFF ^ 0x0F", 0xF0),
        ("-5", 0xFFFB),
        ("~0", 0xFFFF),
        ("!0", 1),
        ("!7", 0),
        ("3 < 5", 1),
        ("5 < 3", 0),
        ("-1 < 1", 1),          # signed comparison
        ("5 <= 5", 1),
        ("5 > 5", 0),
        ("5 >= 5", 1),
        ("4 == 4", 1),
        ("4 != 4", 0),
        ("2 && 3", 1),
        ("2 && 0", 0),
        ("0 || 5", 1),
        ("0 || 0", 0),
        ("1000 * 1000", (1000 * 1000) & 0xFFFF),  # wraps like hardware
        ("'z'", 122),
    ])
    def test_constant_expressions(self, expr, expected):
        assert eval_main_expr(expr) == expected

    @given(st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_signed_comparison_property(self, a, b):
        assert eval_main_expr(f"({a}) < ({b})") == int(a < b)


class TestStatements:
    def test_while_loop(self):
        compiled, iss = run_main("""
            var total;
            func main() {
                var i;
                i = 1;
                total = 0;
                while (i <= 100) { total = total + i; i = i + 1; }
                return;
            }
        """)
        assert global_value(compiled, iss, "total") == 5050

    def test_if_else_chains(self):
        compiled, iss = run_main("""
            var cls;
            func classify(x) {
                if (x < 10) { return 0; }
                else { if (x < 100) { return 1; } else { return 2; } }
            }
            func main() {
                cls = classify(7) + 10 * classify(50) + 100 * classify(500);
                return;
            }
        """)
        assert global_value(compiled, iss, "cls") == 210

    def test_arrays_and_locals(self):
        compiled, iss = run_main("""
            var squares[12];
            func main() {
                var i;
                i = 0;
                while (i < 12) { squares[i] = i * i; i = i + 1; }
                return;
            }
        """)
        base = compiled.address_of("squares")
        assert iss.read_block(base, 12) == [i * i for i in range(12)]

    def test_global_initialisers(self):
        compiled, iss = run_main("""
            var a = 42; var b = 0xFFFF; var c;
            func main() { return; }
        """)
        assert global_value(compiled, iss, "a") == 42
        assert global_value(compiled, iss, "b") == 0xFFFF
        assert global_value(compiled, iss, "c") == 0

    def test_local_shadowing(self):
        compiled, iss = run_main("""
            var x = 5; var out;
            func main() { var x; x = 9; out = x; return; }
        """)
        assert global_value(compiled, iss, "out") == 9
        assert global_value(compiled, iss, "x") == 5


class TestFunctions:
    def test_nested_calls(self):
        compiled, iss = run_main("""
            var out;
            func double(x) { return x + x; }
            func main() { out = double(double(double(5))); return; }
        """)
        assert global_value(compiled, iss, "out") == 40

    def test_call_in_argument_of_same_function(self):
        """f(f(1), 2): the inner call must not corrupt the outer call's
        parameter binding."""
        compiled, iss = run_main("""
            var out;
            func weigh(a, b) { return a * 10 + b; }
            func main() { out = weigh(weigh(1, 2), 3); return; }
        """)
        assert global_value(compiled, iss, "out") == 123

    def test_call_with_live_registers(self):
        """A call nested inside an arithmetic expression must preserve
        the partially evaluated operands (register spilling)."""
        compiled, iss = run_main("""
            var out;
            func seven() { return 7; }
            func main() { out = 100 + seven() * 2; return; }
        """)
        assert global_value(compiled, iss, "out") == 114

    def test_recursion_rejected(self):
        with pytest.raises(CompileError, match="recursion"):
            compile_source("func main() { main(); }")

    def test_mutual_recursion_rejected(self):
        with pytest.raises(CompileError, match="recursion"):
            compile_source("""
                func even(n) { return odd(n - 1); }
                func odd(n) { return even(n - 1); }
                func main() { even(4); return; }
            """)

    def test_arity_checked(self):
        with pytest.raises(CompileError, match="arguments"):
            compile_source("""
                func f(a) { return a; }
                func main() { f(1, 2); return; }
            """)

    def test_undefined_function(self):
        with pytest.raises(CompileError, match="undefined function"):
            compile_source("func main() { ghost(); return; }")

    def test_undefined_variable(self):
        with pytest.raises(CompileError, match="undefined variable"):
            compile_source("func main() { return ghost; }")

    def test_main_required(self):
        with pytest.raises(CompileError, match="main"):
            compile_source("func helper() { return; }")


class TestMultiCoreDeployment:
    def test_compiled_program_runs_on_all_cores(self):
        """One compiled image on the 8-core platform: every core computes
        into its own private frame — the MMU story of the paper, now for
        compiled code."""
        from repro.platform import Benchmark, build_platform
        from repro.tamarisc.program import DataImage

        compiled = compile_program("""
            var out;
            func main() {
                var i; var acc;
                i = 0; acc = 0;
                while (i < 10) { acc = acc + i * i; i = i + 1; }
                out = acc;
                return;
            }
        """)
        system = build_platform("ulpmc-bank", fast_forward=False)
        system.run(Benchmark("tamac", compiled.program, DataImage()))
        expected = sum(i * i for i in range(10))
        for core in range(8):
            assert system.read_logical(core, compiled.address_of("out")) \
                == expected


class TestExpressionDepth:
    def test_deep_expression_rejected(self):
        nested = "1" + " + (1" * 9 + ")" * 9
        with pytest.raises(CompileError, match="too deep"):
            compile_source(f"func main() {{ return {nested}; }}")

    def test_moderately_deep_ok(self):
        assert eval_main_expr("1 + (2 + (3 + (4 + 5)))") == 15
