"""minij front-end tests: lexer, parser, resolver diagnostics."""

import pytest

from repro.errors import LexError, ParseError, ResolveError
from repro.lang import compile_source
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_module
from repro.lang import ast


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("class Foo { var x: int; } // comment")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "class", "ident", "{", "var", "ident", ":", "int", ";", "}", "<eof>",
        ]

    def test_numbers_and_operators(self):
        tokens = tokenize("1 + 23 << 4 <= 5 == 6 && x")
        assert [t.value for t in tokens[:1]] == [1]
        kinds = [t.kind for t in tokens]
        assert "<<" in kinds and "<=" in kinds and "&&" in kinds

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3 and tokens[2].column == 3

    def test_block_comments(self):
        tokens = tokenize("a /* skip \n all this */ b")
        assert [t.kind for t in tokens] == ["ident", "ident", "<eof>"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a ~ b")


class TestParser:
    def test_precedence(self):
        module = parse_module(
            "object M { def f(): int { return 1 + 2 * 3; } }"
        )
        ret = module.decls[0].methods[0].body.stmts[0]
        assert isinstance(ret.value, ast.BinaryExpr)
        assert ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_unary_and_postfix(self):
        module = parse_module(
            "object M { def f(a: int[]): int { return -a[0] + a.length; } }"
        )
        ret = module.decls[0].methods[0].body.stmts[0]
        assert isinstance(ret.value.left, ast.UnaryExpr)
        assert isinstance(ret.value.right, ast.FieldExpr)

    def test_is_as_binding(self):
        module = parse_module(
            "object M { def f(x: Object): bool { return x is Object; } }"
        )
        ret = module.decls[0].methods[0].body.stmts[0]
        assert isinstance(ret.value, ast.IsExpr)

    def test_trait_and_annotations(self):
        module = parse_module(
            """
            trait T { def a(): int; @inline def b(): int { return 1; } }
            """
        )
        decl = module.decls[0]
        assert decl.kind == "trait"
        assert decl.methods[0].is_abstract
        assert decl.methods[1].annotations == ["inline"]

    def test_lambda_forms(self):
        module = parse_module(
            """
            object M {
              def f(): int {
                var g: IntFn1 = fun (x: int): int => x + 1;
                var h: IntAction = fun (x: int): void { print(x); };
                return 0;
              }
            }
            """
        )
        stmts = module.decls[0].methods[0].body.stmts
        assert isinstance(stmts[0].init, ast.LambdaExpr)
        assert isinstance(stmts[1].init, ast.LambdaExpr)

    @pytest.mark.parametrize(
        "source",
        [
            "object M { def f(): int { return 1 }",  # missing semicolon
            "object M { def f() int { return 1; } }",  # missing colon
            "class { }",  # missing name
            "object M { var x: int }",  # missing semicolon after field
            "object M { def f(): int { 1 = x; } }",  # bad assign target
        ],
    )
    def test_rejections(self, source):
        with pytest.raises(ParseError):
            parse_module(source)


class TestResolverDiagnostics:
    @pytest.mark.parametrize(
        "body, message_bit",
        [
            ("return y;", "unknown name"),
            ("var x: Nope = null; return 0;", "unknown type"),
            ("var x: int = null; return 0;", "cannot assign"),
            ("if (1) { } return 0;", "condition must be bool"),
            ("return;", "missing return value"),
            ("var b: bool = 1 < true; return 0;", "needs int"),
            ("this.x = 1; return 0;", "this in a static method"),
        ],
    )
    def test_method_body_errors(self, body, message_bit):
        source = "object M { def f(): int { %s } }" % body
        with pytest.raises(ResolveError) as excinfo:
            compile_source(source)
        assert message_bit in str(excinfo.value)

    def test_missing_return_path(self):
        source = """
        object M { def f(c: bool): int { if (c) { return 1; } } }
        """
        with pytest.raises(ResolveError):
            compile_source(source)

    def test_bad_override_signature(self):
        source = """
        class A { def f(): int { return 1; } }
        class B extends A { def f(): bool { return true; } }
        """
        with pytest.raises(ResolveError):
            compile_source(source)

    def test_class_cannot_extend_trait(self):
        source = """
        trait T { def f(): int; }
        class C extends T { def f(): int { return 1; } }
        """
        with pytest.raises(ResolveError):
            compile_source(source)

    def test_inheritance_cycle(self):
        source = """
        class A extends B { }
        class B extends A { }
        """
        with pytest.raises(ResolveError):
            compile_source(source)

    def test_cannot_instantiate_trait(self):
        source = """
        trait T { def f(): int; }
        object M { def g(): int { var t: T = new T; return 0; } }
        """
        with pytest.raises(ResolveError):
            compile_source(source)

    def test_arity_mismatch(self):
        source = """
        object M {
          def f(a: int, b: int): int { return a + b; }
          def g(): int { return M.f(1); }
        }
        """
        with pytest.raises(ResolveError):
            compile_source(source)

    def test_assignment_to_capture_rejected(self):
        source = """
        object M {
          def g(): int {
            var x: int = 0;
            var f: IntFn1 = fun (y: int): int { x = y; return 0; };
            return x;
          }
        }
        """
        with pytest.raises(ResolveError) as excinfo:
            compile_source(source)
        assert "captured" in str(excinfo.value)

    def test_redeclared_inherited_field(self):
        source = """
        class Cell { var v: int; }
        class A { var x: Cell; }
        class B extends A { var x: int; }
        object Main { def run(): int { return (new B()).x + 1; } }
        """
        with pytest.raises(ResolveError) as excinfo:
            compile_source(source)
        assert "B.x redeclares inherited field A.x" in str(excinfo.value)

    def test_duplicate_class(self):
        with pytest.raises(ResolveError):
            compile_source("class A { } class A { }")
