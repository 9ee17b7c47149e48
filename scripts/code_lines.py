"""Code lines of each `src/blockext` module, and their total.

Run from anywhere:

    python3 scripts/code_lines.py [--tree DIR]

DIR is a checkout of the repository (default: the one holding this
script).  A code line is a physical line that holds part of a statement:
blank lines, comment lines and the lines of docstrings (the string that
opens a module, class or function) do not count, and neither does the
generated modulus table `_moduli.py`.  Prints one `module lines` row per
module, then the total.
"""

import argparse
import ast
import io
import os
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = p.parse_args()
    package = os.path.join(args.tree, "src", "blockext")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "_moduli.py":
            with open(os.path.join(package, name)) as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
