"""Count the code lines of Python modules.

A line counts if it holds a token other than a comment or a NL, NEWLINE,
INDENT or DEDENT token; module, class and function docstrings are left
out. Prints each module's count and the total.

    python tools/code_lines.py [path ...]    (default: src/ghz_synth)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The start (line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/ghz_synth"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6,}  {path}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
