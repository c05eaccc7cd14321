"""Print two line counts of each `src/matcoh` module and of the package.

Usage, from the root of a checkout: python .github/source_size.py

Each line is `NON_BLANK CODE PATH`: non-blank lines, the size figure
the roadmap tracks, and code lines, the non-blank lines outside
docstrings and full-line comments, so a docstring trim does not read
as less code. The last line is the package total.
"""

import ast
import glob
import tokenize


def counts(path):
    """(non-blank lines, code lines) of one Python file."""
    with open(path) as fh:
        src = fh.read()
    skip = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
                skip.add(tok.start[0])
    lines = [i for i, line in enumerate(src.splitlines(), 1) if line.strip()]
    return len(lines), sum(i not in skip for i in lines)


def main():
    totals = [0, 0]
    for path in sorted(glob.glob("src/matcoh/*.py")):
        pair = counts(path)
        totals = [a + b for a, b in zip(totals, pair)]
        print(*pair, path)
    print(*totals, "total (non-blank, code)")


if __name__ == "__main__":
    main()
