"""Print two line counts of each `src/matcoh` module and of the package.

Usage, from the root of a checkout:

    python .github/source_size.py [--against REF]

Each line is `NON_BLANK CODE PATH`: non-blank lines, the size figure
the roadmap tracks, and code lines, the non-blank lines outside
docstrings and full-line comments, so a docstring trim does not read
as less code. The last line is the package total. With `--against REF`
(any git revision) each line also ends in its code-line change from the
same module at REF (`git show REF:PATH`), and the total line in the
package's; a module missing on one side counts as 0 lines there.
"""

import argparse
import ast
import glob
import io
import subprocess
import tokenize

PACKAGE = "src/matcoh"


def counts(src):
    """(non-blank lines, code lines) of one Python source text."""
    skip = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            skip.add(tok.start[0])
    lines = [i for i, line in enumerate(src.splitlines(), 1) if line.strip()]
    return len(lines), sum(i not in skip for i in lines)


def _git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def code_lines_at(ref):
    """{path: code lines} of each package module at the git revision `ref`."""
    paths = _git("ls-tree", "--name-only", ref, f"{PACKAGE}/").split()
    return {path: counts(_git("show", f"{ref}:{path}"))[1]
            for path in paths if path.endswith(".py")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF",
                        help="also print each module's code-line change from REF")
    args = parser.parse_args()
    old = code_lines_at(args.against) if args.against else {}
    paths = sorted(set(glob.glob(f"{PACKAGE}/*.py")) | set(old))
    totals = [0, 0]
    for path in paths:
        try:
            with open(path) as fh:
                pair = counts(fh.read())
        except FileNotFoundError:  # only at REF
            pair = (0, 0)
        totals = [a + b for a, b in zip(totals, pair)]
        delta = [f"{pair[1] - old.get(path, 0):+d}"] if args.against else []
        print(*pair, path, *delta)
    delta = ([f"{totals[1] - sum(old.values()):+d} code against {args.against}"]
             if args.against else [])
    print(*totals, "total (non-blank, code)", *delta)


if __name__ == "__main__":
    main()
