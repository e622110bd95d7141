"""Count code lines of Python files: lines holding code, without docstrings,
comments or blank lines.

    python3 scripts/loc.py [--rev REV] [--total] PATH ...

Each PATH is a .py file or a directory searched for .py files. Prints one
line per file, `<code lines> <path>`, then `<code lines> total`; with
--total, only the total. With --rev, the files are read from that git
revision (`git ls-tree` and `git show`, run in the current directory)
instead of the working tree, so two revisions can be compared without a
second checkout:

    python3 scripts/loc.py --rev main --total src/

A line counts when a token other than a comment starts, ends or runs
across it (a string literal over three lines counts three), unless the
token is a docstring: the string that opens a module, class or function
body, found with `ast`.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def sources(paths, rev):
    """(path, source text) of every .py file under `paths`, sorted by path."""
    if rev is not None:
        names = _git("ls-tree", "-r", "--name-only", rev, "--", *paths).split()
        return [(name, _git("show", f"{rev}:{name}")) for name in sorted(names) if name.endswith(".py")]
    names = []
    for path in paths:
        if os.path.isdir(path):
            names += [os.path.join(d, f) for d, _dirs, files in os.walk(path) for f in files if f.endswith(".py")]
        else:
            names.append(path)
    out = []
    for name in sorted(names):
        with open(name, encoding="utf-8") as fh:
            out.append((name, fh.read()))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Count code lines of Python files.")
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--rev", help="read the files from this git revision")
    ap.add_argument("--total", action="store_true", help="print only the total")
    args = ap.parse_args(argv)
    total = 0
    for name, text in sources(args.paths, args.rev):
        n = code_lines(text)
        total += n
        if not args.total:
            print(f"{n} {name}")
    print(total if args.total else f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
