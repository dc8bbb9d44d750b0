"""List the statements of src/classconv that no production route reaches.

Under sys.settrace this runs every pinned command line of tests/cli_pins.py
through classconv.cli.main, and the seed-1 request stream of each benchmark
workload through perfbench/worker.prepare.  It then prints, per module, the
statements none of them reached; docstrings are not counted.  A compound
statement (def, if, for, try, ...) counts as reached when its header or its
first body statement is.  Pytest does not collect this file, and it writes
nothing under perfbench/.  Run it from any directory:

    python tests/reach.py

It exits 0 whatever it finds: the list is information, not a gate.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "classconv"
SEED = 1

# a docstring is a str constant opening one of these bodies
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def unreached(tree: ast.Module, hit: set[int]) -> tuple[int, list[ast.stmt]]:
    """The number of statements in tree, docstrings left out, and those of
    them whose lines got no hit."""
    seen: list[ast.stmt] = []
    out: list[ast.stmt] = []

    def body_reached(node: ast.AST, body: list[ast.stmt]) -> bool:
        """Collect body's unreached statements; True when its first is reached."""
        first = None
        for i, stmt in enumerate(body):
            if (i == 0 and isinstance(node, SCOPES) and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue
            reached = visit(stmt)
            first = reached if first is None else first
        return bool(first)

    def visit(stmt: ast.stmt) -> bool:
        seen.append(stmt)
        start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        if hasattr(stmt, "body"):  # compound: the header ends where the body starts
            end = stmt.body[0].lineno - 1
            reached = body_reached(stmt, stmt.body)
            for body in (getattr(stmt, "orelse", []), getattr(stmt, "finalbody", []),
                         *(h.body for h in getattr(stmt, "handlers", []))):
                body_reached(stmt, body)
        else:
            end, reached = stmt.end_lineno, False
        reached = reached or not hit.isdisjoint(range(start, max(start, end) + 1))
        if not reached:
            out.append(stmt)
        return reached

    body_reached(tree, tree.body)
    return len(seen), sorted(out, key=lambda stmt: stmt.lineno)


def run_routes(hits: dict[str, set[int]]) -> tuple[int, int, int]:
    """Run the pinned rows and the workload streams under the trace; the
    number of rows, of requests, and of those that failed."""

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True
    sys.settrace(scope)
    try:
        from classconv.cli import main
        from cli_pins import PINS, masked
        import worker
        import workloads

        failed = 0
        for argv, want in PINS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            if code != 0 or masked(out.getvalue()) != want:
                failed += 1
                print(f"failed: classconv {' '.join(argv)} (exit {code})", file=sys.stderr)
        requests = [r for name in workloads.WORKLOADS for r in workloads.generate(name, SEED)]
        for request in requests:
            try:
                worker.prepare(request)()
            except Exception as exc:  # a failed request is counted, as the benchmark does
                failed += 1
                print(f"failed: {request}: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        sys.settrace(None)
    return len(PINS), len(requests), failed


def main() -> int:
    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in modules}
    rows, requests, failed = run_routes(hits)
    total = missed = 0
    for name, path in modules.items():
        source = path.read_text()
        lines = source.splitlines()
        count, left = unreached(ast.parse(source), hits[name])
        total += count
        missed += len(left)
        print(f"{path.name}: {len(left)} unreached")
        for stmt in left:
            print(f"  {stmt.lineno:5d}  {lines[stmt.lineno - 1].strip()}")
    print(f"{missed} unreached of {total} statements "
          f"by {rows} pinned command lines and {requests} workload requests "
          f"(seed {SEED}); {failed} of them failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
