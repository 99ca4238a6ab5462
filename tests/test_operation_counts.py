"""Operation counts of the batch kernels on a batch of one.

A single point does almost no arithmetic: its time is the number of
operations the kernels run, each a numpy call on length-1 arrays with a
fixed cost.  This module counts the operations each kernel runs on a batch
of one, its helpers included, and pins the counts as upper bounds, so an
added operation shows here before it shows in a benchmark.  It pins the
CLI layer around the kernels the same way: the config check and the JSON
writer on single-point tables.

An operation is a call, an arithmetic or comparison operator or a
subscript in the package's source.  A statement that runs adds the
operations written in it (the header of a compound statement, without
lambda bodies); ``sys.settrace`` line events tell which statements run.
A multi-line statement counts once per execution, and comprehension and
lambda frames add nothing of their own, so the counts do not depend on how
an interpreter reports lines or whether it inlines comprehensions.
"""

import ast
import functools
import sys
from pathlib import Path

import pytest

import darktrio
from darktrio.model import AtomKind, ModelParams, Tolerances, _batch_of

SOURCES = Path(darktrio.__file__).resolve().parent
OPERATIONS = (ast.Call, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Subscript, ast.AugAssign)
#: the fields of a compound statement that hold statements, not its header
NESTED = {"body", "orelse", "finalbody", "handlers", "cases"}
#: frames whose lines belong to a statement of the frame that made them
INNER_FRAMES = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _weight(statement: ast.stmt) -> int:
    """The operations written in ``statement``'s own expressions."""
    todo = [value for name, value in ast.iter_fields(statement) if name not in NESTED]
    count = int(isinstance(statement, ast.AugAssign))
    while todo:
        node = todo.pop()
        if isinstance(node, list):
            todo += node
        elif isinstance(node, ast.AST) and not isinstance(node, (ast.Lambda, ast.stmt)):
            count += isinstance(node, OPERATIONS)
            todo += [value for _, value in ast.iter_fields(node)]
    return count


def _statements(path: Path) -> dict[int, tuple[int, int]]:
    """For each line of ``path``: the first line and the weight of the
    innermost statement that holds it; a compound statement holds only its
    header lines."""
    owner = {}
    for node in ast.walk(ast.parse(path.read_text())):  # outer statements first
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            header_end = (body[0].lineno - 1 if isinstance(body, list) and body
                          and isinstance(body[0], ast.stmt) else node.end_lineno)
            for line in range(node.lineno, header_end + 1):
                owner[line] = (node.lineno, _weight(node))
    return owner


OWNERS = {str(path): _statements(path) for path in SOURCES.glob("*.py")}


def operations(run) -> int:
    """The package operations that ``run()`` executes."""
    count, last = 0, {}

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            statement = OWNERS[frame.f_code.co_filename].get(frame.f_lineno, (None, 0))
            if last.get(frame) != statement[0]:
                last[frame] = statement[0]
                count += statement[1]
        return local

    def start(frame, event, arg):
        code = frame.f_code
        return local if code.co_filename in OWNERS and code.co_name not in INNER_FRAMES else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


POINT = ModelParams(omega_a=1.02, omega_b=1.0, omega_c=1.0, lam=0.2, xi=0.05, kappa=0.1)


def _kernels():
    from darktrio import darkstates, observables, oracle, threemode, twomode

    two = twomode._two_mode(_batch_of(POINT))
    # built here, as its field checks are package source but no kernel operation
    tol = Tolerances()
    return {
        "_two_mode": twomode._two_mode,
        "_dressed": lambda p: threemode._dressed(p, two),
        "_classified": lambda p: darkstates._classified(p, 1e-9),
        "_duality": lambda p: observables._duality(p, 1e-10),
        "_crosscheck two-level": lambda p: oracle._crosscheck(p, AtomKind.TWO_LEVEL, tol),
        "_crosscheck oscillator": lambda p: oracle._crosscheck(p, AtomKind.OSCILLATOR, tol,
                                                               (2, 3)),
    }


#: the operations each kernel runs on ``POINT`` as a batch of one, at most
BOUNDS = {
    "_two_mode": 72,
    "_dressed": 163,
    "_classified": 126,
    "_duality": 373,
    "_crosscheck two-level": 681,
    "_crosscheck oscillator": 786,
}


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_kernel_operations_on_a_batch_of_one_stay_pinned(name):
    kernel = _kernels()[name]
    kernel(_batch_of(POINT))  # fills the caches of sector layouts
    p = _batch_of(POINT)
    count = operations(functools.partial(kernel, p))
    assert 0 < count <= BOUNDS[name], f"{name} ran {count} operations, pinned at {BOUNDS[name]}"


def _cli_layer():
    from darktrio import cli

    point = {name: getattr(POINT, field).real for name, field in cli._FIELD_FOR.items()}
    point["atom"] = "oscillator"
    cfg = cli.parse_config(point)
    spectrum, classify = (rows(cfg, cli._grid(cfg)) for rows in (
        cli._spectrum_rows, cli._classify_rows))
    verify = cli._verify_rows(cfg)
    return {
        "parse_config": lambda: cli.parse_config(dict(point)),
        "_json_text spectrum": lambda: cli._json_text(cfg, spectrum),
        "_json_text classify": lambda: cli._json_text(cfg, classify),
        "_json_text verify": lambda: cli._json_text(cfg, verify),
    }


#: the operations of the CLI layer around the kernels on ``POINT``'s config
#: (oscillator atom) and its single-point tables, at most
CLI_BOUNDS = {
    "parse_config": 105,
    "_json_text spectrum": 290,
    "_json_text classify": 280,
    "_json_text verify": 140,
}


@pytest.mark.parametrize("name", sorted(CLI_BOUNDS))
def test_cli_layer_operations_on_a_point_stay_pinned(name):
    run = _cli_layer()[name]
    run()  # fills the template caches
    count = operations(run)
    bound = CLI_BOUNDS[name]
    assert 0 < count <= bound, f"{name} ran {count} operations, pinned at {bound}"


def test_operation_counter_counts_each_statement_once_per_execution():
    def sample(values):
        total = len(values)
        for value in reversed(values):
            total += (abs(value)
                      + 1)
        return [-value for value in values], total

    path = sample.__code__.co_filename
    OWNERS[path] = _statements(Path(path))
    try:
        # len; the loop header's call, four times; per item the augmented
        # assignment, abs and + (a multi-line statement counts once); the
        # return's minus, written once, however many items the list holds
        assert operations(functools.partial(sample, [1, 2, 3])) == 1 + 4 + 3 * 3 + 1
    finally:
        del OWNERS[path]
