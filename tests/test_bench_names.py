"""The benchmark in bench/ reaches into the library by name: child.py wraps each
function named in layers.py's SELF_METRIC and counts the work in what some of
them return, and gate.py calls its oracles through the package.  The bench
files are read here with ast, never imported, so a library change that deletes
one of those names, or changes what a work count reads, fails here rather than
in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

import thinsieve
from thinsieve.arith import is_squarefree
from thinsieve.semigroup import (BilinearSet, enumerate_ball, trace_fiber,
                                 trace_multiplicity_by_divisors)
from thinsieve.sieve import BallSource, discriminant_census, remainder_profile, sift_values

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _assigned(tree, name):
    """The value node of the module-level assignment to name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no assignment to {name}")


SELF_METRIC = ast.literal_eval(_assigned(_tree("layers.py"), "SELF_METRIC"))


@pytest.mark.parametrize("span", sorted(SELF_METRIC))
def test_every_wrapped_function_exists(span):
    module, function = span.split(".")
    # child.py wraps iter_traces on BilinearSet, the class that defines it
    owner = BilinearSet if span == "semigroup.iter_traces" else importlib.import_module(
        f"thinsieve.{module}")
    assert callable(getattr(owner, function, None)), span


def _lib_chains(tree):
    """Every dotted name gate.py reads through its `lib` argument, as tuples."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "lib":
            chains.add(tuple(reversed(parts)))
    return chains


def test_every_name_the_gate_uses_exists():
    chains = _lib_chains(_tree("gate.py"))
    assert ("ball_count",) in chains and ("arith", "divisors") in chains
    for chain in chains:
        value = thinsieve
        for part in chain:
            assert hasattr(value, part), "lib." + ".".join(chain)
            value = getattr(value, part)


COUNTS = _assigned(_tree("child.py"), "_COUNTS")


def _ball_sift():
    """A sift of the alphabet-2 ball of norm 30, and its size and distinct
    values counted element by element."""
    elements = list(enumerate_ball(2, 30.0))
    values = {e.trace**2 - 4 for e in elements}
    return sift_values(BallSource(2, 30.0)), [len(elements), len(values)]


# span -> a small real result of the function, and its work counted another way
SAMPLES = {
    "semigroup.trace_fiber": lambda: (trace_fiber(2, 37), trace_multiplicity_by_divisors(2, 37)),
    "sieve.sift_values": _ball_sift,
    "sieve.remainder_profile": lambda: (  # the square-free q < 10: 1, 2, 3, 5, 6, 7
        remainder_profile(_ball_sift()[0], 10), sum(map(is_squarefree, range(1, 10)))),
    "sieve.discriminant_census": lambda: (discriminant_census(3, 400), sum(  # t <= sqrt(400)
        is_squarefree(t * t - 4) and trace_multiplicity_by_divisors(3, t) > 0
        for t in range(3, 21))),
}


@pytest.mark.parametrize("span, count", zip(map(ast.literal_eval, COUNTS.keys), COUNTS.values),
                         ids=[ast.literal_eval(k) for k in COUNTS.keys])
def test_every_work_count_reads_what_its_function_returns(span, count):
    # the count as child.py compiles it, applied to a real result
    count = eval(compile(ast.Expression(count), "child.py", "eval"), {})
    result, expected = SAMPLES[span]()
    assert count(result) == expected
