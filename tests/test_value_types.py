"""The value records are NamedTuples, and Graph a plain immutable class:
equal and hashed by value, immutable, with their defaults and reprs; and
importing the command line loads neither dataclasses nor inspect."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qwalk.exact import IntPolynomial, QuadraticValue
from qwalk.graphs import Bipartition, DegreeProfile, Graph, cycle, path
from qwalk.periodicity import (
    EigenvalueClassification,
    PeriodicityVerdict,
    SpectralVerdict,
)
from qwalk.spectral import EigenphaseSet, EigenvalueSupport, SpectralDecomposition
from qwalk.walks import ArcWalkOperator, WalkOperator, build_bipartite_walk, build_grover_walk

SRC = Path(__file__).resolve().parent.parent / "src"

C4 = cycle(4)
VECTORS, VALUES = np.eye(2), np.array([-1.0, 1.0])
W = build_bipartite_walk(C4)
A = build_grover_walk(C4)
ROOT = QuadraticValue.of(Fraction(1, 2), Fraction(1, 2), 5)
CLASS = EigenvalueClassification(ROOT, 2, True, 5)

C4_TEXT = "Graph(n=4, edges=((0, 1), (0, 3), (1, 2), (2, 3)))"
B_TEXT = "Bipartition(c0=frozenset({0, 2}), c1=frozenset({1, 3}))"
ROOT_TEXT = "QuadraticValue(a=Fraction(1, 2), b=Fraction(1, 2), m=5)"

# (name, make, other, repr, defaults): make() builds equal, distinct
# instances; other() one that differs from them
CASES = [
    (
        "Bipartition",
        lambda: Bipartition(frozenset({0, 2}), frozenset({1, 3})),
        lambda: Bipartition(frozenset({0}), frozenset({1})),
        B_TEXT,
        {},
    ),
    ("DegreeProfile", lambda: DegreeProfile(2, None), lambda: DegreeProfile(2, 2), "DegreeProfile(d0=2, d1=None)", {}),
    ("IntPolynomial", lambda: IntPolynomial((1, 0, 1)), lambda: IntPolynomial((1, 1)), "IntPolynomial(coeffs=(1, 0, 1))", {}),
    ("QuadraticValue", lambda: QuadraticValue.of(Fraction(1, 2), Fraction(1, 2), 5), lambda: QuadraticValue.of(2), ROOT_TEXT, {}),
    (
        "WalkOperator",
        lambda: WalkOperator(C4, W.P, W.Q, W.U),
        lambda: WalkOperator(C4, W.P, W.Q, W.P),
        f"WalkOperator(graph={C4_TEXT}, "
        "P=RationalMatrix(4x4), Q=RationalMatrix(4x4), U=RationalMatrix(4x4))",
        {},
    ),
    (
        "ArcWalkOperator",
        lambda: ArcWalkOperator(C4, A.arcs, A.R, A.K, A.U),
        lambda: ArcWalkOperator(C4, A.arcs, A.R, A.K, A.K),
        f"ArcWalkOperator(graph={C4_TEXT}, arcs={A.arcs!r}, "
        "R=RationalMatrix(8x8), K=RationalMatrix(8x8), U=RationalMatrix(8x8))",
        {},
    ),
    (
        "EigenvalueClassification",
        lambda: EigenvalueClassification(ROOT, 2, True, 5),
        lambda: EigenvalueClassification(ROOT, 2, False, None),
        f"EigenvalueClassification(value={ROOT_TEXT}, multiplicity=2, allowed=True, order=5)",
        {},
    ),
    (
        "SpectralVerdict",
        lambda: SpectralVerdict("periodic", 2, 2, (CLASS,)),
        lambda: SpectralVerdict("inconclusive"),
        "SpectralVerdict(status='periodic', d0=2, d1=2, classifications=(EigenvalueClassification("
        f"value={ROOT_TEXT}, multiplicity=2, allowed=True, order=5),), reason=None)",
        {"d0": None, "d1": None, "classifications": (), "reason": None},
    ),
    (
        "PeriodicityVerdict",
        lambda: PeriodicityVerdict(False, trace_witness=(1, "-1/3"), notes=("a note",)),
        lambda: PeriodicityVerdict(True, 2),
        "PeriodicityVerdict(periodic=False, period=None, spectral=None, "
        "trace_witness=(1, '-1/3'), notes=('a note',))",
        {"period": None, "spectral": None, "trace_witness": None, "notes": ()},
    ),
    (
        "SpectralDecomposition",
        lambda: SpectralDecomposition(((-1.0, 1), (1.0, 1)), VECTORS, VALUES),
        lambda: SpectralDecomposition(((0.0, 2),), VECTORS, VALUES),
        f"SpectralDecomposition(eigenvalues=((-1.0, 1), (1.0, 1)), vectors={VECTORS!r}, values_raw={VALUES!r})",
        {},
    ),
    (
        "EigenphaseSet",
        lambda: EigenphaseSet(((0.5, 1),), 2, 0),
        lambda: EigenphaseSet((), 2, 0),
        "EigenphaseSet(phases=((0.5, 1),), plus=2, minus=0)",
        {},
    ),
    (
        "EigenvalueSupport",
        lambda: EigenvalueSupport(frozenset({(0.5, -0.5)})),
        lambda: EigenvalueSupport(frozenset()),
        "EigenvalueSupport(pairs=frozenset({(0.5, -0.5)}))",
        {},
    ),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name,make,other,text,defaults", CASES, ids=IDS)
def test_equality_by_value(name, make, other, text, defaults):
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x is not y and x == y and not x != y
    assert x != other()


@pytest.mark.parametrize("name,make,other,text,defaults", CASES, ids=IDS)
def test_hashing_by_value(name, make, other, text, defaults):
    if name == "SpectralDecomposition":  # numpy arrays are not hashable
        with pytest.raises(TypeError):
            hash(make())
        return
    assert hash(make()) == hash(make())
    assert len({make(), make(), other()}) == 2


@pytest.mark.parametrize("name,make,other,text,defaults", CASES, ids=IDS)
def test_fields_cannot_be_set(name, make, other, text, defaults):
    x = make()
    for field in type(x)._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == make()


@pytest.mark.parametrize("name,make,other,text,defaults", CASES, ids=IDS)
def test_defaults_and_repr(name, make, other, text, defaults):
    assert type(make())._field_defaults == defaults
    assert repr(make()) == text


def test_methods_of_the_records():
    assert W.dim == 4 and A.dim == 8
    assert DegreeProfile(2, 2).is_biregular and not DegreeProfile(2, None).is_biregular
    assert IntPolynomial((1, 0, 1))(2) == 5
    assert str(ROOT) == "1/2+1/2*sqrt(5)" and str(ROOT.conjugate()) == "1/2-1/2*sqrt(5)"
    assert ROOT + ROOT.conjugate() == QuadraticValue.of(1) and ROOT * ROOT.conjugate() == QuadraticValue.of(-1)
    with pytest.raises(TypeError):
        2 * ROOT  # a value, not a tuple to repeat
    assert EigenphaseSet(((0.5, 1),), 2, 0).total_dimension() == 4


class TestGraph:
    def test_equality_and_hashing_by_n_and_edges(self):
        g, h = cycle(4), Graph.from_edges(4, [(3, 2), (1, 0), (2, 1), (0, 3)])
        assert g is not h and g == h and hash(g) == hash(h)
        assert g != path(4) and g != Graph.from_edges(5, list(g.edges))
        assert g != (4, g.edges)
        assert len({g, h, path(4)}) == 2

    def test_immutable(self):
        g = cycle(4)
        g.neighbors()  # the caches live beside the fields
        for field in ("n", "edges", "extra"):
            with pytest.raises(AttributeError):
                setattr(g, field, None)
        with pytest.raises(AttributeError):
            del g.n
        assert g == cycle(4) and g.n == 4

    def test_repr(self):
        assert repr(cycle(4)) == C4_TEXT


def _fresh_python(code: str) -> str:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    code = 'import sys, qwalk.cli; print([m for m in ("dataclasses", "inspect") if m in sys.modules])'
    assert _fresh_python(code) == "[]"


def test_importing_the_numeric_module_loads_no_dataclasses():
    # numpy itself imports inspect, so only dataclasses is checked here
    assert _fresh_python('import sys, qwalk.spectral; print("dataclasses" in sys.modules)') == "False"
