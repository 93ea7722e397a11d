import os
from pathlib import Path

import numpy as np
import pytest

import gupmol
from gupmol import Molecule, cli, spectroscopy

# Tests that start `python -m gupmol` in a subprocess import the same package as the tests.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(gupmol.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def unit_molecule() -> Molecule:
    """de = re = mu = 1 in internal units; gamma = sqrt(2)."""
    return Molecule(name="unit", de=1.0, re=1.0, mu=1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _count_builds(monkeypatch, cls) -> list:
    """A list that gets one item per cls.__post_init__ call from here on."""
    calls = []
    post_init = cls.__post_init__

    def counted(self):
        calls.append(None)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


@pytest.fixture
def qn_builds(monkeypatch) -> list:
    """Counts QuantumNumbers built from here on."""
    return _count_builds(monkeypatch, gupmol.QuantumNumbers)


@pytest.fixture
def molecule_builds(monkeypatch) -> list:
    """Counts Molecules built from here on."""
    return _count_builds(monkeypatch, gupmol.Molecule)


@pytest.fixture
def lexsort_calls(monkeypatch) -> list:
    """Counts numpy.lexsort calls from here on."""
    calls = []
    lexsort = np.lexsort

    def counted(*args, **kwargs):
        calls.append(None)
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls


@pytest.fixture
def basis_builds(monkeypatch) -> list:
    """Counts the fit bases built from here on: the returned list gets one item
    per spectroscopy._fit_basis call.  The bases kept per grid shape are dropped
    first, so the next closed_form_table builds one for its shape."""
    calls = []
    build = spectroscopy._fit_basis

    def counted(n, ell):
        calls.append(None)
        return build(n, ell)

    monkeypatch.setattr(spectroscopy, "_fit_basis", counted)
    spectroscopy._grid_basis.cache_clear()
    return calls


@pytest.fixture
def parser_builds(monkeypatch) -> list:
    """Counts the parsers cli.main builds from here on: the returned list gets
    one item per build_parser call.  The shared parser is dropped first, so
    the next main call builds one."""
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    return calls
