import os
from pathlib import Path

import numpy as np
import pytest

import gupmol
from gupmol import Molecule

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


@pytest.fixture
def qn_builds(monkeypatch) -> list:
    """Counts QuantumNumbers built from here on: the returned list gets one
    item per QuantumNumbers.__post_init__ call."""
    calls = []
    post_init = gupmol.QuantumNumbers.__post_init__

    def counted(self):
        calls.append(None)
        post_init(self)

    monkeypatch.setattr(gupmol.QuantumNumbers, "__post_init__", counted)
    return calls
