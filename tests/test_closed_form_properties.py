"""Structural properties of the closed-form kernels, over generated inputs:
monotone levels, a shift linear in beta, a table equal to its scalar views
bit for bit, rows that are the n-major grid, and one warning from a table for
the levels that a loop of single levels flags.
"""
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gupmol import (  # noqa: E402
    Deformation,
    Molecule,
    PerturbationWarning,
    QuantumNumbers,
    closed_form_table,
)
from gupmol.core import FIRST_ORDER_WARN_RATIO  # noqa: E402
from gupmol.spectroscopy import MODELS  # noqa: E402

KINDS = tuple(MODELS)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# gamma >= 2 keeps every level clear of the slopes' poles
GAMMA = st.floats(2.0, 1e7)
QN = st.integers(0, 400)


def _molecule(g, de=1.7, re=0.9):
    return Molecule("x", de=de, re=re, mu=(g / re) ** 2 / (2.0 * de))


@PROPERTY
@given(st.sampled_from(KINDS), GAMMA, QN, QN)
def test_levels_increase_in_n_and_ell(kind, g, n, ell):
    model = MODELS[kind]
    m = _molecule(g)
    for index in (0, 1):  # the level on the model's scale, and above the minimum
        level = float(model.energies(m, n, ell)[index])
        assert float(model.energies(m, n + 1, ell)[index]) > level
        assert float(model.energies(m, n, ell + 1)[index]) > level


@PROPERTY
@given(st.sampled_from(KINDS), GAMMA, QN, QN, st.floats(1e-12, 1e-3), st.floats(0.01, 100.0))
def test_shift_is_linear_in_beta(kind, g, n, ell, beta, factor):
    model = MODELS[kind]
    m = _molecule(g)
    qn = QuantumNumbers(n, ell)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbationWarning)
        one = model.level(m, Deformation(beta), qn)
        scaled = model.level(m, Deformation(beta * factor), qn)
        doubled = model.level(m, Deformation(2.0 * beta), qn)
    assert one.de == beta * model.slope(m, qn)
    assert doubled.de == 2.0 * one.de
    assert scaled.de == pytest.approx(factor * one.de, rel=1e-15)
    assert scaled.e0 == one.e0


@PROPERTY
@given(st.sampled_from(KINDS), GAMMA, st.integers(0, 12), st.integers(0, 12),
       st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
def test_table_equals_its_scalar_views_bit_for_bit(kind, g, n_max, l_max, beta):
    model = MODELS[kind]
    m = _molecule(g)
    d = Deformation(beta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbationWarning)
        n, ell, e0, e_min, de = model.table(m, d, n_max, l_max)
        qns = [QuantumNumbers(a, b) for a, b in zip(n.tolist(), ell.tolist())]
        table = closed_form_table(m, d, kind, n_max, l_max)
        levels = [model.level(m, d, qn) for qn in qns]
    assert [(qn.n, qn.ell) for qn in qns] == [(n, ell) for n in range(n_max + 1)
                                              for ell in range(l_max + 1)]
    assert e0.tolist() == [level.e0 for level in levels]
    assert de.tolist() == [level.de for level in levels]
    assert e0.tolist() == [model.undeformed(m, qn) for qn in qns]
    assert e_min.tolist() == [float(model.energies(m, qn.n, qn.ell)[1]) for qn in qns]
    assert [e for _, e in table.entries] == (e_min + de).tolist()
    assert [qn for qn, _ in table.entries] == list(qns)


@PROPERTY
@given(st.sampled_from(KINDS), st.integers(0, 60), st.integers(0, 60))
@example("kratzer", 200, 0)
@example("pho", 0, 200)
def test_table_rows_are_the_n_major_grid(kind, n_max, l_max):
    # LevelTable checks entries for repeats but not these rows: they cannot repeat.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbationWarning)
        table = closed_form_table(_molecule(40.0), Deformation(1e-6), kind, n_max, l_max)
    assert table.n.tolist() == np.repeat(np.arange(n_max + 1), l_max + 1).tolist()
    assert table.ell.tolist() == np.tile(np.arange(l_max + 1), n_max + 1).tolist()


@PROPERTY
@given(st.sampled_from(KINDS), st.floats(2.0, 1e5), st.integers(0, 15), st.integers(0, 15),
       st.floats(1e-7, 1e-1))
def test_table_warns_as_a_loop_of_levels(kind, g, n_max, l_max, beta):
    model = MODELS[kind]
    m = _molecule(g)
    d = Deformation(beta)

    def caught(run):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = run()
        assert all(issubclass(w.category, PerturbationWarning) for w in record)
        return result, [w.message for w in record]

    (n, ell, e0, _, de), from_table = caught(lambda: model.table(m, d, n_max, l_max))
    _, from_loop = caught(lambda: [model.level(m, d, QuantumNumbers(a, b))
                                   for a in range(n_max + 1) for b in range(l_max + 1)])
    assert len(from_table) == (1 if from_loop else 0)
    flagged = abs(de) > FIRST_ORDER_WARN_RATIO * abs(e0)
    assert {(w.qn.n, w.qn.ell) for w in from_loop} == set(zip(n[flagged].tolist(),
                                                              ell[flagged].tolist()))
    if from_loop:
        (table_warning,) = from_table
        worst = max(from_loop, key=lambda w: w.ratio)  # the first maximum in n-major order
        assert table_warning.count == len(from_loop)
        assert (table_warning.qn, table_warning.ratio) == (worst.qn, worst.ratio)
