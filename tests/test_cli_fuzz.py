"""Argv fuzzing of the closed-form commands: every input ends in a documented exit.

``verify`` is left out because each example would run the solver.
"""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gupmol.cli import QN_CAP, main  # noqa: E402

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(1e-3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)
INTS = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([-(10 ** 9), QN_CAP, QN_CAP + 1, 10 ** 9]),
)


def _option(flag, values):
    """Nothing, or ``flag=value``: the '=' form keeps argparse from reading -1e+300 as a flag."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v!r}"]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["spectrum", "constants", "constants --fit", "fit-beta"]))
    synthetic = draw(st.lists(FLOATS, min_size=3, max_size=3))
    argv = command.split() + ["--synthetic=" + ",".join(repr(x) for x in synthetic),
                              "--potential", draw(st.sampled_from(["kratzer", "pho"]))]
    if command == "fit-beta":
        argv += draw(_option("--n", INTS)) + draw(_option("--l", INTS))
        argv += draw(_option("--e-exp", FLOATS))
    else:
        argv += draw(st.one_of(_option("--beta", FLOATS), _option("--min-length-angstrom", FLOATS)))
        argv += draw(_option("--nmax", INTS)) + draw(_option("--lmax", INTS))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue()
