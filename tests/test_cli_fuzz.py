"""Argv fuzzing of the commands: every input ends in a documented exit.

The closed-form commands get arbitrary flags and must print only finite
numbers when they succeed.  ``verify`` gets arbitrary floats for its
configuration flags, but its integer flags come from small sets that still
reach every check (-1, 0, 1 and one past the cap of 200 for --nmax/--lmax;
-1, 15, 16 and 64 grid points; -1 to 2 refinement levels), so that no
example runs the solver on a production-sized grid.
"""
import contextlib
import csv
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gupmol.cli import QN_CAP, main  # noqa: E402

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 1e308,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(1e-3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)
INTS = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([-(10 ** 9), QN_CAP, QN_CAP + 1, 10 ** 9]),
)
VERIFY_INTS = {
    "--nmax": [-1, 0, 1, QN_CAP + 1],
    "--lmax": [-1, 0, 1, QN_CAP + 1],
    "--grid-points": [-1, 15, 16, 64],
    "--levels": [-1, 0, 1, 2],
}


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


@st.composite
def verify_argvs(draw):
    argv = ["verify"] + [f"--gamma={g!r}" for g in draw(st.lists(FLOATS, min_size=1, max_size=2))]
    for flag, choices in VERIFY_INTS.items():
        argv.append(f"{flag}={draw(st.sampled_from(choices))}")
    for flag in ("--beta", "--tol-energy", "--tol-correction", "--rmax"):
        argv += draw(_option(flag, FLOATS))
    return argv + draw(st.sampled_from([[], ["--potential=kratzer"], ["--potential=pho"]]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _numbers(stdout):
    """Every field of the CSV output, '# key=value' lines included, that parses as a float."""
    for line in stdout.splitlines():
        fields = [line.partition("=")[2]] if line.startswith("# ") else next(csv.reader([line]))
        for field in fields:
            try:
                yield float(field)
            except ValueError:
                pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert all(math.isfinite(x) for x in _numbers(out)), (argv, out)
    else:
        assert out == "", argv
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(verify_argvs())
# a kinetic term 1e240 times the potential: the tridiagonal eigensolve does not converge
@example(["verify", "--gamma=1.1286463524261746e-122", "--nmax=0", "--lmax=0",
          "--grid-points=16", "--levels=1", "--rmax=1.0"])
def test_every_verify_configuration_ends_in_a_documented_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code in (2, 3):
        assert out == "", argv
    assert "Traceback" not in err
