"""Argv fuzzing of the commands: every input ends in a documented exit.

The closed-form commands get arbitrary flags and must print only finite
numbers when they succeed.  No command may let a numpy ``RuntimeWarning``
reach stderr: an intermediate that overflows is either harmless or turns
into the command's own error.  ``verify`` gets arbitrary floats for its
configuration flags, but its integer flags come from small sets that still
reach every check (-1, 0, 1 and one past the cap of 200 for --nmax/--lmax;
-1, 15, 16, 64 and, above the DVR size cap, 4096 starting points; -1 to 2
solves), so that no example runs the solver on a large matrix.
"""
import contextlib
import csv
import io
import math
import warnings

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
    "--grid-points": [-1, 15, 16, 64, 4096],
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
    """Exit code, stdout and stderr of one call.  Every warning is recorded and
    written to stderr as the command line shows it, each occurrence."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


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
# energies near the float maximum, whose sums in a fit overflow unless it scales them,
# although every printed number is finite
@example(["constants", "--fit", "--potential", "kratzer", "--synthetic", "1,1,1", "--beta", "1e300"])
# a fitted constant that overflows in the conversion to cm-1
@example(["constants", "--fit", "--potential", "kratzer", "--synthetic", "1,1,100", "--beta",
          "1e304", "--nmax", "200", "--lmax", "200"])
def test_every_argv_ends_in_a_documented_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert all(math.isfinite(x) for x in _numbers(out)), (argv, out)
    else:
        assert out == "", argv
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err, (argv, err)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(verify_argvs())
# a kinetic term 1e240 times the potential: the tridiagonal eigensolve does not converge
@example(["verify", "--gamma=1.1286463524261746e-122", "--nmax=0", "--lmax=0",
          "--grid-points=16", "--levels=1", "--rmax=1.0"])
# r^2 overflows in the potentials and the centrifugal term; the cells FAIL
@example(["verify", "--gamma=20", "--nmax=0", "--lmax=1", "--grid-points=16", "--levels=1",
          "--rmax=1e300"])
def test_every_verify_configuration_ends_in_a_documented_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code in (2, 3):
        assert out == "", argv
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err, (argv, err)
