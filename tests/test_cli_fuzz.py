"""Command-line fuzz: `run` (ideal, decaying, noisy and csv trainers),
`verify` and `oracle` called in-process with flags drawn from pools of
edge values.

Whatever the flags, a call exits 0, 2, 3 or 4 and raises nothing (pytest
makes a RuntimeWarning an error, so numpy's overflow warnings count as
raising). Exit 2 prints nothing on stdout and writes no file, exit 0 prints
and writes only finite numbers, and exit 3 leaves the iterations CSV with
its header. The ring trainer is left out: one policy search per example is
too slow, and its commands have their own tests in test_cli.py.
"""

import contextlib
import io
import math
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from temporal_transfer.cli import ALL_CLAIMS, CONDITIONAL_FLAGS, main

NUMBERS = ["0", "-1", "-0.0", "5e-324", "1e-300", "0.5", "1", "2", "3.7", "40", "1e300", "1e307",
           "1.7e308", "nan", "inf"]
COUNTS = ["0", "-1", "1", "2", "3", "5", "17", "41", "81", "abc"]
GRIDS = ["2", "3", "21", "41", "49", "81"]
KMAX = ["1", "2", "4", "5", "9"]
# Every flag's pool; {smooth} and {huge} name the two curves the test writes,
# and {out} the output path in the test's own directory. --claims also draws
# lists of claims.
POOLS = {"--dmin": NUMBERS, "--dmax": NUMBERS, "--resolution": NUMBERS, "--theta": NUMBERS,
         "--jstar": NUMBERS, "--epsilon": NUMBERS, "--noise-eta": NUMBERS, "--decay": NUMBERS,
         "--budget": COUNTS, "--seed": COUNTS, "--csv": ["{smooth}", "{huge}"], "--grid": GRIDS,
         "--kmax": KMAX, "--out": ["{out}", ""], "--claims": [""]}
SMOOTH = "delta,performance\n" + "".join(f"{d},{1 - 0.3 * (d / 40) ** 2:.6g}\n" for d in range(41))
HUGE = "delta,performance\n0,1e308\n20,1e308\n40,1e308\n"


@st.composite
def flags(draw, names):
    """Some of the flags `names`, each with a value from its pool."""
    args = []
    for name in names:
        if draw(st.booleans()):
            args += [name, draw(st.sampled_from(POOLS[name]))]
    return args


@st.composite
def out_flag(draw):
    """An --out, which every call gives: a `run` without one writes in the
    working directory."""
    return ["--out", draw(st.sampled_from(POOLS["--out"]))]


@st.composite
def run_calls(draw):
    algo = draw(st.sampled_from(["gttl", "cttl", "rttl", "exhaustive"]))
    trainer = draw(st.sampled_from(["ideal", "decaying", "noisy", "csv"]))
    # Mostly flags that the chosen names read, and at times one that they do not.
    table = CONDITIONAL_FLAGS["run"]
    read = [f for f, row in table.items() if f in POOLS and {algo, trainer} & set(row[2])]
    unread = [f for f in table if f in POOLS and f not in read]
    stray = draw(st.lists(st.sampled_from(unread), max_size=1))
    args = ["run", "--algo", algo, "--trainer", trainer]
    return args + draw(flags(["--dmin", "--dmax", "--resolution", "--theta", *read, *stray])) + draw(out_flag())


@st.composite
def verify_calls(draw):
    claims = draw(st.one_of(st.sampled_from(POOLS["--claims"]),
                            st.lists(st.sampled_from(ALL_CLAIMS), min_size=1, max_size=3, unique=True)
                            .map(",".join)))
    return ["verify", "--claims", claims, *draw(flags(["--grid", "--kmax"])), *draw(out_flag())]


@st.composite
def oracle_calls(draw):
    names = ["--dmin", "--dmax", "--theta", "--jstar", "--grid", "--kmax"]
    return ["oracle", *draw(flags(names)), *draw(out_flag())]


def _numbers_are_finite(text: str) -> bool:
    fields = text.replace("\n", ",").split(",")
    numbers = []
    for field in fields:
        try:
            numbers.append(float(field))
        except ValueError:
            pass
    return all(math.isfinite(x) for x in numbers)


def _call(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process call; argparse's own exit 2
    counts as a return of 2."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(run_calls(), verify_calls(), oracle_calls()))
# Overflowing areas and slopes, and ranges of no whole cell
@example(["oracle", "--dmax", "1e300", "--jstar", "1e307", "--grid", "49", "--kmax", "1"])
@example(["oracle", "--dmax", "40", "--jstar", "1e307", "--kmax", "1"])
@example(["run", "--algo", "gttl", "--dmax", "1e300", "--resolution", "1e298", "--jstar", "1e307",
          "--theta", "0", "--budget", "2"])
@example(["run", "--algo", "cttl", "--trainer", "csv", "--csv", "{huge}"])
@example(["run", "--algo", "gttl", "--resolution", "2", "--theta", "1.7e308"])
@example(["oracle", "--dmax", "1e300", "--kmax", "1"])
@example(["run", "--algo", "rttl", "--dmin", "1", "--theta", "1e307", "--budget", "5", "--seed", "5"])
@example(["run", "--algo", "gttl", "--trainer", "noisy", "--noise-eta", "1e308", "--budget", "3"])
@example(["run", "--algo", "gttl", "--dmax", "1", "--theta", "1.7e308"])
@example(["run", "--algo", "gttl", "--resolution", "1e10"])
@example(["run", "--algo", "exhaustive", "--trainer", "csv", "--dmin", "5e-324", "--resolution", "1.7e308",
          "--csv", "{huge}"])
# Flags that no chosen name reads, and one that is read
@example(["verify", "--claims", "T2", "--grid", "81"])
@example(["verify", "--claims", "T1", "--kmax", "3"])
@example(["run", "--algo", "cttl", "--trainer", "csv", "--csv", "{smooth}", "--jstar", "2"])
@example(["run", "--algo", "cttl", "--jstar", "2"])
# Empty --out and --claims
@example(["run", "--algo", "cttl", "--budget", "2", "--out", ""])
@example(["oracle", "--kmax", "1", "--out", ""])
@example(["verify", "--claims", "", "--out", "{out}"])
def test_any_call_exits_cleanly(argv):
    if "--out" not in argv:
        argv = [*argv, "--out", "{out}"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "smooth.csv").write_text(SMOOTH)
        (tmp / "huge.csv").write_text(HUGE)
        work = tmp / "work"  # the working directory, and every file written
        work.mkdir()
        out = work / "out" / ("x" if argv[0] == "run" else "x.csv")
        args = [a.format(smooth=tmp / "smooth.csv", huge=tmp / "huge.csv", out=out) for a in argv]
        cwd = os.getcwd()
        os.chdir(work)
        try:
            code, stdout = _call(args)
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 4)
        written = sorted(p for p in work.rglob("*") if p.is_file())
        if code == 2:
            assert stdout == "" and written == []
        if code == 0:
            assert _numbers_are_finite(stdout)
            assert all(_numbers_are_finite(p.read_text()) for p in written)
        if code == 3:
            iterations = (work / "out" / "x_iterations.csv").read_text()
            assert iterations.startswith("iteration,delta,achieved,area\n")
