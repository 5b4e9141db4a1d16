"""Argv fuzzing of every subcommand through cli.main: flags drawn from the
_Opt tables with arbitrary values, config files (fixed ones, and one key
with an arbitrary value) and unknown flags, exit in {0, 2, 3, 4} without a
traceback, and a nonzero exit prints one stderr line.

Every size setting (samples, reps, grid, angles, bins, reference size) is
always passed, drawn from small values, and --workers is always 1, so no
example starts a process pool or a large run.  Every path the program may
write lies in one temporary directory.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_tomo import cli

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# the only values a size flag takes: (usable, rejected).  The last occurrence
# of a flag wins, so these bounds hold wherever the flag appears.
_SMALL = {
    "--samples": (("60", "600", "1200", "600,1200"), ("2", "1", "0", "-3", "1e3", "x", "")),
    "--reps": (("30", "31"), ("2", "0", "-1", "abc", "")),
    "--grid": (("1x1", "2x1", "1x2", "2x2"), ("0x2", "2x", "1x1x1", "x", "")),
    "--angles": (("3", "5", "6"), ("4", "2", "0", "5,6", "q")),
    "--bins": (("5", "7"), ("2", "0", "-1", "z")),
    "--reference-size": (("600", "120000"), ("0", "-1", "w")),
    "--workers": (("1",), ("0", "-2", "two")),
}
_PLAUSIBLE = (
    "0", "1", "0.5", "2", "-1", "1e300", "1e-300", "inf", "nan", "3.5", "0.9,0,0.01",
    "1:2", "0.5:4", "2:1", "hom", "het", "bin", "csv", "ml", "wls", "vacuum", "weak-sqz",
)
_INI = (
    "",
    "garbage\n",
    "[run]\nseed = 3\n",
    "[run]\nsamples = 600\nreps = 30\n",
    "[state]\npreset = weak-sqz\nmu = 2\n[detection]\neta = 0.9\n",
    "[state]\nmu = -1\n",
    "[detection]\ng_elec = 1,2\n",
    "[nope]\nx = 1\n",
    "[run]\nunknown = 1\n",
    "[run]\nseed = %(missing)s\n",
)


_FILES = ("hom.csv", "het.bin", "garbage.csv", "none", "c1.ini")


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, argv in (
            ("hom.csv", ["simulate", "--angles", "5", "--samples", "40", "--seed", "1"]),
            ("het.bin", ["simulate", "--scheme", "het", "--samples", "60", "--format", "bin"]),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--out", str(base / name)]) == 0
        (base / "garbage.csv").write_text("not a dataset\n")
        for i, text in enumerate(_INI):
            (base / f"c{i}.ini").write_text(text)
        yield base


# text a real argv can carry: no NUL, no lone surrogate outside surrogateescape's
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=12)
# a config value may hold a NUL too; no line break, which would start a line
# the fuzz does not control (an out path outside the temporary directory)
_FILE_TEXT = st.one_of(st.sampled_from(_PLAUSIBLE), st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=12))


def _value(opt, draw, base: Path, usable: bool = False) -> list:
    # the argv words that follow one occurrence of opt's flag
    if opt.cast is cli._cast_bool:
        return []
    if opt.flag in _SMALL:
        good, bad = _SMALL[opt.flag]
        return [draw(st.sampled_from(good if usable else good + bad))]
    if opt.flag == "--out":
        name = draw(_TEXT.filter(lambda t: t and "/" not in t))
        return [str(base / "out" / name)]
    return [draw(st.one_of(st.sampled_from(_PLAUSIBLE), _TEXT))]


def _argv(name: str, opts: tuple, draw, base: Path) -> list:
    argv = [name]
    if name in ("estimate", "gaussianity"):
        argv.append(str(base / draw(st.sampled_from(_FILES[:4]))))
    if name == "verify":
        files = draw(st.lists(st.sampled_from(_FILES), min_size=1, max_size=3))
        argv += [str(base / f) for f in files]
    # every size flag up front, all usable in half the examples, so that some runs get going
    usable = draw(st.booleans())
    argv += [w for opt in opts if opt.flag in _SMALL
             for w in [opt.flag] + _value(opt, draw, base, usable)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["table", "table", "table", "config", "unknown"]))
        if kind == "table" and opts:
            opt = draw(st.sampled_from(opts))
            argv += [opt.flag] + _value(opt, draw, base)
        elif kind == "config" and opts:
            path = base / f"c{draw(st.integers(0, len(_INI)))}.ini"  # the last does not exist
            if draw(st.booleans()):
                # one key of the table with a drawn value; out stays in the directory
                opt = draw(st.sampled_from(opts))
                section, _, key = opt.key.partition(".")
                value = _value(opt, draw, base)[0] if opt is cli._OUT else draw(_FILE_TEXT)
                path = base / "drawn.ini"
                path.write_text(f"[{section}]\n{key} = {value}\n")
            argv += ["--config", str(path)]
        else:
            flag = st.from_regex(r"--?[a-z][a-z-]{0,8}", fullmatch=True)
            argv.append(draw(st.one_of(flag, _TEXT)))
    return argv


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help, or a flag argparse reads as its abbreviation
            code = exc.code
    return code, err.getvalue()


_TABLES = {name: opts for name, _, opts, _ in cli._COMMANDS}
_TABLES["verify"] = ()


@pytest.mark.parametrize("name", sorted(_TABLES))
@SETTINGS
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(workdir, name, data):
    (workdir / "out").mkdir(exist_ok=True)
    argv = _argv(name, _TABLES[name], data.draw, workdir)
    code, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
