"""Golden files: the CSV bytes and the exit code of every CLI command.

Each call runs ``altproj.cli.main`` with ``--out`` on a small fixture
instance and compares the file it writes, byte for byte, with
``tests/golden/<name>.csv`` (absent when the call writes no CSV) and its
exit code with ``tests/golden/exit_codes.json``.  After an intended
change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.  Regeneration prints, for each CSV that changed, the
number of changed rows and the largest absolute and relative deviation
of each column that moved, and every change of exit code.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest

from altproj.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_HEADER = "altproj-instance v1\n"

FIXTURES = {
    "lines": f"{_HEADER}kind two_lines\ntheta 1.0471975511965976\n",
    "rand6": f"{_HEADER}kind random\nseed 11\nd 6\ndims 2 3\n",
    "blocks": f"{_HEADER}kind block_aligned\nk_blocks 12\nangle_rule 1/k\n",
    "mix": (f"{_HEADER}kind convex_combination\nweights 0.25 0.75\n"
            "component random seed=3 d=6 dims=2,3\n"
            "component random seed=4 d=6 dims=3,2\n"),
    # two lines at 1e-6 rad: below the intersection threshold today
    "near": f"{_HEADER}kind two_lines\ntheta 1e-06\n",
    # pins ritt and numrange at d = 64, where a matrix stack capped at
    # 2 MiB holds 32 matrices, so every stack spans several chunks
    "rand64": f"{_HEADER}kind random\nseed 64\nd 64\ndims 20 30 40\n",
    # pins the eigen path of fracpow on the block stack at d = 400, where
    # (I - T)^alpha at a non-integer alpha is applied through the
    # eigenbasis of T's 2x2 blocks, and the block route of every angle
    # quantity in geometry and iterate
    "blocks200": f"{_HEADER}kind block_aligned\nk_blocks 200\nangle_rule 1/k\n",
}

_ALL = tuple(fx for fx in FIXTURES if fx not in ("rand64", "blocks200"))

# (command, name suffix, fixtures, flags)
COMMANDS = (
    ("geometry", "", ("lines", "rand6", "blocks", "blocks200", "mix"), []),
    ("iterate", "", _ALL + ("blocks200",), ["--n-max", "30"]),
    ("iterate", "-seeded", ("rand6",), ["--n-max", "30", "--seed", "5"]),
    ("numrange", "", _ALL, ["--angles", "64"]),
    ("ritt", "", _ALL, ["--n-max", "30"]),
    ("ritt", "", ("rand64",), ["--n-max", "100"]),
    ("numrange", "", ("rand64",), ["--angles", "100"]),
    ("fracpow", "", ("lines", "rand6", "blocks", "blocks200"),
     ["--alpha", "0.5,1", "--n-max", "100", "--seed", "3"]),
    ("slowvec", "", ("blocks", "lines"), ["--n-max", "20", "--eps", "0.5"]),
    ("slowvec", "-infeasible", ("blocks",), ["--n-max", "1000"]),
)


def _calls():
    calls = {f"{command}-{fx}{suffix}": (command, fx, flags)
             for command, suffix, fixtures, flags in COMMANDS for fx in fixtures}
    calls["suite"] = ("suite", None, ["--criteria", "1,11"])
    return calls


CALLS = _calls()


def _run(name, workdir):
    """Exit code and CSV bytes (None when no file was written) of one call."""
    command, fx, flags = CALLS[name]
    argv = [command] + flags
    if fx is not None:
        inst = os.path.join(workdir, f"{fx}.txt")
        if not os.path.exists(inst):
            with open(inst, "w", encoding="utf-8") as fh:
                fh.write(FIXTURES[fx])
        argv += ["--instance", inst]
    out = os.path.join(workdir, f"{name}.csv")
    code = main(argv + ["--out", out])
    if not os.path.exists(out):
        return code, None
    with open(out, "rb") as fh:
        return code, fh.read()


def _expected_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_call_has_a_golden_exit_code():
    assert set(_expected_codes()) == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_output_matches_golden(name, tmp_path):
    code, data = _run(name, str(tmp_path))
    assert code == _expected_codes()[name]
    path = os.path.join(GOLDEN, f"{name}.csv")
    if data is None:
        assert not os.path.exists(path), "call wrote no CSV but a golden file exists"
        return
    with open(path, "rb") as fh:
        assert data == fh.read()


def _golden_state():
    """The golden CSV bytes by call name, and the golden exit codes."""
    files = {}
    if os.path.isdir(GOLDEN):
        for entry in sorted(os.listdir(GOLDEN)):
            if entry.endswith(".csv"):
                with open(os.path.join(GOLDEN, entry), "rb") as fh:
                    files[entry[:-4]] = fh.read()
    path = os.path.join(GOLDEN, "exit_codes.json")
    return files, _expected_codes() if os.path.exists(path) else {}


def _deviation(old: str, new: str):
    """(absolute, relative) difference of two numeric cells; None when
    either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    return d, d / abs(a) if a else math.inf


def csv_changes(old: bytes, new: bytes) -> list:
    """Lines describing how one CSV changed: its changed rows, then per
    column that moved the largest absolute and relative deviation (the
    relative one against the old value), or the count of changed cells
    that are not numbers."""
    old_rows = list(csv.reader(io.StringIO(old.decode("utf-8"))))
    new_rows = list(csv.reader(io.StringIO(new.decode("utf-8"))))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        return [f"header or row count changed: {len(old_rows) - 1} -> {len(new_rows) - 1} rows"]
    pairs = [(a, b) for a, b in zip(old_rows[1:], new_rows[1:]) if a != b]
    lines = [f"{len(pairs)} of {len(new_rows) - 1} rows changed"]
    for col, name in enumerate(new_rows[0]):
        devs = [_deviation(a[col], b[col]) for a, b in pairs if a[col] != b[col]]
        if not devs:
            continue
        text = sum(d is None for d in devs)
        nums = [d for d in devs if d is not None]
        line = f"  {name}: {len(devs)} cells"
        if nums:
            line += (f", max abs {max(d[0] for d in nums):.3g}"
                     f", max rel {max(d[1] for d in nums):.3g}")
        if text:
            line += f", {text} not numeric"
        lines.append(line)
    return lines


def regenerate(workdir):
    old_files, old_codes = _golden_state()
    os.makedirs(GOLDEN, exist_ok=True)
    for entry in os.listdir(GOLDEN):
        if entry.endswith(".csv"):
            os.unlink(os.path.join(GOLDEN, entry))
    codes, files = {}, {}
    for name in sorted(CALLS):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):  # keep the report readable
            codes[name], data = _run(name, workdir)
        if data is not None:
            files[name] = data
            with open(os.path.join(GOLDEN, f"{name}.csv"), "wb") as fh:
                fh.write(data)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return report(old_files, old_codes, files, codes)


def report(old_files, old_codes, files, codes) -> list:
    """Lines naming every golden CSV and exit code that changed, and how."""
    lines = []
    for name in sorted(set(old_files) | set(files)):
        old, new = old_files.get(name), files.get(name)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{name}.csv: {'added' if old is None else 'removed'}")
        else:
            lines += [f"{name}.csv: " + line if i == 0 else line
                      for i, line in enumerate(csv_changes(old, new))]
    for name in sorted(set(old_codes) | set(codes)):
        if old_codes.get(name) != codes.get(name):
            lines.append(f"exit code of {name}: {old_codes.get(name)} -> {codes.get(name)}")
    return lines or ["no golden file or exit code changed"]


def test_regeneration_reports_what_changed():
    old = {"a": b"x,y,flag\n1,2,ok\n3,4,ok\n", "gone": b"x\n1\n"}
    new = {"a": b"x,y,flag\n1,2.5,ok\n3,4,no\n", "b": b"x\n1\n"}
    assert report(old, {"a": 0, "b": 2}, new, {"a": 0, "b": 3}) == [
        "a.csv: 2 of 2 rows changed",
        "  y: 1 cells, max abs 0.5, max rel 0.25",
        "  flag: 1 cells, 1 not numeric",
        "b.csv: added",
        "gone.csv: removed",
        "exit code of b: 2 -> 3",
    ]
    assert report(old, {"a": 0}, old, {"a": 0}) == ["no golden file or exit code changed"]
    assert csv_changes(b"x\n1\n", b"x\n1\n2\n") == ["header or row count changed: 1 -> 2 rows"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(regenerate(tmp)))
