"""Golden files: the CSV bytes and the exit code of every CLI command.

Each call runs ``altproj.cli.main`` with ``--out`` on a small fixture
instance and compares the file it writes, byte for byte, with
``tests/golden/<name>.csv`` (absent when the call writes no CSV) and its
exit code with ``tests/golden/exit_codes.json``.  After an intended
change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import json
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


def regenerate(workdir):
    os.makedirs(GOLDEN, exist_ok=True)
    for entry in os.listdir(GOLDEN):
        if entry.endswith(".csv"):
            os.unlink(os.path.join(GOLDEN, entry))
    codes = {}
    for name in sorted(CALLS):
        codes[name], data = _run(name, workdir)
        if data is not None:
            with open(os.path.join(GOLDEN, f"{name}.csv"), "wb") as fh:
                fh.write(data)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(tmp)
