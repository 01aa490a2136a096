"""Command-line interface: instance files, CSV reports, exit codes."""

import csv
import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from altproj import InstanceSpec, ParseError
from altproj import cli
from altproj.acceptance import CriterionResult
from altproj.cli import main, parse_instance_text, serialize_instance
from altproj.spectral import resolvent_diagnostic

LINES = "altproj-instance v1\nkind two_lines\ntheta 1.0471975511965976\n"

BLOCKS12 = "altproj-instance v1\nkind block_aligned\nk_blocks 12\nangle_rule 1/k\n"

MIX = (
    "altproj-instance v1\n"
    "kind convex_combination\n"
    "weights 0.25 0.75\n"
    "component two_lines theta=0.9\n"
    "component two_lines theta=1.3\n"
)

MIX1 = "altproj-instance v1\nkind convex_combination\nweights 1\n"

SPECS = [
    InstanceSpec("two_lines", {"theta": np.pi / 3}),
    InstanceSpec("random", {"d": 6, "dims": (2, 3)}, seed=11),
    InstanceSpec("block_aligned", {"k_blocks": 12, "angle_rule": "1/k"}),
    InstanceSpec("block_aligned", {"k_blocks": 2, "angle_rule": (0.9, 0.3)}),
    InstanceSpec(
        "convex_combination",
        {
            "components": (
                {"kind": "two_lines", "parameters": {"theta": 0.9}},
                {"kind": "block_aligned", "parameters": {"k_blocks": 1, "angle_rule": "1/k"}},
                {"kind": "random", "parameters": {"d": 2, "dims": (1, 1)}, "seed": 5},
            ),
            "weights": (0.5, 0.25, 0.25),
        },
    ),
]


def _path(tmp_path, text, name="inst.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
def test_serialize_parse_round_trip(spec):
    text = serialize_instance(spec)
    assert serialize_instance(parse_instance_text(text)) == text


def test_canonical_two_lines_text():
    assert serialize_instance(SPECS[0]) == LINES


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("kind two_lines\ntheta 1.0\n", "version header"),
        ("", "version header"),
        ("altproj-instance v1\nkind pentagon\n", "unknown kind"),
        ("altproj-instance v1\nkind two_lines\n", "is required"),
        ("altproj-instance v1\nkind two_lines\ntheta abc\n", "needs a number"),
        ("altproj-instance v1\nkind two_lines\ntheta 1.0\ntheta 2.0\n", "duplicate field"),
        ("altproj-instance v1\nkind two_lines\ntheta 1.0\nspin 3\n", "unknown field"),
        (LINES + "component two_lines theta=1.0\n", "only valid"),
        ("altproj-instance v1\nkind random\nseed 1\nd x\ndims 2 2\n", "needs an integer"),
        ("altproj-instance v1\nkind random\nseed 1\nd 4\ndims 2\n", "at least two ranks"),
        (
            "altproj-instance v1\nkind convex_combination\nweights 0.5 0.5\n"
            "component two_lines theta=1.0\n",
            "weights for",
        ),
        ("altproj-instance v1\nkind block_aligned\nk_blocks 3\nangle_rule cubic\n", "angle_rule"),
        ("altproj-instance v1\nkind two_lines\ntheta 1.0 2.0\n", "exactly one value"),
        (
            "altproj-instance v1\nkind block_aligned\nk_blocks 2\nangle_rule 1/k\n"
            "angles 0.9 0.3\n",
            "mutually exclusive",
        ),
        # structurally fine, semantically impossible: surfaces as a parse error
        ("altproj-instance v1\nkind two_lines\ntheta 0.0\n", "invalid parameters"),
        (
            "altproj-instance v1\nkind convex_combination\nweights nan\n"
            "component two_lines theta=1.0\n",
            "invalid parameters",
        ),
        # component lines take the same fields and pass the same checks
        (MIX1 + "component pentagon\n", "unknown kind"),
        (MIX1 + "component two_lines\n", "is required"),
        (MIX1 + "component two_lines theta=abc\n", "needs a number"),
        (MIX1 + "component two_lines theta=1.0 theta=2.0\n", "duplicate field"),
        (MIX1 + "component two_lines theta=1.0 spin=3\n", "unknown field"),
        (MIX1 + "component random seed=1 d=x dims=2,2\n", "needs an integer"),
        (MIX1 + "component random seed=1 d=4 dims=2\n", "at least two ranks"),
        (MIX1 + "component block_aligned k_blocks=3 angle_rule=cubic\n", "must be '1/k' or"),
        (MIX1 + "component two_lines theta=1.0,2.0\n", "exactly one value"),
        (MIX1 + "component block_aligned k_blocks=2 angle_rule=1/k angles=0.9,0.3\n",
         "mutually exclusive"),
        (MIX1 + "component two_lines theta=0.0\n", "invalid parameters"),
        (MIX1 + "component convex_combination weights=1\n",
         "line 4: convex combinations do not nest"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_instance_text(text)


def test_block_aligned_component_with_explicit_angles_round_trips():
    spec = InstanceSpec(
        "convex_combination",
        {
            "components": (
                {"kind": "block_aligned", "parameters": {"k_blocks": 2, "angle_rule": (0.9, 0.3)}},
                {"kind": "block_aligned", "parameters": {"k_blocks": 2, "angle_rule": "1/k"}},
            ),
            "weights": (0.5, 0.5),
        },
    )
    text = serialize_instance(spec)
    assert ("component block_aligned k_blocks=2 "
            "angles=0.90000000000000002,0.29999999999999999\n") in text
    back = parse_instance_text(text)
    assert back.parameters["components"][0].parameters["angle_rule"] == (0.9, 0.3)
    assert serialize_instance(back) == text


# (flags, instance text, InstanceSpec.realize calls): one per command, and
# 1 + k for a mix of k components, which realizes each component once
REALIZE_CALLS = [
    (["geometry", "--seed", "7"], LINES, 1),
    (["iterate", "--n-max", "5"], LINES, 1),
    (["numrange", "--angles", "16"], LINES, 1),
    (["ritt", "--n-max", "5"], LINES, 1),
    (["fracpow", "--alpha", "1", "--n-max", "20", "--seed", "3"], BLOCKS12, 1),
    (["slowvec", "--n-max", "5", "--eps", "0.5"], BLOCKS12, 1),
    (["numrange", "--angles", "16"], MIX, 3),
    (["ritt", "--n-max", "5"], MIX, 3),
]


@pytest.mark.parametrize("flags,text,calls", REALIZE_CALLS,
                         ids=[f"{f[0]}-{n}" for f, _, n in REALIZE_CALLS])
def test_each_command_realizes_its_instance_once(tmp_path, monkeypatch, flags, text, calls):
    seen = []
    realize = InstanceSpec.realize

    def counted(self):
        seen.append(self.kind)
        return realize(self)

    monkeypatch.setattr(InstanceSpec, "realize", counted)
    argv = flags + ["--instance", _path(tmp_path, text), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert len(seen) == calls


def test_geometry_command_writes_deterministic_csv(tmp_path, capsys):
    inst = _path(tmp_path, LINES)
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["geometry", "--instance", inst, "--seed", "7", "--out", out_a]) == 0
    assert "c = 0.5" in capsys.readouterr().out
    # --seed is optional and ignored: nothing in geometry is random
    assert main(["geometry", "--instance", inst, "--out", out_b]) == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()
    rows = _rows(open(out_a).read())
    assert rows[0] == ["N", "c", "ell2", "ell2_direct", "iota2", "ell_lo", "ell_hi",
                       "iota_lo", "iota_hi", "theta0", "rate_base"]
    record = dict(zip(rows[0], rows[1]))
    assert record["N"] == "2"
    assert float(record["c"]) == pytest.approx(0.5, abs=1e-12)
    assert float(record["ell2"]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert float(record["theta0"]) == pytest.approx(1.122963929865964, abs=1e-12)


def test_iterate_follows_the_two_line_law(tmp_path, capsys):
    inst = _path(tmp_path, LINES)
    assert main(["iterate", "--instance", inst, "--n-max", "12"]) == 0
    captured = capsys.readouterr()
    assert "final error" in captured.err
    rows = _rows(captured.out)
    assert rows[0] == ["n", "error", "bound_c", "bound_iota2"]
    data = rows[1:]
    assert len(data) == 13
    assert float(data[0][1]) == pytest.approx(1.0, abs=1e-12)
    for n in range(1, 13):
        # canonical start on the first line: errors follow cos(theta)^(2n-1)
        assert float(data[n][1]) == pytest.approx(0.5 ** (2 * n - 1), abs=1e-12)
        assert float(data[n][2]) >= float(data[n][1]) - 1e-9


def test_numrange_reports_containment(tmp_path, capsys):
    inst = _path(tmp_path, LINES)
    assert main(["numrange", "--instance", inst, "--angles", "64"]) == 0
    captured = capsys.readouterr()
    assert "contained" in captured.err and "NOT" not in captured.err
    rows = _rows(captured.out)
    assert rows[0] == ["phi", "h", "re_z", "im_z", "in_omega", "in_stolz", "margin"]
    assert len(rows) == 65
    assert all(r[4] == "1" and r[5] == "1" for r in rows[1:])


def test_numrange_accepts_convex_combinations(tmp_path):
    inst = _path(tmp_path, MIX)
    assert main(["numrange", "--instance", inst, "--angles", "32"]) == 0


def test_ritt_sections(tmp_path, capsys, monkeypatch):
    inst = _path(tmp_path, LINES)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return resolvent_diagnostic(*args, **kwargs)

    monkeypatch.setattr(cli, "resolvent_diagnostic", counted)
    assert main(["ritt", "--instance", inst, "--n-max", "20"]) == 0
    assert len(calls) == 1  # every radius in one call
    rows = _rows(capsys.readouterr().out)[1:]
    power = [r for r in rows if r[0] == "power"]
    resolvent = [r for r in rows if r[0] == "resolvent"]
    assert len(power) == 20 and len(resolvent) == 10
    assert power[0][1] == "1"
    assert resolvent[0][1] == "1.5"  # radii 1 + 2^-k, k = 1..10
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_fracpow_reports_slopes_per_alpha(tmp_path, capsys):
    inst = _path(tmp_path, BLOCKS12)
    assert main(["fracpow", "--instance", inst, "--alpha", "0.5,1.0",
                 "--n-max", "200", "--seed", "3"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["alpha", "window", "slope", "sup_n_alpha_e_n"]
    assert [r[0] for r in rows[1:]] == ["0.5", "1"]
    assert all(r[1] == "20:200" for r in rows[1:])
    assert all(float(r[3]) > 0.0 for r in rows[1:])


def test_slowvec_sections_and_norm_note(tmp_path, capsys):
    spec = InstanceSpec("block_aligned", {"k_blocks": 400, "angle_rule": "1/k"})
    inst = _path(tmp_path, serialize_instance(spec))
    assert main(["slowvec", "--instance", inst, "--n-max", "400", "--eps", "0.5"]) == 0
    captured = capsys.readouterr()
    assert "||x||" in captured.err
    rows = _rows(captured.out)[1:]
    counts = {}
    for r in rows:
        counts[r[0]] = counts.get(r[0], 0) + 1
    assert counts == {"vector": 800, "target": 401, "error": 401}


def test_slowvec_on_two_thousand_blocks_stays_small(tmp_path):
    # slowvec only sweeps, so it never forms the model's d x K bases
    spec = InstanceSpec("block_aligned", {"k_blocks": 2000, "angle_rule": "1/k"})
    inst = _path(tmp_path, serialize_instance(spec))
    out = str(tmp_path / "slow.csv")
    tracemalloc.start()
    try:
        assert main(["slowvec", "--instance", inst, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("k_blocks,argv", [(1000, ["ritt", "--n-max", "50"]),
                                           (2000, ["fracpow", "--seed", "3"])])
def test_spectral_commands_on_thousands_of_blocks_stay_small(tmp_path, k_blocks, argv):
    # ritt and fracpow read T's 2x2 blocks, so they form no d x d array
    spec = InstanceSpec("block_aligned", {"k_blocks": k_blocks, "angle_rule": "1/k"})
    inst = _path(tmp_path, serialize_instance(spec))
    out = str(tmp_path / "out.csv")
    tracemalloc.start()
    try:
        assert main(argv + ["--instance", inst, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("k_blocks,argv,limit_mb", [(2000, ["iterate"], 10),
                                                    (2000, ["numrange"], 32),
                                                    (400, ["geometry"], 32)])
def test_angle_commands_on_block_instances_stay_small(tmp_path, monkeypatch, k_blocks, argv,
                                                      limit_mb):
    # the angle quantities read the product's block stacks, so these
    # commands form neither the model's d x K bases nor a d x d array;
    # geometry stops at K = 400, where its rank reduction is still small.
    # iterate's chunk of T's powers is capped near 2 MiB (7.9 MB in all)
    loaded = []

    def load(path):
        loaded.append(_load(path))
        return loaded[-1]

    _load = cli._load_instance
    monkeypatch.setattr(cli, "_load_instance", load)
    spec = InstanceSpec("block_aligned", {"k_blocks": k_blocks, "angle_rule": "1/k"})
    inst = _path(tmp_path, serialize_instance(spec))
    out = str(tmp_path / "out.csv")
    tracemalloc.start()
    try:
        assert main(argv + ["--instance", inst, "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20
    (instance,) = loaded
    assert not {"m1", "m2"} & set(vars(instance.model))
    assert not {"factors", "matrix", "pm", "m"} & set(vars(instance.cyclic()))


def test_slowvec_infeasible_horizon_exits_4(tmp_path, capsys):
    inst = _path(tmp_path, BLOCKS12)
    out = str(tmp_path / "slow.csv")
    assert main(["slowvec", "--instance", inst, "--n-max", "1000", "--out", out]) == 4
    assert "smallest sufficient K: 144" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_slowvec_rejects_other_instance_kinds(tmp_path):
    inst = _path(tmp_path, LINES)
    assert main(["slowvec", "--instance", inst]) == 2


def test_iterate_needs_a_subspace_family(tmp_path, capsys):
    inst = _path(tmp_path, MIX)
    assert main(["iterate", "--instance", inst]) == 2
    assert "no subspace family" in capsys.readouterr().err


def test_malformed_instance_exits_2_without_output(tmp_path):
    inst = _path(tmp_path, "altproj-instance v1\nkind two_lines\n")
    out = str(tmp_path / "geo.csv")
    assert main(["geometry", "--instance", inst, "--seed", "1", "--out", out]) == 2
    assert not os.path.exists(out)


def test_missing_instance_file_exits_2(tmp_path):
    missing = str(tmp_path / "nope.txt")
    assert main(["geometry", "--instance", missing, "--seed", "1"]) == 2


def test_unwritable_output_exits_2(tmp_path):
    inst = _path(tmp_path, LINES)
    out = str(tmp_path / "no" / "dir" / "x.csv")
    assert main(["iterate", "--instance", inst, "--n-max", "2", "--out", out]) == 2


def test_bad_flags_exit_2(tmp_path, capsys):
    inst = _path(tmp_path, LINES)
    assert main(["suite", "--criteria", "0,5"]) == 2  # 0 is not a criterion id
    assert main(["iterate", "--instance", inst, "--n-max", "0"]) == 2
    assert main(["fracpow", "--instance", inst, "--alpha", "-1", "--seed", "1"]) == 2
    # float flags take finite values only; nan fails every comparison
    assert main(["fracpow", "--instance", inst, "--alpha", "nan", "--seed", "1"]) == 2
    blocks = _path(tmp_path, BLOCKS12, "blocks.txt")
    capsys.readouterr()
    assert main(["slowvec", "--instance", blocks, "--eps", "nan"]) == 2
    assert "--eps: must be positive and finite" in capsys.readouterr().err
    # a finite eps whose norm budget overflows is refused before the capacity check
    assert main(["slowvec", "--instance", blocks, "--eps", "1e300"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_suite_subset_passes_and_writes_summary(tmp_path, capsys):
    out = str(tmp_path / "suite.csv")
    assert main(["suite", "--criteria", "1,11", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "criterion 01 two_subspace_law: PASS" in stdout
    assert "criterion 11 stolz_angle_recursion: PASS" in stdout
    assert "2/2 criteria passed" in stdout
    rows = _rows(open(out).read())
    assert rows[0] == ["cid", "name", "passed", "detail"]
    assert [(r[0], r[2]) for r in rows[1:]] == [("1", "1"), ("11", "1")]


def test_suite_failure_exits_3(monkeypatch, capsys):
    def fake(pool=None, ids=None):
        yield CriterionResult(cid=1, name="two_subspace_law", passed=True, detail="ok")
        yield CriterionResult(cid=2, name="exponential_rate_bounds", passed=False,
                              detail="bound exceeded")
    monkeypatch.setattr(cli, "iter_results", fake)
    assert main(["suite"]) == 3
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout
    assert "1/2 criteria passed" in stdout


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 1.00 TiB for an array",
     "capacity limit: out of memory (Unable to allocate 1.00 TiB for an array)"),
    ("", "capacity limit: out of memory"),
])
def test_out_of_memory_exits_4(tmp_path, monkeypatch, capsys, message, line):
    # a command that fails to allocate is patched in; nothing large is allocated
    def exhausted(path):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_load_instance", exhausted)
    assert main(["geometry", "--instance", _path(tmp_path, BLOCKS12)]) == 4
    assert capsys.readouterr().err == line + "\n"


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; a flag of one call does not
    # reach the next, which takes the defaults again
    assert cli._build_parser() is cli._build_parser()
    inst = _path(tmp_path, LINES)
    assert main(["fracpow", "--instance", inst, "--alpha", "3", "--n-max", "20",
                 "--seed", "1"]) == 0
    assert [r[0] for r in _rows(capsys.readouterr().out)[1:]] == ["3"]
    assert main(["fracpow", "--instance", inst, "--n-max", "20", "--seed", "1"]) == 0
    assert [r[0] for r in _rows(capsys.readouterr().out)[1:]] == ["0.5", "1", "2"]


def test_help_exits_zero_and_documents_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert "exit codes" in capsys.readouterr().out


def test_module_entry_point():
    # the child imports the same altproj as this process, also when pytest
    # put src on sys.path without setting PYTHONPATH
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "altproj.cli", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "geometry" in proc.stdout and "suite" in proc.stdout
