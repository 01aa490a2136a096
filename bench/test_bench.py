"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import run

run._import_altproj()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_is_duration_minus_direct_children():
    # 0 holds 1 and 2; 1 holds 3: grandchildren count only against their parent
    parent = np.array([-1, 0, 0, 1])
    dur = np.array([10.0, 4.0, 3.0, 1.0])
    assert tracing.self_times(parent, dur).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_tracer_spans_nest_and_record_raises():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with pytest.raises(ValueError):
            with tr.span("inner"):
                raise ValueError
    name, parent, dur, self_s, raised = tr.table()
    assert parent.tolist() == [-1, 0, 0]
    assert raised.tolist() == [False, False, True]
    assert self_s[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert (self_s >= 0.0).all()


def test_count_under_follows_ancestors():
    # 0:a  1:b(under a)  2:c(under b)  3:c(top level)
    name = np.array([0, 1, 2, 2])
    parent = np.array([-1, 0, 1, -1])
    assert tracing.count_under(name, parent, {2}, {0}) == 1
    assert tracing.count_under(name, parent, {1, 2}, {0}) == 2


def test_metric_names_and_units_are_valid():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == tracing.metric_specs()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        passes, metrics, _ = run.measure(name, 3, 0.0, trace, 0.0, workloads.TINY)
        assert sum(p.attempted for p in passes) >= 1
        assert set(metrics) == {m["name"] for m in declared}
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert np.isfinite(metrics[m["name"]]["value"])


def test_traced_counts_repeat():
    def counts():
        _, metrics, _ = run.measure("cli_commands", 5, 0.0, True, 0.0, workloads.TINY)
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "flop")}

    assert counts() == counts()


def test_instrument_restores_originals():
    from altproj import acceptance, fracpow, iteration

    before = (fracpow.partial_sum_characterization, acceptance.partial_sum_characterization,
              iteration.CyclicProduct.__dict__["apply"])
    restore = tracing.instrument(tracing.Tracer())
    assert acceptance.partial_sum_characterization is not before[1]
    restore()
    after = (fracpow.partial_sum_characterization, acceptance.partial_sum_characterization,
             iteration.CyclicProduct.__dict__["apply"])
    assert after == before


def _op(label, exc=None, may_refuse=False):
    def run():
        if exc is not None:
            raise exc
    return workloads.Op("bench.test", label, run, may_refuse)


def test_only_known_refusals_leave_the_run_correct():
    from altproj.errors import CapacityError

    cases = [(_op("ok"), 0, 0),
             (_op("known", workloads.Refused("exit 3"), may_refuse=True), 1, 0),
             (_op("refused", workloads.Refused("exit 3")), 1, 1),
             (_op("wrong", workloads.WrongResult("bad"), may_refuse=True), 1, 1),
             (_op("raised", CapacityError("cap"), may_refuse=True), 1, 1)]
    for op, failed, unexpected in cases:
        res = run.run_pass([op])
        assert (res.attempted, len(res.failures), res.unexpected) == (1, failed, unexpected)


def test_numrange_csv_is_checked_before_its_exit_code(tmp_path, monkeypatch):
    # numrange writes its CSV and then exits 3 when the containment fails
    def main(argv):
        print("phi,h,re_z,im_z,in_omega,in_stolz,margin\n0,1,1,0,0,1,-0.5")
        return 3

    monkeypatch.setattr(workloads.cli, "main", main)
    op = workloads.CliCommands(workloads.TINY, str(tmp_path))._call(
        "numrange near", ["numrange"], None)
    with pytest.raises(workloads.WrongResult):
        op()


def test_layer_failed_counts_wrapped_calls_only():
    tr = tracing.Tracer()

    def refuse():
        raise ValueError

    wrapped = tr.wrap("geometry.friedrichs_number", refuse)
    with pytest.raises(ValueError):
        with tr.span("cli.iterate"):  # the benchmark's own op span
            wrapped()
    metrics = tracing.layer_metrics(tr, 0.0)
    assert metrics["geometry.failed"]["value"] == 1
    assert metrics["cli.failed"]["value"] == 0
