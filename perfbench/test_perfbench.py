"""Tests of the benchmark's own logic: span arithmetic, percentiles, seeded
inputs and the metric names BENCHMARK.json promises.

    python3 -m pytest perfbench
"""
import itertools
import json
import math
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402


def _span(i, parent, start, end, name="x"):
    return Span(i, parent, name, start, end)


def test_self_time_subtracts_direct_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
             _span(2, 0, 3.0, 5.0), _span(3, 0, 7.0, 8.0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 2.0 - 2.0 - 1.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(2.0)


def test_self_time_counts_only_direct_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 9.0),
             _span(2, 1, 2.0, 8.0)]
    assert self_times(spans) == pytest.approx({0: 2.0, 1: 2.0, 2: 6.0})


def test_summary_counts_children_by_name():
    spans = [_span(0, None, 0.0, 4.0, "qpm.crossing_temperature"),
             _span(1, 0, 0.0, 1.0, "qpm.solve_signal_idler"),
             _span(2, 0, 1.0, 2.0, "qpm.solve_signal_idler"),
             _span(3, None, 5.0, 6.0, "qpm.solve_signal_idler")]
    rows = summarize(spans)
    cross = rows["qpm.crossing_temperature"]
    assert cross["children"]["qpm.solve_signal_idler"] == 2
    assert cross["self_s"] == pytest.approx(2.0)
    assert rows["qpm.solve_signal_idler"]["calls"] == 3


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.core defines two functions; pkg.user imports one of them, and
    core's outer() calls inner() through its own global binding."""
    pkg = types.ModuleType("pkg")
    core = types.ModuleType("pkg.core")
    user = types.ModuleType("pkg.user")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", core.__dict__)
    user.inner = core.inner
    pkg.inner = core.inner
    for name, mod in (("pkg", pkg), ("pkg.core", core), ("pkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, core, user


def test_tracer_patches_every_binding_and_restores(fake_package):
    pkg, core, user = fake_package
    original = core.inner
    tracer = Tracer()
    tracer.install({"core": {"inner": None, "outer": None, "gone": None}},
                   package="pkg")
    assert core.outer(1) == 4 and user.inner(1) == 2 and pkg.inner(1) == 2
    rows = summarize(tracer.spans)
    assert rows["core.inner"]["calls"] == 3
    assert rows["core.outer"]["children"]["core.inner"] == 1
    assert tracer.absent == ["core.gone"]
    tracer.uninstall()
    assert core.inner is original and user.inner is original
    core.outer(1)
    assert len(tracer.spans) == 4


def test_tracer_records_failures(fake_package):
    _, core, _ = fake_package
    exec("def boom():\n    raise ValueError('x')\n", core.__dict__)
    tracer = Tracer()
    tracer.install({"core": {"boom": None}}, package="pkg")
    with pytest.raises(ValueError):
        core.boom()
    tracer.uninstall()
    assert summarize(tracer.spans)["core.boom"]["failed"] == 1


def test_percentiles_carry_sample_count():
    records = [(None, None, float(t), False) for t in range(1, 101)]
    e2e = run.end_to_end(records, 50.0, [0.3, 0.1, 0.2], 10.0, 3)
    assert e2e["task_p50_s"] == (pytest.approx(50.5), "n=100")
    assert e2e["task_p90_s"] == (pytest.approx(90.1),
                                 "n=100, 10 samples above")
    assert e2e["setup_s"][0] == pytest.approx(0.2)
    assert e2e["tasks_per_s"][0] == pytest.approx(2.0)
    assert e2e["ok_frac"][0] == pytest.approx(0.97)


@pytest.mark.parametrize("gen", [wl.design_inputs, wl.analysis_inputs,
                                 wl.cli_chain_inputs])
def test_same_seed_same_inputs_other_seed_other_inputs(gen):
    def take(seed, n=60):
        return list(itertools.islice(gen(seed), n))
    assert take(7) == take(7)
    assert take(7) != take(8)


def test_workloads_draw_from_separate_streams():
    draws = {w: wl._rng(w, 5).random() for w in ("design", "analysis",
                                                  "cli_chain")}
    assert len(set(draws.values())) == 3


def test_design_mix_is_the_same_for_every_seed():
    shape = [[(c["pairing"], c["points"])
              for c in itertools.islice(wl.design_inputs(s), 24)]
             for s in (1, 2)]
    assert shape[0] == shape[1]
    for c in itertools.islice(wl.design_inputs(3), 200):
        assert 50.0 <= c["t0_c"] <= 170.0
        assert 1.49 <= c["signal_um"] <= 1.53
        assert 10.0 <= c["length_mm"] <= 30.0


def test_analysis_alternates_kinds_and_samples_the_beat():
    cases = list(itertools.islice(wl.analysis_inputs(4), 400))
    for a, b in zip(cases[::2], cases[1::2]):
        assert {a["kind"], b["kind"]} == {"hom", "tomo"}
    for c in cases:
        if c["kind"] == "hom":
            step_fs = 2e3 * c["half_range_ps"] / (c["points"] - 1)
            assert 121 <= c["points"] <= 2001 and step_fs <= 30.0
            assert 200.0 <= c["pairs"] <= 20000.0
        else:
            assert -50.0 <= c["tau_fs"] <= 50.0
            assert 1e3 <= c["expected_total"] <= 1e5


def test_analysis_cycle_puts_one_draw_in_each_stratum():
    k = wl.ANALYSIS_STRATA
    cases = list(itertools.islice(wl.analysis_inputs(6), 2 * k))
    hom = [c for c in cases if c["kind"] == "hom"]
    tomo = [c for c in cases if c["kind"] == "tomo"]
    assert len(hom) == len(tomo) == k
    slices = sorted(int(k * math.log(c["pairs"] / 200.0) / math.log(100.0))
                    for c in hom)
    assert slices == list(range(k))
    slices = sorted(int(k * (c["V"] - 0.3) / 0.68) for c in tomo)
    assert slices == list(range(k))


def test_reported_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([(None, None, 1.0, False)], 1.0, [0.5], 10.0, 0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    setup = [{"import_s": 0.1, "totals": {}, "absent": []}]
    layers = run.per_layer([], {}, set(), setup, run.cli_layers(None, [])[2])
    assert {k: u for k, (_, u, _) in layers.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_absent_function_is_omitted_not_zero():
    setup = [{"import_s": 0.1, "totals": {}, "absent": []}]
    layers = run.per_layer([], {}, {"hom.fit_homi"}, setup,
                           run.cli_layers(None, [])[2])
    assert not any(k.startswith("hom.fit_homi.") for k in layers)
    assert "hom.synthesize_scan.self_s" in layers
