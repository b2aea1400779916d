"""Tests of the benchmark itself: inputs, span arithmetic, binding restore."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_instance_texts(name):
    first = [case.text for case in workloads.generate(name, 3)]
    again = [case.text for case in workloads.generate(name, 3)]
    other = [case.text for case in workloads.generate(name, 4)]
    assert first == again
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)


def _span(name, start, end, parent):
    return (name, start, end, parent, 0, None)


def test_self_times_on_nested_spans():
    spans = [
        _span("driver.solve", 0.0, 10.0, -1),
        _span("driver.augment_step", 1.0, 4.0, 0),
        _span("instance.Instance.requirement_holds", 2.0, 3.0, 1),
        _span("driver.augment_step", 5.0, 9.0, 0),
        _span("instance.Instance.requirement_holds", 6.0, 7.0, 3),
        _span("setcover.exact_min_cover", 7.5, 8.0, 3),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 0.5])
    assert sum(own) == pytest.approx(10.0)    # self times tile the root span

    metrics = tracing.layer_metrics(spans, tracing.Counter())
    assert metrics["driver.solve.s"] == pytest.approx(10.0)
    assert metrics["driver.solve.self_s"] == pytest.approx(3.0)
    assert metrics["driver.augment_step.calls"] == 2
    assert metrics["driver.augment_step.s"] == pytest.approx(7.0)
    assert metrics["driver.augment_step.self_s"] == pytest.approx(4.5)
    assert metrics["instance.Instance.requirement_holds.by_augment_step"] == pytest.approx(2.0)
    assert metrics["instance.Instance.requirement_holds.by_solve"] == 0.0
    assert metrics["setcover.exact_min_cover.max_s"] == pytest.approx(0.5)


def test_traced_pass_wraps_every_binding_and_restores_it():
    cases = workloads.generate("small-mix", 5)[:40]
    plain = run.solve_pass(cases)
    before = {name: tracing.binding_sites(name) for name in tracing.SPAN_NAMES}
    originals = {id(original) for original, _ in before.values()}

    tracer = tracing.Tracer()
    with tracer.installed():
        # No solver module or class still reaches an unwrapped original.
        for mod_name in tracing.SOLVER_MODULES:
            module = sys.modules["bulkrobust." + mod_name]
            owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for owner in owners:
                assert not [key for key, value in vars(owner).items()
                            if id(value) in originals]
        traced = run.solve_pass(cases, tracer)

    for name, (original, sites) in before.items():
        assert sites, name
        for owner, attr in sites:
            assert vars(owner)[attr] is original, f"{name} at {owner.__name__}.{attr}"
    assert tracer.leftover_wrappers() == []
    assert traced.outputs == plain.outputs and not traced.errors

    spans = tracer.spans
    assert {span[0] for span in spans} >= {"driver.solve", "lp.simplex_min",
                                           "instance.PlaneGraph.contract"}
    assert all(span[3] < index for index, span in enumerate(spans))


def test_from_import_bindings_are_found():
    """The names the solver binds by `from ... import` are among the sites."""
    sites = {(owner.__name__.rsplit(".", 1)[-1], attr)
             for name in tracing.SPAN_NAMES
             for owner, attr in tracing.binding_sites(name)[1]}
    for attr in ("preprocess_step", "enumerate_typed_links", "lex_shortest_path",
                 "solve_link_lp", "partition_scenarios", "round_face",
                 "cover_intervals_exact", "exact_min_cover", "augment_step"):
        assert ("driver", attr) in sites
    assert ("rounding", "exact_min_cover") in sites
    assert {("lp", "simplex_min"), ("lp", "separation_oracle"),
            ("lp", "max_flow_min_cut"), ("links", "lex_shortest_path"),
            ("links", "induced_faces")} <= sites
    assert {("Instance", "requirement_holds"), ("PlaneGraph", "contract"),
            ("PlaneGraph", "trace_faces")} <= sites


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer = set(tracing.layer_metrics([], tracing.Counter())) | {"oracle.check_s",
                                                                 "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hvc-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
