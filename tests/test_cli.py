"""Command line behavior: exit codes, files, reports."""

import copy
import csv
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bulkrobust import brute_force_vc, gen_grid, gen_hypergraph_vc, parse_hypergraph
from bulkrobust.cli import main
from bulkrobust.lp import LinearProgram, simplex_min
from conftest import build_suite_instance, suite_schedule, triangle_instance
from bulkrobust.instance import serialize_instance


def _write_triangle(path):
    path.write_text(serialize_instance(triangle_instance()), encoding="utf-8")


def test_solve_and_verify(tmp_path, capsys):
    inst = tmp_path / "tri.json"
    out = tmp_path / "sol.json"
    _write_triangle(inst)
    assert main(["solve", "-i", str(inst), "-o", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["cost"] == 3
    assert sol["chosen_edges"] == [0, 1, 2]
    assert sol["trace"]["alg_cost"] == 3
    assert main(["verify", "-i", str(inst), "-s", str(out)]) == 0
    # corrupting the cost makes verification fail with exit 1
    sol["cost"] = 99
    out.write_text(json.dumps(sol))
    assert main(["verify", "-i", str(inst), "-s", str(out)]) == 1


def test_solve_writes_trace_and_lp_dump(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "sol.json"
    trace = tmp_path / "trace.json"
    dump = tmp_path / "lp.txt"
    assert main(["generate", "grid", "--rows", "3", "--cols", "3",
                 "--scenarios", "2", "--k", "2", "--seed", "5",
                 "-o", str(inst)]) == 0
    assert main(["solve", "-i", str(inst), "-o", str(out),
                 "--trace", str(trace), "--lp-dump", str(dump)]) == 0
    assert json.loads(trace.read_text())["alg_cost"] == \
        json.loads(out.read_text())["cost"]


def _parse_lp_dump(text):
    """[(level, LinearProgram)] from the text `solve --lp-dump` writes."""
    blocks = []
    for chunk in text.split("# level ")[1:]:
        head, objective, *rows, last = chunk.splitlines()
        assert objective.startswith("min ") and last == "x >= 0"
        parsed = []
        for row in rows:
            lhs, rhs = row.split(" >= ")
            parsed.append(([float(v) for v in lhs.split()], float(rhs)))
        costs = [float(v) for v in objective.split()[1:]]
        blocks.append((int(head), LinearProgram(costs, parsed)))
    return blocks


def test_lp_dump_matches_trace(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "sol.json"
    trace = tmp_path / "trace.json"
    dump = tmp_path / "lp.txt"
    dumped = 0
    for params in suite_schedule(40):
        inst.write_text(serialize_instance(build_suite_instance(params)))
        assert main(["solve", "-i", str(inst), "-o", str(out),
                     "--trace", str(trace), "--lp-dump", str(dump)]) == 0
        lp_levels = [lv for lv in json.loads(trace.read_text())["levels"]
                     if lv["lp_value"] is not None]
        blocks = _parse_lp_dump(dump.read_text())
        assert len(blocks) == len(lp_levels)
        for (level, lp), lv in zip(blocks, lp_levels):
            assert level == lv["level"]
            assert len(lp.rows) == lv["omega_size"]
            result = simplex_min(lp)
            assert result.status == "optimal"
            assert result.value == pytest.approx(lv["lp_value"], rel=0, abs=1e-9)
        dumped += len(blocks)
    assert dumped > 0


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "sp", "--depth", "3", "--scenarios", "2",
            "--k", "2", "--weight-max", "4", "--seed", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_hvc_oracle_equivalence(tmp_path, capsys):
    inst = tmp_path / "h.json"
    hyper = tmp_path / "hyper.json"
    assert main(["generate", "hvc", "--k", "2", "--seed", "1",
                 "-o", str(inst), "--hypergraph-out", str(hyper)]) == 0
    capsys.readouterr()
    assert main(["oracle", "-i", str(inst)]) == 0
    reported = json.loads(capsys.readouterr().out)
    h = parse_hypergraph(hyper.read_text())
    assert reported["opt"] == brute_force_vc(h)[0]


def test_infeasible_instance_exit_code(tmp_path, capsys):
    tri = triangle_instance()
    data = json.loads(serialize_instance(tri))
    data["scenarios"] = [[0, 1, 2]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["solve", "-i", str(bad), "-o", str(tmp_path / "x.json")]) == 2


TRIANGLE_ROTATION = {"0": [0, 1], "1": [0, 2], "2": [1, 2]}
TRIANGLE_EDGES = [[0, 0, 1, 1], [1, 0, 2, 1], [2, 2, 1, 1]]


@pytest.mark.parametrize("key, value, solution", [
    ("rotation", dict(TRIANGLE_ROTATION, **{"0": 5}), None),
    ("nodes", "x", None),
    ("nodes", 10**30, None),
    ("scenarios", [0], None),
    ("edges", [[0, 0, 1, 1.7]] + TRIANGLE_EDGES[1:], None),
    ("edges", [[0, 0, 1, True]] + TRIANGLE_EDGES[1:], None),
    ("edges", [[0, 0, 1, 10**400]] + TRIANGLE_EDGES[1:], None),
    (None, None, [1, 2]),
    (None, None, {"chosen_edges": ["a"]}),
    (None, None, {"chosen_edges": [0, 1, 2], "cost": 3.0}),
    (None, None, {"chosen_edges": [0], "cost": True}),
    (None, None, {"chosen_edges": [0, 1, 2]}),
], ids=["rotation-int", "nodes-str", "nodes-huge", "scenario-int",
        "weight-float", "weight-bool", "weight-huge", "solution-list",
        "solution-edge-str", "cost-float", "cost-bool", "cost-missing"])
def test_malformed_input_exit_code(tmp_path, capsys, key, value, solution):
    data = json.loads(serialize_instance(triangle_instance()))
    if key is not None:
        data[key] = value
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    sol = tmp_path / "sol.json"
    if solution is None:
        argv = ["solve", "-i", str(inst), "-o", str(sol)]
    else:
        sol.write_text(json.dumps(solution))
        argv = ["verify", "-i", str(inst), "-s", str(sol)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_long_path_solves_and_verifies(tmp_path, capsys):
    # A 2 x 1100 grid: the cheapest s-t path and its detours run over
    # thousands of edges, more than Python's recursion limit.
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert main(["generate", "grid", "--rows", "2", "--cols", "1100",
                 "--scenarios", "1", "--k", "1", "--weight-max", "1",
                 "--seed", "3", "-o", str(inst)]) == 0
    assert main(["solve", "-i", str(inst), "-o", str(sol)]) == 0
    assert main(["verify", "-i", str(inst), "-s", str(sol)]) == 0
    assert capsys.readouterr().out.endswith("OK: feasible, cost 1103\n")


def test_anchored_cover_budget_exits_4(tmp_path, capsys, monkeypatch):
    import bulkrobust.driver as driver_mod
    monkeypatch.setattr(driver_mod, "NODE_CAP", 1)
    inst = tmp_path / "inst.json"
    assert main(["generate", "grid", "--rows", "3", "--cols", "4",
                 "--scenarios", "3", "--k", "2", "--weight-max", "3",
                 "--seed", "2", "-o", str(inst)]) == 0
    capsys.readouterr()
    assert main(["solve", "-i", str(inst), "-o", str(tmp_path / "sol.json")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: level 2, face ")
    assert "anchored-side cover exceeded its budget of 1 search nodes" in err


def test_huge_weights_on_an_lp_level_exit_code(tmp_path, capsys):
    # Levels 2 and up convert costs to floats; 10**400 used to overflow there.
    _, hvc = gen_hypergraph_vc(3, 3, 12, 5)
    data = hvc.to_dict()
    data["edges"] = [[e, u, v, w * 10**400] for e, u, v, w in data["edges"]]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    assert main(["solve", "-i", str(inst), "-o", str(tmp_path / "sol.json")]) == 4
    err = capsys.readouterr().err
    assert err == "error: total edge weight exceeds 2**53\n"


def test_oversized_integer_exit_code(tmp_path, capsys):
    # More digits than Python's int conversion limit is a ValueError in json.
    digits = "9" * 5000
    inst = tmp_path / "inst.json"
    bad = tmp_path / "bad.json"
    inst.write_text(serialize_instance(triangle_instance()))
    for text, argv in (
            ('{"nodes": %s}' % digits,
             ["solve", "-i", str(bad), "-o", str(tmp_path / "sol.json")]),
            ('{"chosen_edges": [%s]}' % digits,
             ["verify", "-i", str(inst), "-s", str(bad)])):
        bad.write_text(text)
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and err.count("\n") == 1


def test_non_utf8_input_exit_code(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    bad = tmp_path / "bad.json"
    inst.write_text(serialize_instance(triangle_instance()))
    bad.write_bytes(b"\xff\xfe{}")
    for argv in (["solve", "-i", str(bad), "-o", str(tmp_path / "sol.json")],
                 ["verify", "-i", str(inst), "-s", str(bad)]):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--nonsense"])
    assert exc.value.code == 4


@pytest.mark.parametrize("argv", [
    ["grid", "--rows", "1"],
    ["grid", "--scenarios", "0"],
    ["sp", "--depth", "-1"],
    ["hvc", "--k", "1"],
    ["hvc", "--part-size", "0"],
    ["hvc", "--k", "2", "--part-size", "2", "--edges", "5"],
], ids=["grid-rows", "grid-scenarios", "sp-depth", "hvc-k", "hvc-part-size",
        "hvc-edges"])
def test_generate_bad_parameters_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "inst.json"
    assert main(["generate", *argv, "--seed", "1", "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# Replacement values for the fuzz below: wrong types, out-of-range ids,
# empty containers and an integer too large for a float.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 12), st.just(10 ** 30),
                 st.floats(-2, 12), st.text(max_size=2), st.just([]), st.just({}),
                 st.lists(st.integers(-1, 12), max_size=4))
FUZZ_BASES = [json.loads(serialize_instance(gen_grid(2, 3, 2, 2, 3, seed, problem)))
              for seed, problem in ((1, "st"), (2, "mst"))]


def _mutate(doc, draw):
    """Apply one random edit to a parsed instance file in place."""
    op = draw(st.sampled_from(["replace", "retype-edge", "retype-rotation", "permute",
                               "zero", "scenarios"]))
    edges, rotation = doc.get("edges"), doc.get("rotation")
    if op == "replace":
        key = draw(st.sampled_from(["nodes", "edges", "rotation", "problem", "s", "t",
                                    "scenarios", "extra"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(st.one_of(JUNK, st.sampled_from(["st", "mst"])))
    elif op == "retype-edge" and isinstance(edges, list) and edges:
        row = edges[draw(st.integers(0, len(edges) - 1))]
        if isinstance(row, list) and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
    elif op == "retype-rotation" and isinstance(rotation, dict) and rotation:
        rotation[draw(st.sampled_from(sorted(rotation)))] = draw(JUNK)
    elif op == "permute" and isinstance(rotation, dict) and rotation:
        node = draw(st.sampled_from(sorted(rotation)))
        if isinstance(rotation[node], list):
            rotation[node] = draw(st.permutations(rotation[node]))
    elif op == "zero" and isinstance(edges, list):
        for row in edges:
            if isinstance(row, list) and len(row) == 4 and draw(st.booleans()):
                row[3] = 0
    elif op == "scenarios":
        doc["scenarios"] = draw(st.lists(st.lists(st.integers(-1, 8), max_size=4),
                                         max_size=4))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_instance_files_exit_cleanly(tmp_path, data):
    """A mutated instance file solves, is infeasible, or is rejected as bad
    input: never a traceback, a verification failure or an invariant breach."""
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    assert main(["solve", "-i", str(inst), "-o", str(tmp_path / "sol.json")]) in (0, 2, 4)


def test_bench_report_schema(tmp_path):
    report = tmp_path / "report.csv"
    assert main(["bench", "--family", "grid", "--count", "3",
                 "--seed", "2", "--problem", "both",
                 "--report", str(report)]) == 0
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:7] == ["instance_id", "n", "m_e", "k",
                          "ALG", "OPT", "ratio"]
    assert header[-1] == "wall_ms"
    assert any(col.startswith("lp_level_") for col in header)
    assert any(col.startswith("bound_level_") for col in header)
    assert len(rows) == 1 + 6   # 3 indices x both problems


def test_bench_report_stable_modulo_timing(tmp_path):
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    for path in (r1, r2):
        assert main(["bench", "--family", "sp", "--count", "2",
                     "--seed", "3", "--report", str(path)]) == 0

    def strip_timing(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return [row[:-1] for row in rows]

    assert strip_timing(r1) == strip_timing(r2)


def test_face_gap_measures_fractional_slack():
    # 3 demands, 3 unit coverers, each hitting 2 demands: LP 1.5, exact 2
    from bulkrobust.cli import face_gap
    record = {
        "demands": [{"scenario": [0]}, {"scenario": [1]}, {"scenario": [2]}],
        "coverers": [
            {"cost": 1, "covers": [0, 1]},
            {"cost": 1, "covers": [1, 2]},
            {"cost": 1, "covers": [0, 2]},
        ],
    }
    assert abs(face_gap(record) - 4 / 3) < 1e-9
    assert face_gap({"demands": [], "coverers": []}) is None


def test_bench_hvc_family(tmp_path):
    report = tmp_path / "hvc.csv"
    assert main(["bench", "--family", "hvc", "--count", "2",
                 "--seed", "4", "--report", str(report)]) == 0
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    # on the reduction family the solver and the oracle agree often; at the
    # very least every ratio stays within the guarantee (checked by bench)


def test_gap_command(tmp_path, capsys):
    report = tmp_path / "gaps.csv"
    assert main(["gap", "--family", "sp", "--count", "3", "--seed", "1",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "max" in out
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance_id", "face_count", "max_gap"]
    for row in rows[1:]:
        assert float(row[2]) <= 8.0 + 1e-6
