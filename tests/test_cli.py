"""Command line behavior: exit codes, files, reports."""

import csv
import json

import pytest

from bulkrobust import brute_force_vc, parse_hypergraph
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
    (None, None, [1, 2]),
    (None, None, {"chosen_edges": ["a"]}),
], ids=["rotation-int", "nodes-str", "nodes-huge", "scenario-int",
        "weight-float", "weight-bool", "solution-list", "solution-edge-str"])
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
