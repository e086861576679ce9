"""compare.py on synthetic result files: ok, regression, unresolved, refuse."""

import copy
import json

import compare

SPEC = {
    "end_to_end": [
        {"name": "host_op_s_p50", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "wire_ratio", "unit": "ratio", "better": "higher", "bound": 0.02},
    ]
}
MANIFEST = {key: "same" for key in compare.FINGERPRINT}


def metric(values, unit="s"):
    values = sorted(values)
    mid = len(values) // 2
    return {
        "value": values[mid], "unit": unit, "q1": values[1], "q3": values[-2],
        "min": values[0], "max": values[-1], "n": len(values),
    }  # fmt: skip


def document(host, ratio=3.8):
    return {
        "manifest": dict(MANIFEST, git_rev="abc"),
        "workloads": {
            "w": {
                "correct": True,
                "end_to_end": {
                    "host_op_s_p50": metric(host),
                    "wire_ratio": metric([ratio] * 5, "ratio"),
                },
            }
        },
    }


STEADY = [1.00, 1.01, 1.02, 1.03, 1.04]


def statuses(doc_a, doc_b):
    rows, all_ok = compare.compare(doc_a, doc_b, SPEC)
    return [row.split()[-1] for row in rows], all_ok


def test_same_numbers_are_ok():
    assert statuses(document(STEADY), document(STEADY)) == (["ok", "ok"], True)


def test_regression_beyond_the_bound():
    slower = [v * 1.2 for v in STEADY]
    assert statuses(document(STEADY), document(slower)) == (["REGRESSION", "ok"], False)
    assert statuses(document(slower), document(STEADY)) == (["ok", "ok"], True)


def test_noisy_runs_are_unresolved_unless_every_run_separates():
    noisy = [0.8, 0.9, 1.0, 1.1, 1.2]
    assert statuses(document(noisy), document([v * 1.05 for v in noisy])) == (
        ["unresolved", "ok"], False
    )  # fmt: skip
    assert statuses(document(noisy), document([v * 2 for v in noisy])) == (
        ["REGRESSION", "ok"], False
    )  # fmt: skip
    assert statuses(document(noisy), document([v / 2 for v in noisy])) == (["ok", "ok"], True)


def test_simulated_clock_metrics_must_match_exactly():
    assert statuses(document(STEADY), document(STEADY, ratio=3.8000001)) == (
        ["ok", "MISMATCH"], False
    )  # fmt: skip


def test_refuses_different_seed_ops_version_or_environment(tmp_path, capsys, monkeypatch):
    spec_file = tmp_path / "BENCHMARK.json"
    spec_file.write_text(json.dumps(SPEC))
    monkeypatch.setattr(compare, "SPEC_FILE", spec_file)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document(STEADY)))
    for key in ("seed", "ops", "harness_version", "numpy"):
        other = copy.deepcopy(document(STEADY))
        other["manifest"][key] = "different"
        b.write_text(json.dumps(other))
        assert compare.main([str(a), str(b)]) == 2
        assert f"{key}:" in capsys.readouterr().out
    b.write_text(json.dumps(document(STEADY)))
    assert compare.main([str(a), str(b)]) == 0
