"""``compare.py``: verdicts against the bounds, and its exit status."""

import json

import compare
from sysbench.catalogue import END_TO_END, FAILED_OPS_SHARE

P50 = next(m for m in END_TO_END if m.name == "query_p50_s")    # lower is better
QPS = next(m for m in END_TO_END if m.name == "queries_per_s")  # higher is better


def scaled(values, by):
    return [v * by for v in values]


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    inside, outside = 1 + P50.bound / 4, 1 + 2 * P50.bound
    assert compare.verdict(P50, steady, scaled(steady, inside))[0] == "same"
    assert compare.verdict(P50, steady, scaled(steady, outside))[0] == "worse"
    assert compare.verdict(P50, steady, scaled(steady, 1 / outside))[0] == "better"
    # Higher-is-better flips the sign.
    assert compare.verdict(QPS, steady, scaled(steady, 1 / outside))[0] == "worse"
    assert compare.verdict(QPS, steady, scaled(steady, outside))[0] == "better"
    word, worse_by, noise = compare.verdict(P50, steady, scaled(steady, outside))
    assert abs(worse_by - 2 * P50.bound) < 1e-9 and noise < P50.bound


def test_noise_wider_than_the_bound_is_unresolved_not_same():
    wide = 2 * P50.bound
    noisy = [1 - wide, 1.0, 1 + wide, 1.0]
    assert compare.verdict(P50, noisy, scaled(noisy, 1.05))[0] == "unresolved"
    # ... unless every candidate run beats (or loses to) every base run.
    assert compare.verdict(P50, noisy, scaled(noisy, 0.3))[0] == "better"
    assert compare.verdict(P50, noisy, scaled(noisy, 4.0))[0] == "worse"


def result_file(tmp_path, name, p50, failed=0.0, smoke=False):
    runs = [
        {
            "workload": "hot-analytics",
            "smoke": smoke,
            "traced": False,
            "end_to_end": {"query_p50_s": {"value": v, "unit": "s"}},
            FAILED_OPS_SHARE: {"value": failed, "unit": "ratio"},
        }
        for v in p50
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"schema": "chronos-sysbench/1", "runs": runs}))
    return str(path)


def test_exit_status(tmp_path, capsys):
    base = result_file(tmp_path, "base.json", [1.0, 1.0, 1.0])
    same = result_file(tmp_path, "same.json", [1.01, 1.0, 1.02])
    slow = result_file(tmp_path, "slow.json", [1.6, 1.6, 1.6])
    wrong = result_file(tmp_path, "wrong.json", [1.0, 1.0, 1.0], failed=0.01)
    smoke = result_file(tmp_path, "smoke.json", [1.0], smoke=True)
    assert compare.main([base, same]) == 0
    assert "query_p50_s" in capsys.readouterr().out
    assert compare.main([base, slow]) == 1
    assert compare.main([base, wrong]) == 1
    assert compare.main([base, smoke]) == 2
    assert compare.main([base]) == 2
