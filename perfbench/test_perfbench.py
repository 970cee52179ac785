"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.prepare_environment()

import checks  # noqa: E402
import workloads  # noqa: E402
from asrkit import kernels  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


# exact counts a traced run must see: a span that never fires reads as
# zero, so a wrapper that stopped binding would otherwise pass unnoticed
TRACED_COUNTS = (
    "decoder.Decoder.decode_step.calls_per_utt",
    "tensor.apply_primitive.calls_per_step",
    "tensor.apply_primitive.calls_per_utt",
    "kernels.ctc_loss_grad.calls",
    "kernels.ctc_prefix_all.calls",
    "kernels.edit_counts.calls",
    "serialization.save_arrays.bytes_per_checkpoint",
)


def _shrink(spec):
    return workloads.TrainSpec(
        pretrain_steps=3,
        stages=tuple((d, f, 3, lr) for d, f, _, lr in spec.stages),
        warmup=spec.warmup, dropout=spec.dropout)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_a_unit(name, trace, monkeypatch):
    # a few-second version of the workload: tiny training, one utterance
    monkeypatch.setattr(workloads, "TRAIN_PASS",
                        _shrink(workloads.TRAIN_PASS))
    full = workloads.WORKLOADS[name]
    tiny = workloads.Workload(
        name=name, decode_utts=1, score_utts=1,
        decode_model=full.decode_model and _shrink(full.decode_model))
    record = run.result_record(run.run(name, 3, 0.0, trace, tiny), trace)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in wanted}
    for spec in wanted:
        got = record["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(got["value"]), spec["name"]
    if trace:
        for count in TRACED_COUNTS:
            assert record["metrics"][count]["value"] > 0, count
    assert record["attempted"] >= 1
    assert record["failed"] == 0
    assert not os.path.exists(run.WORK_ROOT)


def test_workload_names_match_the_benchmark_file():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) \
        == sorted(workloads.WORKLOADS)


def _decode_row(**changes):
    row = {"utt_id": "u1", "ctc": -3.5, "att": -1.25, "joint": 0.0}
    row["joint"] = 0.3 * row["ctc"] + 0.7 * row["att"]
    row.update(changes)
    return row


def test_joint_check_rejects_a_row_whose_joint_does_not_match():
    checks.joint_consistent([_decode_row()], 0.3)
    with pytest.raises(checks.CheckFailed) as info:
        checks.joint_consistent([_decode_row(joint=-1.0)], 0.3)
    assert info.value.check == "joint_score"


def test_score_check_rejects_a_wrong_count():
    score_set = workloads.build_score_set(seed=4, per_lang=3)
    report = workloads.scoring.score_corpus(score_set.refs, score_set.hyps)
    checks.score_totals_match(report, score_set.expected,
                              score_set.extra_hyps)
    report.per_language[0].substitutions += 1
    with pytest.raises(checks.CheckFailed) as info:
        checks.score_totals_match(report, score_set.expected,
                                  score_set.extra_hyps)
    assert info.value.check == "score_counts"


def test_loss_checks_reject_a_non_finite_or_rising_loss():
    rows = [{"step": k, "loss_total": 10.0 - k} for k in range(20)]
    checks.losses_finite(rows, "curriculum")
    checks.loss_decreases(rows, "curriculum")
    bad = rows[:5] + [{"step": 5, "loss_total": float("nan")}] + rows[6:]
    with pytest.raises(checks.CheckFailed) as info:
        checks.losses_finite(bad, "curriculum")
    assert info.value.check == "loss_finite"
    with pytest.raises(checks.CheckFailed) as info:
        checks.loss_decreases(rows[::-1], "curriculum")
    assert info.value.check == "loss_decreases"


def test_checkpoint_check_rejects_a_changed_bit():
    a = np.linspace(-1.0, 0.0, 12, dtype=np.float32).reshape(3, 4)
    checks.arrays_identical("x", a, a.copy())
    b = a.copy()
    b.view(np.uint32)[1, 2] ^= 1
    with pytest.raises(checks.CheckFailed):
        checks.arrays_identical("x", a, b)


def test_reference_dp_agrees_with_the_kernel():
    rng = np.random.default_rng(0)
    for _ in range(200):
        ref = list(rng.integers(0, 4, size=int(rng.integers(0, 12))))
        hyp = list(rng.integers(0, 4, size=int(rng.integers(0, 12))))
        assert checks.reference_edit_counts(ref, hyp) \
            == tuple(kernels.edit_counts(ref, hyp))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:]
        + ["--workload", "train", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
