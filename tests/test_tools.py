"""The command-line tools under tools/."""

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# what each artifact_digests pipeline writes, by step, besides the 40 bags
_STEP_FILES = {"data/manifest.json", "data/signal_indices.json", "fp/fingerprint.json",
               "plan/config.json", "train/checkpoint.ckpt", "train/train_report.json",
               "pred/predictions.jsonl", "pred/patients.jsonl", "eval/evaluation.json",
               "rej/rejection.csv", "rej/rejection.json"}
# and what predict and evaluate write on the external cohort, the test slides alone
_EXTERNAL_FILES = {"external/manifest.json", "external_pred/predictions.jsonl",
                   "external_pred/patients.jsonl", "external_eval/evaluation.json"}
_PIPELINE_FILES = {
    name: _STEP_FILES | {f"data/synth_{i:05d}.emb" for i in range(40)}
    | ({"eval/km_high.csv", "eval/km_low.csv", "external_eval/km_high.csv",
        "external_eval/km_low.csv"} if name == "survival" else set())
    | (_EXTERNAL_FILES if name in ("classification", "survival") else set())
    for name in ("classification", "regression", "survival", "full_bag_batch1")}


def test_artifact_digests_prints_one_digest_per_artifact():
    done = subprocess.run([sys.executable, str(TOOLS / "artifact_digests.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines[:3]
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(set(paths)), "one line per file, sorted by path"
    by_pipeline = {}
    for path in paths:
        pipeline, rest = path.split("/", 1)
        by_pipeline.setdefault(pipeline, set()).add(rest)
    assert by_pipeline == _PIPELINE_FILES
    assert not any(path.endswith("run_manifest.json") for path in paths)


def test_fpe_stress_reports_hits_per_kind():
    done = subprocess.run([sys.executable, str(TOOLS / "fpe_stress.py"), "--children", "1",
                           "--repeats", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # criterion 09's 60 eval-mode forwards and one training step, once
    assert any(re.fullmatch(r"eval: \d+ hits in 60 calls, \d+\.\d{3} per thousand", line)
               for line in lines), lines
    assert any(re.fullmatch(r"step: \d+ hits in 1 calls, \d+\.\d{3} per thousand", line)
               for line in lines), lines


def test_window_roofline_times_the_kernel_and_its_products():
    done = subprocess.run([sys.executable, str(TOOLS / "window_roofline.py"), "--rows", "300",
                           "--dim", "96", "--hidden", "32", "--stride", "16", "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"sgemm 2048\^3: \d+\.\d ms, \d+\.\d GFLOP/s", lines[0]), lines
    for line, name in zip(lines[1:3], ("window_tiles", "block products")):
        assert re.fullmatch(rf"{name}: [\d.]+ ms \(fastest [\d.]+, slowest [\d.]+\), "
                            r"[\d.]+ GFLOP/s, \d+% of peak", line), line
    # D=96, H=32, S=16: windows at 0, 16, ... 64, each two of six 16-wide blocks
    assert lines[3] == "K=5 windows, 6 distinct blocks, 0.00369 GFLOP of block products"
