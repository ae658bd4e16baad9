import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urelnet
from urelnet.cli import main
from urelnet.nn import GradientCheckReport

SMALL_SYNTH = [
    "synth",
    "--train", "10", "--val", "3", "--test", "4",
    "--min-relations", "2", "--max-relations", "3",
    "--seed", "21",
]

SMALL_TRAIN = [
    "train",
    "--steps", "25",
    "--transform-dim", "12", "--dc-hidden-dim", "6", "--rel-hidden-dim", "12",
    "--seed", "2",
]

# An integer flag value beyond any array size, and beyond a 64-bit integer.
HUGE = "99999999999999999999"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert main(SMALL_SYNTH + ["--out", str(ds)]) == 0
    run = root / "run"
    assert main(SMALL_TRAIN + ["--dataset", str(ds), "--out-dir", str(run)]) == 0
    return root


def test_synth_writes_dataset_files(workspace):
    ds = workspace / "ds"
    for name in ("dataset.json", "features.bin", "features.idx.json", "embeddings.txt"):
        assert (ds / name).exists()


def test_generate_pairs_command(workspace, tmp_path):
    out = tmp_path / "pairs.json"
    code = main(["generate-pairs", "--dataset", str(workspace / "ds"),
                 "--split", "train", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["totals"]["determinate"] > 0
    assert data["totals"]["undetermined"] > 0
    assert len(data["scenes"]) == 10


def test_build_stats_command(workspace, tmp_path):
    out = tmp_path / "stats.json"
    assert main(["build-stats", "--dataset", str(workspace / "ds"), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["total"] == sum(c for *_, c in data["counts"])


def test_train_produces_checkpoint_and_log(workspace):
    run = workspace / "run"
    assert (run / "checkpoint.bin").exists()
    lines = (run / "log.jsonl").read_text().strip().splitlines()
    assert len(lines) >= 25
    record = json.loads(lines[0])
    assert {"step", "loss", "learning_rate"} <= set(record)


def test_evaluate_command(workspace, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--dataset", str(workspace / "ds"),
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--tasks", "relation,predicate", "--n", "20,50", "--zero-shot",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["tasks"]) == {"relation", "predicate"}
    assert set(report["tasks"]["relation"]["recall"]) == {"20", "50"}


def test_predict_command(workspace, tmp_path, capsys):
    code = main([
        "predict", "--dataset", str(workspace / "ds"),
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--image-id", "synth-test-0000", "--top", "5",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["image_id"] == "synth-test-0000"
    assert 0 < len(data["predictions"]) <= 5
    scores = [p["score"] for p in data["predictions"]]
    assert scores == sorted(scores, reverse=True)


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--instances", "2", "--seed", "500"]) == 0
    out = capsys.readouterr().out
    assert "2/2 instances passed" in out


def test_error_is_machine_readable(workspace, capsys, tmp_path):
    code = main([
        "evaluate", "--dataset", str(workspace / "ds"),
        "--checkpoint", str(tmp_path / "missing.bin"),
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "category" in err["error"]


def test_directory_as_checkpoint_is_one_json_error_line(workspace, capsys, tmp_path):
    code = main(["evaluate", "--dataset", str(workspace / "ds"), "--checkpoint", str(tmp_path)])
    assert code == 1
    error = _single_error_line(capsys)
    assert error["category"] == "checkpoint-error"
    assert "not found or unreadable" in error["message"]


def test_directory_as_dataset_file_is_one_json_error_line(capsys, tmp_path):
    (tmp_path / "ds" / "dataset.json").mkdir(parents=True)
    assert main(["build-stats", "--dataset", str(tmp_path / "ds")]) == 1
    error = _single_error_line(capsys)
    assert error["category"] == "ingestion-error"
    assert "not found or unreadable" in error["message"]


def test_truncated_checkpoint_is_one_json_error_line(workspace, capsys, tmp_path):
    cut = tmp_path / "cut.bin"
    cut.write_bytes((workspace / "run" / "checkpoint.bin").read_bytes()[:12])
    code = main([
        "evaluate", "--dataset", str(workspace / "ds"), "--checkpoint", str(cut),
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["category"] == "checkpoint-error"


def test_oversized_checkpoint_dims_are_one_json_error_line(workspace, capsys, tmp_path):
    import struct

    raw = (workspace / "run" / "checkpoint.bin").read_bytes()
    (header_len,) = struct.unpack("<I", raw[12:16])
    header = json.loads(raw[16 : 16 + header_len])
    header["blocks"][0]["shape"] = [3, 2**61]
    header_bytes = json.dumps(header).encode("utf-8")
    bad = tmp_path / "oversized.bin"
    bad.write_bytes(raw[:12] + struct.pack("<I", len(header_bytes)) + header_bytes)
    code = main(["evaluate", "--dataset", str(workspace / "ds"), "--checkpoint", str(bad)])
    assert code == 1
    assert _single_error_line(capsys)["category"] == "checkpoint-error"


def test_invalid_dataset_error_category(tmp_path, capsys):
    (tmp_path / "broken").mkdir()
    (tmp_path / "broken" / "dataset.json").write_text("{nope", encoding="utf-8")
    code = main(["build-stats", "--dataset", str(tmp_path / "broken")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "parse-error"


def test_train_reproducibility_via_cli(workspace, tmp_path):
    ds = str(workspace / "ds")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(SMALL_TRAIN + ["--dataset", ds, "--out-dir", str(out)]) == 0
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "log.jsonl").read_bytes() == (b / "log.jsonl").read_bytes()


def test_predicate_task_training(workspace, tmp_path):
    run = tmp_path / "pred_run"
    code = main([
        "train", "--dataset", str(workspace / "ds"), "--out-dir", str(run),
        "--task", "predicate", "--steps", "10",
        "--transform-dim", "12", "--dc-hidden-dim", "6", "--rel-hidden-dim", "12",
    ])
    assert code == 0
    record = json.loads((run / "log.jsonl").read_text().splitlines()[0])
    assert record["rel_undetermined"] == 0.0
    assert record["dc_undetermined"] == 0.0


def test_missing_file_error(capsys, tmp_path):
    code = main(["build-stats", "--dataset", str(tmp_path / "absent")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "ingestion-error"


def _single_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_missing_embeddings_file_is_one_json_error_line(workspace, capsys, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    (ds / "embeddings.txt").unlink()
    assert main(["build-stats", "--dataset", str(ds)]) == 1
    error = _single_error_line(capsys)
    assert error["category"] == "ingestion-error"
    assert "embeddings.txt" in error["message"]


def test_train_without_embeddings_fails_before_creating_out_dir(workspace, capsys, tmp_path):
    # The default modals read external linguistic features.
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    doc = json.loads((ds / "dataset.json").read_text())
    doc["embeddings_file"] = ""
    (ds / "dataset.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    assert main(SMALL_TRAIN + ["--dataset", str(ds), "--out-dir", str(out_dir)]) == 1
    error = _single_error_line(capsys)
    assert error == {
        "category": "ingestion-error",
        "message": "external linguistic features requested but no embedding table loaded",
    }
    assert not out_dir.exists()


def test_non_utf8_embeddings_file_is_one_json_error_line(workspace, capsys, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    with open(ds / "embeddings.txt", "ab") as fh:
        fh.write("caf\u00e9 0.5\n".encode("latin-1"))
    assert main(["build-stats", "--dataset", str(ds)]) == 1
    error = _single_error_line(capsys)
    assert error["category"] == "ingestion-error"
    assert "embeddings.txt" in error["message"] and "UTF-8" in error["message"]


@pytest.mark.parametrize(
    "bad, field",
    [
        (["--objects", "2"], "object_count"),
        (["--predicates", "0"], "predicate_count"),
        (["--min-relations", "0"], "relations per scene"),
        (["--min-relations", "4", "--max-relations", "3"], "relations per scene"),
        (["--train", "-1"], "train_scenes"),
        (["--val", "-1"], "validation_scenes"),
        (["--test", "-2"], "test_scenes"),
        (["--visual-dim", "0"], "visual_dim"),
        (["--embedding-dim", "-1"], "embedding_dim"),
        (["--spurious-rate", "-1"], "spurious_rate"),
        (["--spurious-rate", "inf"], "spurious_rate"),
        (["--spurious-rate", "1e20"], "spurious_rate"),
        (["--box-jitter", "nan"], "box_jitter"),
        (["--label-flip-rate", "1.5"], "label_flip_rate"),
        (["--miss-rate", "-0.1"], "miss_rate"),
        (["--zero-shot-types", "-1"], "zero_shot_types"),
        (["--seed", "-1"], "seed"),
        (["--visual-dim", HUGE], "visual_dim"),
        (["--embedding-dim", HUGE], "embedding_dim"),
        (["--objects", HUGE], "object_count"),
        (["--predicates", HUGE], "predicate_count"),
        (["--train", HUGE], "train_scenes"),
        (["--max-relations", str(10**18)], "max_relations"),
    ],
    ids=["objects-2", "predicates-zero", "min-relations-zero", "relations-reversed",
         "train-negative", "val-negative", "test-negative", "visual-dim-zero",
         "embedding-dim-negative", "spurious-rate-negative", "spurious-rate-inf",
         "spurious-rate-above-poisson-limit",
         "box-jitter-nan", "label-flip-rate-above-one", "miss-rate-negative",
         "zero-shot-types-negative", "seed-negative", "visual-dim-huge", "embedding-dim-huge",
         "objects-huge", "predicates-huge", "train-huge", "max-relations-beyond-pairs"],
)
def test_bad_synth_arguments_are_usage_errors(capsys, tmp_path, bad, field):
    out = tmp_path / "ds"
    assert main(SMALL_SYNTH + ["--out", str(out)] + bad) == 1
    error = _single_error_line(capsys)
    assert error["category"] == "usage-error"
    assert field in error["message"]
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "bad",
    [
        ["--tasks", "relation,bogus"],
        ["--n", "50,abc"],
        ["--n", "0"],
        ["--k", "0"],
    ],
    ids=["tasks", "n-not-int", "n-zero", "k-zero"],
)
def test_bad_evaluate_arguments_are_usage_errors(workspace, capsys, monkeypatch, bad):
    from urelnet import evaluation

    def no_scoring(*args, **kwargs):
        raise AssertionError("a scene was scored before the arguments were checked")

    monkeypatch.setattr(evaluation, "score_group", no_scoring)
    code = main([
        "evaluate", "--dataset", str(workspace / "ds"),
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
    ] + bad)
    assert code == 1
    assert _single_error_line(capsys)["category"] == "usage-error"


@pytest.mark.parametrize(
    "bad",
    [
        ["--modals", "bogus"],
        ["--modals", "visual,bogus"],
        ["--transform-dim", "0"],
        ["--batch-size", "0"],
        ["--undetermined-ratio", "-1"],
        ["--decay-interval", "0"],
        ["--steps", "-1"],
        ["--steps", "0"],
        ["--epochs", "0"],
        ["--undetermined-cap", "-1"],
        ["--validation-interval", "-1"],
        ["--dc-loss-weight", "nan"],
        ["--undetermined-ratio", "nan"],
        ["--undetermined-ratio", "inf"],
        ["--undetermined-ratio=-inf"],
        ["--base-lr=-1"],
        ["--base-lr", "0"],
        ["--base-lr", "inf"],
        ["--base-lr", "nan"],
        ["--decay-rate=-2"],
        ["--decay-rate", "0"],
        ["--decay-rate", "1.5"],
        ["--decay-rate", "nan"],
        ["--seed", "-5"],
        ["--transform-dim", HUGE],
        ["--dc-hidden-dim", HUGE],
        ["--rel-hidden-dim", HUGE],
    ],
    ids=["modals", "one-modal-bogus", "transform-dim-zero", "batch-size-zero",
         "negative-ratio", "decay-interval-zero", "steps-negative", "steps-zero",
         "epochs-zero", "undetermined-cap-negative", "validation-interval-negative",
         "loss-weight-nan", "ratio-nan", "ratio-inf", "ratio-negative-inf",
         "base-lr-negative", "base-lr-zero", "base-lr-inf", "base-lr-nan",
         "decay-rate-negative", "decay-rate-zero", "decay-rate-above-one", "decay-rate-nan",
         "seed-negative", "transform-dim-huge", "dc-hidden-dim-huge", "rel-hidden-dim-huge"],
)
def test_bad_train_arguments_are_usage_errors(workspace, capsys, tmp_path, bad):
    run = tmp_path / "run"
    code = main(SMALL_TRAIN + ["--dataset", str(workspace / "ds"), "--out-dir", str(run)] + bad)
    assert code == 1
    assert _single_error_line(capsys)["category"] == "usage-error"
    assert not run.exists()


@pytest.mark.parametrize(
    "command",
    [["synth", "--objects", str(2**60 - 1)], ["train", "--transform-dim", str(2**60 - 1)],
     ["synth", "--val", str(10**18)]],
    ids=["synth-objects", "train-transform-dim", "synth-val"],
)
def test_sizes_no_array_can_hold_are_out_of_memory(workspace, capsys, tmp_path, command):
    # Each value passes its own bound, but the arrays it sizes are larger
    # than numpy can address, which numpy reports as a ValueError, or than
    # any memory holds, as the scene list synth allocates before its first
    # scene does.
    out = tmp_path / "out"
    flags = ["--dataset", str(workspace / "ds"), "--out-dir"] if command[0] == "train" else ["--out"]
    assert main(command + flags + [str(out)]) == 1
    assert _single_error_line(capsys)["category"] == "out-of-memory"
    assert not out.exists()


@pytest.mark.parametrize("size", [HUGE, str(10**18)], ids=["beyond-int64", "beyond-memory"])
def test_a_batch_no_array_can_hold_fails_at_once(workspace, tmp_path, size):
    # A child process under a wall-clock bound: a batch drawn shuffle by
    # shuffle before its array exists would reshuffle the pool for ever.
    run = tmp_path / "out" / "run"
    argv = SMALL_TRAIN + ["--dataset", str(workspace / "ds"), "--out-dir", str(run),
                          "--batch-size", size, "--steps", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(urelnet.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "urelnet.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 1
    assert child.stdout == ""
    lines = child.stderr.splitlines()
    assert len(lines) == 1, child.stderr
    assert json.loads(lines[0])["error"]["category"] == "out-of-memory"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("modals", ["", "visual,"])
def test_empty_modal_name_is_a_usage_error(workspace, capsys, tmp_path, modals):
    # An empty --modals names one empty modal; it does not mean all of them.
    run = tmp_path / "run"
    args = ["--dataset", str(workspace / "ds"), "--out-dir", str(run), "--modals", modals]
    assert main(SMALL_TRAIN + args) == 1
    assert _single_error_line(capsys) == {
        "category": "usage-error", "message": "unknown modals ['']",
    }
    assert not run.exists()


@pytest.mark.parametrize(
    "document, message",
    [
        ("[]", "expected a JSON object, got list"),
        ("3", "expected a JSON object, got int"),
        ('"x"', "expected a JSON object, got str"),
        ('{"schema_version": 1, "vocabulary": []}', "vocabulary must be a JSON object"),
        ('{"schema_version": 1, "vocabulary": {"objects": 3, "predicates": ["on"]}}',
         "lists of names"),
        ('{"schema_version": 1, "vocabulary": {"objects": ["a"], "predicates": ["on"]},'
         ' "scenes": 3}', "scenes must be a JSON list"),
        ('{"schema_version": 1, "vocabulary": {"objects": ["a"], "predicates": ["on"]},'
         ' "scenes": ["x"]}', "scene #0: expected a JSON object, got str"),
    ],
    ids=["list", "number", "string", "vocabulary-list", "objects-number", "scenes-number",
         "scene-string"],
)
def test_non_object_dataset_json_is_one_json_error_line(tmp_path, capsys, document, message):
    (tmp_path / "ds").mkdir()
    (tmp_path / "ds" / "dataset.json").write_text(document, encoding="utf-8")
    assert main(["build-stats", "--dataset", str(tmp_path / "ds")]) == 1
    error = _single_error_line(capsys)
    assert error["category"] == "validation-error"
    assert message in error["message"]


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("features_file",), 5, "features_file must be a JSON string"),
        (("embeddings_file",), 5, "embeddings_file must be a JSON string"),
        (("feature_dim",), "abc", "feature_dim must be a JSON integer"),
        (("feature_dim",), 24.7, "feature_dim must be a JSON integer"),
        (("feature_dim",), True, "feature_dim must be a JSON integer"),
        (("feature_dim",), 0, "feature_dim 0 does not match"),
        (("scenes", 0, "detections", 0, "category"), 1.5, "category must be a JSON integer"),
        (("scenes", 0, "detections", 0, "category"), True, "category must be a JSON integer"),
        (("scenes", 0, "annotations", 0, "predicate"), 1.5, "predicate must be a JSON integer"),
        (("scenes", 0, "detections", 0, "confidence"), "0.9", "confidence must be a JSON number"),
        (("scenes", 0, "detections", 0, "feature_key"), 3, "feature_key must be a JSON string"),
        (("scenes", 0, "detections", 0, "box", 1), "2", "box must be a list of 4 numbers"),
        (("scenes", 0, "image_id"), ["a"], "image_id must be a JSON string"),
        (("scenes", 0, "split"), 0, "split must be a JSON string"),
        (("scenes", 0, "width"), False, "width must be a JSON number"),
        (("scenes", 0, "width"), 10**400, "number too large for a float"),
        (("scenes", 0, "width"), 1e400, "positive and finite"),
    ],
    ids=["features-file-int", "embeddings-file-int", "feature-dim-string",
         "feature-dim-fraction", "feature-dim-bool", "feature-dim-zero", "category-fraction", "category-bool",
         "predicate-fraction", "confidence-string", "feature-key-int", "coordinate-string",
         "image-id-list", "split-int", "width-bool", "width-huge-int", "width-infinite"],
)
def test_wrong_typed_dataset_field_is_one_json_error_line(
    workspace, capsys, tmp_path, path, value, message
):
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    doc = json.loads((ds / "dataset.json").read_text(encoding="utf-8"))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    (ds / "dataset.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["build-stats", "--dataset", str(ds)]) == 1
    error = _single_error_line(capsys)
    assert error["category"] == "validation-error"
    assert message in error["message"]


@pytest.mark.parametrize(
    "bad",
    [["--k", "-1"], ["--k", "0"], ["--top", "-1"], ["--top", "0"], ["--image-id", "nope"]],
    ids=["k-negative", "k-zero", "top-negative", "top-zero", "image-id-unknown"],
)
def test_bad_predict_arguments_are_usage_errors(workspace, capsys, bad):
    code = main([
        "predict", "--dataset", str(workspace / "ds"),
        "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        "--image-id", "synth-test-0000",
    ] + bad)
    assert code == 1
    assert _single_error_line(capsys)["category"] == "usage-error"


@pytest.mark.parametrize(
    "bad",
    [["--instances", "0"], ["--instances", "-2"], ["--step", "0"], ["--step=-1e-6"],
     ["--step", "nan"], ["--step", "inf"], ["--tolerance", "0"], ["--tolerance", "nan"],
     ["--tolerance", "inf"], ["--seed", "-1"]],
    ids=["instances-zero", "instances-negative", "step-zero", "step-negative", "step-nan",
         "step-inf", "tolerance-zero", "tolerance-nan", "tolerance-inf", "seed-negative"],
)
def test_bad_gradcheck_arguments_are_usage_errors(capsys, bad):
    assert main(["gradcheck", "--instances", "1"] + bad) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any instance ran
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["category"] == "usage-error"


def test_gradcheck_huge_step_fails_without_floating_point_warnings(capsys):
    # The loss overflows at this step; the verdict is FAIL, with no warning.
    # Some blocks' differences are NaN, and a NaN error is the worst.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gradcheck", "--instances", "1", "--step", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "instance 0: max relative error nan [FAIL]\n"
        "  worst block: fuse.visual.weight\n"
        "gradcheck: 0/1 instances passed (worst nan, tolerance 1.0e-04)\n"
    )


def test_gradcheck_summary_keeps_a_nan_instance_as_the_worst(capsys, monkeypatch):
    reports = iter([{"a": 2e-5}, {"a": math.nan}, {"a": 3e-5}])

    def fake_check(loss_fn, params, analytic, tolerance, step):
        return GradientCheckReport(next(reports), tolerance)

    monkeypatch.setattr(urelnet.cli, "gradient_check", fake_check)
    assert main(["gradcheck", "--instances", "3"]) == 1
    assert capsys.readouterr().out == (
        "instance 0: max relative error 2.000e-05 [pass]\n"
        "instance 1: max relative error nan [FAIL]\n"
        "  worst block: a\n"
        "instance 2: max relative error 3.000e-05 [pass]\n"
        "gradcheck: 2/3 instances passed (worst nan, tolerance 1.0e-04)\n"
    )


@pytest.fixture(scope="module")
def huge_rate_checkpoint(workspace):
    # One step at a huge but finite rate leaves parameters near 1e300, so
    # scoring with them overflows; training itself does not.
    run = workspace / "huge-rate"
    args = ["train", "--steps", "1", "--base-lr", "1e300", "--transform-dim", "12",
            "--dc-hidden-dim", "6", "--rel-hidden-dim", "12", "--seed", "2"]
    assert main(args + ["--dataset", str(workspace / "ds"), "--out-dir", str(run)]) == 0
    return run / "checkpoint.bin"


@pytest.mark.parametrize(
    "command",
    [["evaluate", "--tasks", "relation,predicate"],
     ["predict", "--image-id", "synth-test-0000", "--top", "5"]],
    ids=["evaluate", "predict"],
)
def test_overflowing_scores_are_divergence_without_warnings(
    workspace, huge_rate_checkpoint, capsys, command
):
    args = command + ["--dataset", str(workspace / "ds"), "--checkpoint", str(huge_rate_checkpoint)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["category"] == "training-divergence"
    assert error["message"].startswith("non-finite relation scores for image ")


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError("Unable to allocate 16.0 TiB for an array"),
      "Unable to allocate 16.0 TiB for an array"),
     (MemoryError(), "memory allocation failed")],
    ids=["numpy-message", "no-message"],
)
def test_failed_allocation_is_one_json_error_line(capsys, tmp_path, monkeypatch, exc, message):
    # Raised, never allocated: the real request would be about 16 TB.
    from urelnet import cli

    def no_memory(config):
        raise exc

    monkeypatch.setattr(cli, "generate_synthetic", no_memory)
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--visual-dim", "100000000000"]) == 1
    assert _single_error_line(capsys) == {"category": "out-of-memory", "message": message}
    assert not out.exists()


# Train's float flags, each also given NaN, the infinities, zeros, negative
# and huge values. Integer flags are left out here: a huge dimension or batch
# size is a real request for memory, so ``test_size_flags_fuzz`` runs them in
# a child process with a capped address space.
_FLOAT_FLAGS = ("--base-lr", "--decay-rate", "--undetermined-ratio",
                "--dc-undetermined-weight", "--rel-undetermined-weight", "--dc-loss-weight")
_EDGE_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300, -1e300, 5e-324, 1.0, 0.5]
)


@settings(max_examples=200, deadline=None)
@given(flags=st.dictionaries(
    st.sampled_from(_FLOAT_FLAGS), _EDGE_FLOATS | st.floats(), min_size=1, max_size=3
))
def test_train_numeric_flags_fuzz(workspace, flags):
    # Every run exits 0, or exits 1 with exactly one JSON error line. A
    # warning would print before that line, so warnings fail the test.
    args = ["train", "--steps", "1", "--transform-dim", "4", "--dc-hidden-dim", "3",
            "--rel-hidden-dim", "4", "--dataset", str(workspace / "ds")]
    args += [f"{flag}={value!r}" for flag, value in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(dir=workspace) as run, warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args + ["--out-dir", run])
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
        assert "checkpoint" in json.loads(out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])["error"]) == {"category", "message"}


# The size flags of train and synth. A value is small, negative, or beyond
# any memory; a value in between is a real request for time, which no
# wall-clock bound can tell from a hang.
_SIZE_FLAGS = {
    "train": ("--batch-size", "--transform-dim", "--dc-hidden-dim", "--rel-hidden-dim",
              "--epochs", "--decay-interval", "--validation-interval", "--undetermined-cap"),
    "synth": ("--objects", "--predicates", "--train", "--val", "--test", "--min-relations",
              "--max-relations", "--visual-dim", "--embedding-dim", "--zero-shot-types"),
}
_SIZES = st.integers(-2, 4) | st.integers(2**40, 10**20)
# The child's address space: far above a tiny run's, far below 2**40 bytes.
_CHILD_MEMORY = 2**31
_LIMITED_MAIN = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({_CHILD_MEMORY}, {_CHILD_MEMORY}))\n"
    "from urelnet.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("command", sorted(_SIZE_FLAGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_size_flags_fuzz(workspace, command, data):
    # Each run is a child process with a capped address space, under a
    # wall-clock bound. It exits 0 with one JSON line on stdout, or 1 with
    # one JSON error line on stderr; it never prints a traceback.
    flags = data.draw(st.dictionaries(st.sampled_from(_SIZE_FLAGS[command]), _SIZES,
                                      min_size=1, max_size=3))
    if command == "train":
        args = ["train", "--steps", "1", "--transform-dim", "4", "--dc-hidden-dim", "3",
                "--rel-hidden-dim", "4", "--dataset", str(workspace / "ds")]
    else:
        args = ["synth", "--train", "3", "--val", "1", "--test", "2",
                "--visual-dim", "8", "--embedding-dim", "4"]
    args += [f"{flag}={value}" for flag, value in flags.items()]
    env = dict(os.environ, PYTHONPATH=str(Path(urelnet.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(dir=workspace) as scratch:
        out = ["--out-dir" if command == "train" else "--out", str(Path(scratch) / "out")]
        child = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *args, *out], env=env,
                               capture_output=True, text=True, timeout=30)
    assert child.returncode in (0, 1), child.stderr
    if child.returncode == 0:
        assert child.stderr == ""
        assert len(child.stdout.splitlines()) == 1
        json.loads(child.stdout)
    else:
        assert child.stdout == ""
        lines = child.stderr.splitlines()
        assert len(lines) == 1, child.stderr
        assert set(json.loads(lines[0])["error"]) == {"category", "message"}


def test_unwritable_output_paths_are_output_errors(workspace, capsys, tmp_path, monkeypatch):
    from urelnet import cli

    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    assert main(SMALL_SYNTH + ["--out", str(taken)]) == 1
    assert _single_error_line(capsys)["category"] == "output-error"
    missing = tmp_path / "nonexistent" / "x.json"
    assert main(["build-stats", "--dataset", str(workspace / "ds"), "--out", str(missing)]) == 1
    assert _single_error_line(capsys)["category"] == "output-error"

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the output directory was checked")

    monkeypatch.setattr(cli, "run_training", no_training)
    code = main(SMALL_TRAIN + ["--dataset", str(workspace / "ds"), "--out-dir", str(taken)])
    assert code == 1
    error = _single_error_line(capsys)
    assert error["category"] == "output-error"
    assert str(taken) in error["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--out", "y", "--objects", "abc"],
         "urelnet synth: argument --objects: invalid int value: 'abc'"),
        (["train", "--dataset", "D", "--out-dir", "R", "--task", "bogus"],
         "urelnet train: argument --task: invalid choice: 'bogus'"),
        (["predict", "--dataset", "D", "--checkpoint", "C"],
         "urelnet predict: the following arguments are required: --image-id"),
    ],
    ids=["bad-type", "bad-choice", "missing-flag"],
)
def test_argparse_rejections_are_one_json_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    # argparse's own rejections follow the error contract: exit 1, one JSON
    # line on stderr, nothing written.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    error = _single_error_line(capsys)
    assert error["category"] == "usage-error"
    assert error["message"].startswith(message)
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["synth", "--help"])
    assert exit_info.value.code == 0
    assert "--objects" in capsys.readouterr().out
