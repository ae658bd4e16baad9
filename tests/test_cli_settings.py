"""The CLI states no setting of its own: each setting flag's ``dest`` is the
name of the field or parameter it sets, and an unset flag leaves the config
class's default in place."""

import argparse
import functools
from dataclasses import fields, replace
from inspect import signature

import pytest

from urelnet import cli
from urelnet.dataset import save_dataset
from urelnet.evaluation import predict_scene
from urelnet.model import ModelConfig
from urelnet.synthetic import NOISE_FIELDS, SyntheticConfig, generate_synthetic
from urelnet.training import RunConfig, Schedule, make_run_config, run_evaluation


def _subparser(command):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


def _names(target):
    if isinstance(target, type):
        return {f.name for f in fields(target)}
    return {p.name for p in signature(target).parameters.values() if p.default is not p.empty}


# The settings each command passes on, and the flags it reads itself.
COMMANDS = {
    "synth": ((SyntheticConfig,), {"out", "no_noise"}),
    "train": ((ModelConfig, RunConfig, Schedule), {"dataset", "out_dir", "preset"}),
    "evaluate": ((run_evaluation,), {"dataset", "checkpoint", "out"}),
    "predict": ((predict_scene,), {"dataset", "checkpoint", "image_id", "top", "out"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_setting_flag_names_a_field_and_states_no_default(command):
    targets, own = COMMANDS[command]
    settings = set().union(*map(_names, targets))
    actions = [a for a in _subparser(command)._actions if a.dest != "help"]
    dests = {a.dest for a in actions}
    assert own <= dests
    assert dests - own <= settings, f"{command}: flags setting no field: {dests - own - settings}"
    for action in actions:
        if action.dest not in own:
            assert action.default is argparse.SUPPRESS, action.option_strings


def test_noise_fields_are_synthetic_config_fields():
    assert set(NOISE_FIELDS) <= _names(SyntheticConfig)


class _Captured(Exception):
    pass


@pytest.fixture
def capture(monkeypatch):
    """Replace ``cli.<name>`` by a stub that records its arguments and stops.
    The stub keeps the function's signature, which ``cli._given`` reads."""
    seen = {}

    def install(name):
        @functools.wraps(getattr(cli, name))
        def stub(*args, **kwargs):
            seen[name] = (args, kwargs)
            raise _Captured

        monkeypatch.setattr(cli, name, stub)

    return install, seen


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    config = SyntheticConfig(train_scenes=2, test_scenes=1, visual_dim=5, embedding_dim=3, seed=2)
    root = tmp_path_factory.mktemp("settings") / "ds"
    save_dataset(generate_synthetic(config), root)
    return root, ModelConfig(
        predicate_count=config.predicate_count, object_count=config.object_count,
        visual_dim=config.visual_dim, embedding_dim=config.embedding_dim,
    )


def _run(argv):
    with pytest.raises(_Captured):
        cli.main(argv)


def test_synth_defaults_are_synthetic_config_defaults(capture, tmp_path):
    install, seen = capture
    install("generate_synthetic")
    _run(["synth", "--out", str(tmp_path / "ds")])
    assert seen["generate_synthetic"][0] == (SyntheticConfig(),)


def test_synth_flags_set_their_fields(capture, tmp_path):
    install, seen = capture
    install("generate_synthetic")
    _run(["synth", "--out", str(tmp_path / "ds"), "--objects", "9", "--val", "3",
          "--box-jitter", "0.2", "--no-noise", "--seed", "4"])
    expected = SyntheticConfig(object_count=9, validation_scenes=3, seed=4,
                               **dict.fromkeys(NOISE_FIELDS, 0.0))
    assert seen["generate_synthetic"][0] == (expected,)


def test_train_defaults_are_run_config_defaults(capture, tiny_dataset, tmp_path):
    root, dims = tiny_dataset
    install, seen = capture
    install("run_training")
    _run(["train", "--dataset", str(root), "--out-dir", str(tmp_path / "run")])
    assert seen["run_training"][0][1] == make_run_config(dims)


def test_train_flags_set_their_fields(capture, tiny_dataset, tmp_path):
    root, dims = tiny_dataset
    install, seen = capture
    install("run_training")
    _run(["train", "--dataset", str(root), "--out-dir", str(tmp_path / "run"),
          "--task", "predicate", "--schedule", "vg", "--base-lr", "0.01", "--im",
          "--fusion", "concatenating", "--dc-feed", "hidden", "--modals", "spatial,visual",
          "--transform-dim", "6", "--undetermined-cap", "5", "--steps", "30", "--seed", "3"])
    model = replace(dims, im_mode=True, fusion_mode="concatenating", dc_feed="hidden",
                    enabled_modals=("visual", "spatial"), transform_dim=6)
    schedule = Schedule(base_lr=0.01, decay_rate=0.7, decay_interval=35000)
    expected = make_run_config(model, task="predicate", schedule=schedule,
                               per_scene_undetermined_cap=5, steps=30, seed=3)
    assert seen["run_training"][0][1] == expected


def test_evaluate_passes_only_given_options(capture, tiny_dataset, monkeypatch):
    root, _ = tiny_dataset
    install, seen = capture
    install("run_evaluation")
    monkeypatch.setattr(cli, "load_model", lambda path: None)
    base = ["evaluate", "--dataset", str(root), "--checkpoint", "unused"]
    _run(base)
    assert seen["run_evaluation"][1] == {}
    _run(base + ["--tasks", "phrase,relation", "--n", "20", "--k", "2", "--zero-shot",
                 "--macro", "--split", "train"])
    assert seen["run_evaluation"][1] == dict(
        tasks=("phrase", "relation"), n_values=(20,), k=2, zero_shot=True,
        macro_average=True, split="train",
    )


@pytest.mark.parametrize(
    "flags, options", [([], {}), (["--task", "phrase", "--k", "3"], dict(task="phrase", k=3))]
)
def test_predict_passes_only_given_options(flags, options):
    args = cli.build_parser().parse_args(
        ["predict", "--dataset", "d", "--checkpoint", "c", "--image-id", "i"] + flags
    )
    assert cli._given(args, predict_scene) == options
