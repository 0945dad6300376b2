"""The benchmark's tracer reaches lgnet functions by module and attribute name.

A rename or a moved import would leave ``perfbench/tracing.py`` wrapping
nothing, or fail only inside a traced benchmark run. These checks read the
tracer's tables and resolve every site against the current package.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from source, so no bytecode cache is written under perfbench/
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
FUNCTION_SITES = sorted({site for sites, _ in tracing.FUNCTIONS.values() for site in sites})


@pytest.mark.parametrize("module_name, attr", FUNCTION_SITES, ids=[".".join(s) for s in FUNCTION_SITES])
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, cls_name, attr", sorted(tracing.METHODS.values()),
                         ids=[".".join(s) for s in sorted(tracing.METHODS.values())])
def test_traced_method_resolves(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name)
    # the tracer replaces the attribute in the class's own namespace
    assert attr in cls.__dict__


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A tiny dataset, its proposal files, an untrained stage-1 checkpoint
    and an untrained stage-2 one."""
    import numpy as np

    from lgnet.backbone import init_backbone_params, preset_config, save_stage1_checkpoint
    from lgnet.cli import main
    from lgnet.training import GlobalModel, TrainConfig, build_lg_model, save_stage2_checkpoint

    root = tmp_path_factory.mktemp("sites")
    data, props = root / "data", root / "props"
    stage1, model = root / "stage1.lgn", root / "stage2.lgn"
    argv = ["gen-data", "--out", data, "--seed", "3", "--n-train", "6", "--n-val", "1", "--n-test", "3"]
    assert main([str(a) for a in argv]) == 0
    bb = preset_config("base", 8)
    params = init_backbone_params(bb, np.random.default_rng(0), trainable=True)
    save_stage1_checkpoint(stage1, bb, params)
    save_stage2_checkpoint(model, build_lg_model(GlobalModel(bb, params), TrainConfig(top_k_proposals=12)))
    commands = {
        "propose": ["propose", "--images", data, "--out", props, "--top-k", "10"],
        "eval": ["eval", "--model", model, "--data", data, "--proposals", props],
        "train-stage2": ["train-stage2", "--data", data, "--model", stage1, "--proposals", props,
                         "--out", root / "trained.lgn", "--epochs", "2", "--batch-size", "6",
                         "--top-k", "10"],
    }
    commands = {name: [str(a) for a in argv] for name, argv in commands.items()}
    assert main(commands["propose"]) == 0
    return commands


# train-stage2 above runs 2 epochs of one batch of 6 images, which SGD
# takes in chunks of 4 and 2, and validates 1 image as one chunk per epoch
SGD_CHUNKS, GRAPH_CHUNKS = 2 * 2, 2 * (2 + 1)

# the sites layers are timed and counted at, the command path that must
# call each, and how often: once per image (10 in all splits, 3 in the
# test split) or once per chunk of images
CALLED_SITES = [
    ("lgnet.proposals", "top_k", "propose", 10),
    ("lgnet.cli", "save_proposals", "propose", 10),
    ("lgnet.training", "load_proposals", "eval", 3),
    ("lgnet.training", "top_k", "eval", 3),
    # the frozen half takes the 3 test images as one chunk
    ("lgnet.training", "forward_global", "eval", 1),
    ("lgnet.training", "class_activation_maps", "eval", 3),
    ("lgnet.training", "affinity_map", "eval", 3),
    ("lgnet.training", "normalize_affinity", "eval", 3),
    ("lgnet.training", "forward_local_stem", "train-stage2", GRAPH_CHUNKS),
    ("lgnet.training", "roi_max_pool_batch", "train-stage2", GRAPH_CHUNKS),
    ("lgnet.training", "guided_fusion", "train-stage2", GRAPH_CHUNKS),
    ("lgnet.training", "weighted_sigmoid_ce_node", "train-stage2", SGD_CHUNKS),
]


@pytest.mark.parametrize("module_name, attr, command, expected", CALLED_SITES,
                         ids=[f"{m}.{a}-{c}" for m, a, c, _ in CALLED_SITES])
def test_traced_site_is_called_on_its_path(cli_workspace, monkeypatch, module_name, attr, command, expected):
    from lgnet import training
    from lgnet.cli import main

    assert (module_name, attr) in FUNCTION_SITES
    # a worker process would count in its own copy, as the tracer would
    monkeypatch.setattr(training, "_cores", lambda: 1)
    module = importlib.import_module(module_name)
    original, calls = getattr(module, attr), []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    assert main(cli_workspace[command]) == 0
    assert len(calls) == expected


# hooks whose sites no command reaches: the proposal path calls neither
# generate_candidates nor nms by these names, and training calls
# activation_boxes, not activation_box
UNREACHED_HOOKS = {"proposals.generate_candidates", "proposals.nms", "cam.activation_box"}


def test_tracer_counts_on_the_eval_and_train_stage2_paths(cli_workspace, monkeypatch):
    """The benchmark's tracer, installed as it runs, reads the counts its
    per-layer metrics report off the arguments and results of the
    functions they wrap, on both commands."""
    from lgnet import training
    from lgnet.cli import main

    monkeypatch.setattr(training, "_cores", lambda: 1)  # the tracer sees the calling process only
    ran = set()
    for name, (sites, hook) in tracing.FUNCTIONS.items():
        if hook is not None:
            def recorded(*args, _name=name, _hook=hook):
                ran.add(_name)
                return _hook(*args)

            monkeypatch.setitem(tracing.FUNCTIONS, name, (sites, recorded))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command in ("eval", "train-stage2"):
            assert main(cli_workspace[command]) == 0
    finally:
        tracer.uninstall()
    hooked = {name for name, (_, hook) in tracing.FUNCTIONS.items() if hook is not None}
    assert ran == hooked - UNREACHED_HOOKS
    counted = {name for _, name in tracer.counts}
    assert {"tensor.roi_boxes", "backbone.forward_global_images", "guidance.zero_affinity_rows"} <= counted
    assert tracer.counts["setup", "tensor.roi_boxes"] > 0
    assert tracer.counts["setup", "backbone.forward_global_images"] > 0
