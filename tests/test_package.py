import ast
import pathlib
import re
import types

import pytest

import lrskel


def test_public_names_are_the_pipeline_entry_points():
    # The names the benchmark and the README example call, plus the loaders
    # that read back what the exported savers write; everything else is
    # imported from its submodule.
    public = {name for name, value in vars(lrskel).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "ModelConfig", "DatasetSpec", "generate_dataset", "save_dataset",
        "load_dataset", "build_model", "TrainConfig", "train", "evaluate",
        "save_model", "load_model", "compress_model", "parse_plan",
        "count_params",
    }


def _relative_imports():
    """(module, imported module, imported name) of every ``from . import``
    and ``from .x import`` in the package's source."""
    src = pathlib.Path(lrskel.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    yield path.stem, node.module, alias.name


def test_no_private_name_crosses_a_module_boundary():
    assert [imp for imp in _relative_imports() if imp[2].startswith("_")] == []


def test_compression_and_fine_tuning_are_siblings():
    # Both build on ``model``; compression imports nothing from fine-tuning.
    imports = list(_relative_imports())
    assert imports
    assert [imp for imp in imports if imp[0] == "compress" and
            (imp[1] == "finetune" or imp[2] == "finetune")] == []


def test_only_linalg_imports_numbers():
    # Every integer and number in the package is admitted by linalg's rules,
    # so no other module needs the numeric tower.
    src = pathlib.Path(lrskel.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.add(path.stem)
    assert importers == {"linalg"}


_MODEL_FIELDS = dict(joints=1, frames=1, d_model=4, heads=1, blocks=1, classes=2, seed=0)
_COUNTS = (
    [(lrskel.DatasetSpec, {}, name) for name in
     ("classes", "train_per_class", "test_per_class", "frames", "joints", "seed")]
    + [(lrskel.ModelConfig, _MODEL_FIELDS, name) for name in _MODEL_FIELDS]
    + [(lrskel.TrainConfig, {"base_lr": 0.1, "epochs": 5}, name) for name in
       ("epochs", "batch_size", "warmup_epochs", "seed", "milestones")]
)


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["2.0", "True", "'2'"])
@pytest.mark.parametrize("config, fields, name", _COUNTS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in _COUNTS])
def test_every_config_count_has_one_integer_rule(config, fields, name, value):
    # A milestone is a count too, so (2.0,) fails as epochs=2.0 does.
    label, given = ("milestones entry", (value,)) if name == "milestones" else (name, value)
    with pytest.raises(ValueError, match=re.escape(f"{label} must be an integer, got {value!r}")):
        config(**{**fields, name: given})
