import ast
import pathlib
import types

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
