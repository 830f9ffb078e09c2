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
