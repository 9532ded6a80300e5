"""Every hypothesis test is named so that pytest collects it."""

import importlib
from pathlib import Path

from hypothesis import is_hypothesis_test


def test_every_hypothesis_test_is_collected():
    uncollected = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        uncollected += [f"{path.name}::{name}" for name, obj in vars(module).items()
                        if is_hypothesis_test(obj) and not name.startswith("test")]
    assert uncollected == []
