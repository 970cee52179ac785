"""benchmarks/exact.py: its hashes repeat for a seed and all move with
the seed."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_exact():
    spec = importlib.util.spec_from_file_location(
        "exact", os.path.join(ROOT, "benchmarks", "exact.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hashes_repeat_for_a_seed_and_move_with_it(tmp_path):
    exact = load_exact()
    first, again, other = (
        exact.run(seed, dropout=True, work_dir=str(tmp_path / name))
        for seed, name in ((1, "first"), (1, "again"), (2, "other")))
    assert sorted(first) == sorted(exact.ARTEFACTS)
    assert first == again
    for name in exact.ARTEFACTS:
        assert first[name] != other[name], name
