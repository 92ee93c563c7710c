"""Every library attribute that perfbench/tracer.py patches still exists.

`perfbench/run.py --trace 1` wraps these functions and methods by name; a
rename or deletion in minflux would otherwise surface only there.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
TARGETS = [(obj, attr) for _, obj, attr, _ in tracer.SPANS] + [
    (obj, attr) for _, _, obj, attr in tracer.TALLIES
]


@pytest.mark.parametrize(
    "owner, attr", TARGETS, ids=[f"{o.__name__}.{a}" for o, a in TARGETS]
)
def test_patched_attribute_resolves(owner, attr):
    # the tracer saves and restores owner.__dict__[attr], so the attribute
    # must be the owner's own, not inherited
    assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"

