"""The public surface: exported names, solver settings, no hidden inputs."""

import dataclasses
from pathlib import Path

import conepath
from conepath import Settings


def test_public_surface():
    exported = {}
    exec(f"from conepath import {', '.join(conepath.__all__)}", exported)
    assert all(name in exported for name in conepath.__all__)
    # a new solver knob has to change this test on purpose
    assert tuple(f.name for f in dataclasses.fields(Settings)) == ("eps", "max_iters")
    for path in sorted(Path(conepath.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name
