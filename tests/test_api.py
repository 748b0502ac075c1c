"""The public surface: exported names, solver settings, no hidden inputs,
and the names the benchmark tracer wraps."""

import dataclasses
import importlib.util
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


def test_benchmark_tracer_finds_every_target():
    # the benchmark wraps names it looks up in conepath's modules; a
    # refactor that moves one away would silently zero a per-layer metric
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    with tracer_mod.Tracer() as tracer:
        tracer_mod.install_layers(tracer)
        assert tracer.absent == []
