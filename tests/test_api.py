"""The public surface: exported names, solver settings, no hidden inputs,
and the names the benchmark tracer wraps."""

import dataclasses
import importlib.util
from pathlib import Path

import conepath
from conepath import Settings, ipm
from conepath.problems import gen_hmcr, gen_portfolio, synth_returns
from conepath.warmstart import PreviousSolution, proximity, warmstart


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
        # the per-kind span names are read from the ConeSpec a traced call
        # receives, so they only show whether the kernels get one at run time.
        # solve reads grad f(s) from the scaling kernel, so ipm.barrier_gradient
        # is reached through the warmstart's proximity (ipm.block_proximity)
        for problem in (
            gen_hmcr(synth_returns(4, 8, 0), 5e-4, 3.0, 0.9),
            gen_portfolio(synth_returns(6, 30, 0), 5e-4),
        ):
            report = ipm.solve(problem, ipm.cold_start(problem))
            ws = warmstart(PreviousSolution(*report.solution, problem=problem), problem.cones)
            proximity(ws, problem.cones)
            ipm.solve(problem, ipm.warm_start(problem, ws))
        names = set(tracer.calls)
    for kind in ("nonneg", "soc", "pow"):
        for label in ("gradient", "hessian_inverse", "conjugate_gradient"):
            assert f"cones.{kind}.{label}" in names
        assert f"smoothing.{kind}.smooth" in names
    assert not any(name.startswith("cones.zero.") for name in names)
    # the KKT layers: one assembly per solve, then every factorization and solve
    assert {"ipm.kkt_assembly", "ipm.kkt_factor", "ipm.kkt_solve"} <= names
