"""Outside-in layer tracer for the conepath benchmark.

The tracer replaces callables at the names their callers look up (a
module attribute, or a method on a class) with timed wrappers, and puts
the originals back afterwards.  Nothing under ``src/`` is edited: a
traced solve runs the same code as an untraced one, plus the wrappers.

Each wrapper records a span.  Spans nest through a stack, so a span's
self time is its duration minus the time covered by the spans it
encloses.  Totals are kept per span name, with a call count.

A target that a later refactor renames or removes is listed in
``Tracer.absent`` instead of raising.
"""

import importlib
import time
from collections import defaultdict


class Tracer:
    """Per-name self time and call counts, from a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.absent = []
        self._stack = []  # time covered by children, one entry per open span
        self._patches = []

    def reset(self):
        """Drop the totals; installed wrappers stay installed."""
        self.self_s.clear()
        self.calls.clear()

    def wrap(self, name, fn):
        """Timed version of ``fn``.

        ``name`` is a span name, or a callable that derives it from the
        call's arguments (used to tag cone kernels with the block kind).
        """
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        name_of = name if callable(name) else None

        def timed(*args, **kwargs):
            key = name_of(*args, **kwargs) if name_of else name
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self_s[key] += elapsed - children
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed

        timed.__wrapped__ = fn
        return timed

    def patch(self, target, make):
        """Replace ``module:attr`` or ``module:Class.attr`` by ``make(original)``."""
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch_timed(self, target, name):
        self.patch(target, lambda fn: self.wrap(name, fn))

    def restore(self):
        """Put every patched name back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class _FactorProxy:
    """A SuperLU factor whose ``solve`` is timed; everything else delegates."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._factor, name)


class _SparseShim:
    """Stand-in for ``scipy.sparse`` inside ``conepath.ipm``.

    ``bmat`` and ``block_diag`` (KKT assembly) are timed; every other
    attribute is the real module's.
    """

    def __init__(self, tracer, module):
        self._module = module
        self.bmat = tracer.wrap("ipm.kkt_assembly", module.bmat)
        self.block_diag = tracer.wrap("ipm.kkt_assembly", module.block_diag)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _kind_name(label):
    """Span name ``cones.<kind>.<label>`` read from the ConeSpec argument."""
    return lambda spec, *args, **kwargs: f"cones.{spec.kind.value}.{label}"


def _smooth_name(spec, *args, **kwargs):
    return f"smoothing.{spec.kind.value}.smooth"


# Calls the benchmark driver makes itself, through module attributes.
DRIVER_TARGETS = (
    ("conepath.problems:synth_samples", "problems.generate"),
    ("conepath.problems:synth_returns", "problems.generate"),
    ("conepath.problems:gen_svm_l1", "problems.generate"),
    ("conepath.problems:gen_portfolio", "problems.generate"),
    ("conepath.problems:gen_hmcr", "problems.generate"),
    ("conepath.fileio:write_problem", "fileio.write"),
    ("conepath.fileio:read_problem", "fileio.read"),
    ("conepath.ipm:cold_start", "ipm.cold_start"),
    ("conepath.ipm:warm_start", "ipm.warm_start"),
    ("conepath.ipm:solve", "ipm.solve"),
    ("conepath.warmstart:warmstart", "warmstart.construct"),
)


def install_layers(tracer):
    """Wrap the driver's calls and the layers ``conepath.ipm`` calls into."""
    for target, name in DRIVER_TARGETS:
        tracer.patch_timed(target, name)

    def make_splu(splu):
        factor = tracer.wrap("ipm.kkt_factor", splu)

        def timed_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _FactorProxy(lu, tracer.wrap("ipm.kkt_solve", lu.solve))

        return timed_splu

    tracer.patch("conepath.ipm:splu", make_splu)
    tracer.patch("conepath.ipm:sp", lambda module: _SparseShim(tracer, module))
    for attr, label in (
        ("barrier_gradient", "gradient"),
        ("barrier_hessian_inverse", "hessian_inverse"),
        ("conjugate_gradient", "conjugate_gradient"),
    ):
        tracer.patch(f"conepath.ipm:{attr}", lambda fn, l=label: tracer.wrap(_kind_name(l), fn))
    tracer.patch_timed("conepath.ipm:check_termination", "ipm.termination")
    tracer.patch_timed("conepath.cones:ConeProduct.is_interior", "cones.interior_test.primal")
    tracer.patch_timed("conepath.cones:ConeProduct.is_interior_dual", "cones.interior_test.dual")
    tracer.patch("conepath.warmstart:smooth", lambda fn: tracer.wrap(_smooth_name, fn))
    return tracer
