"""Determinism rules: hidden entropy and RNG-discipline violations.

The sweep engine's bit-identical-results guarantee (``docs/parallelism.md``)
holds only while every kernel is a pure function of ``(params, seeds)``.
These rules statically reject the ways that purity has historically been
broken: legacy global-state numpy RNG calls, unseeded generators constructed
outside the blessed seeding modules, stdlib ``random``/wall-clock reads
inside kernel packages, and functions that accept an ``rng`` yet construct
their own generator instead of threading the one they were given.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from repro.analysis.registry import Rule, register
from repro.analysis.source import KERNEL_PACKAGES, ModuleSource
from repro.analysis.violations import Severity, Violation

#: Modules allowed to construct unseeded generators: the two RNG plumbing
#: points every other component is supposed to thread generators through.
RNG_PLUMBING_MODULES = frozenset({"repro.runtime.seeding", "repro.utils.rng"})

#: numpy.random attributes that are part of the *modern* Generator API and
#: therefore fine to reference; everything else on ``numpy.random`` is the
#: legacy global-state (or legacy RandomState) surface.
_MODERN_NP_RANDOM: Set[str] = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Canonical dotted paths that read wall-clock or date state.  Monotonic
#: duration clocks (``perf_counter``/``process_time``/``monotonic``) are
#: deliberately not listed: they cannot leak absolute time into results
#: and are what the tracer and progress meter legitimately use.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Generator constructors a function holding an ``rng`` parameter must not
#: call (the rng must be threaded, not re-derived).
_GENERATOR_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
})


def _resolved_call(src: ModuleSource, node: ast.Call) -> Optional[str]:
    """Canonical dotted path of a call's callee, or ``None``."""
    return src.imports.resolve(node.func)


@register
class LegacyNumpyRandom(Rule):
    """Ban ``np.random.seed`` and the rest of the legacy RNG surface."""

    id = "DET001"
    family = "determinism"
    severity = Severity.ERROR
    summary = (
        "legacy numpy.random.* global-state call (seed/rand/randint/...); "
        "use a threaded numpy.random.Generator"
    )

    def check(self, src: ModuleSource) -> Iterator:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _resolved_call(src, node)
            if path is None or not path.startswith("numpy.random."):
                continue
            attr = path[len("numpy.random."):]
            # only flag direct attributes of numpy.random: a method call on
            # a Generator (rng.normal) never resolves to numpy.random.*
            if "." in attr or attr in _MODERN_NP_RANDOM:
                continue
            yield self.violation(
                src, node,
                f"call to legacy global-state numpy.random.{attr}(); "
                f"thread a numpy.random.Generator instead",
            )


@register
class UnseededDefaultRng(Rule):
    """Unseeded ``default_rng()`` anywhere but the RNG plumbing modules."""

    id = "DET002"
    family = "determinism"
    severity = Severity.ERROR
    summary = (
        "unseeded default_rng() outside repro.runtime.seeding / "
        "repro.utils.rng; derive seeds through the seeding module"
    )

    def check(self, src: ModuleSource) -> Iterator:
        if src.module in RNG_PLUMBING_MODULES:
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if _resolved_call(src, node) != "numpy.random.default_rng":
                continue
            if node.args or any(kw.arg == "seed" for kw in node.keywords):
                continue
            yield self.violation(
                src, node,
                "unseeded default_rng() pulls OS entropy; derive the stream "
                "from repro.runtime.seeding (or accept an rng argument)",
            )


@register
class StdlibRandomInKernel(Rule):
    """Stdlib ``random`` has process-global state; ban it in kernels."""

    id = "DET003"
    family = "determinism"
    severity = Severity.ERROR
    summary = (
        "stdlib random.* used inside a kernel package "
        "(phy/channel/mac/sim/core/radio); use the threaded numpy Generator"
    )

    def check(self, src: ModuleSource) -> Iterator:
        if not src.in_package(*KERNEL_PACKAGES):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _resolved_call(src, node)
            if path is None:
                continue
            if path == "random" or path.startswith("random."):
                yield self.violation(
                    src, node,
                    f"stdlib {path}() shares hidden global state across the "
                    f"process; kernels must draw from their rng parameter",
                )


@register
class WallClockInKernel(Rule):
    """Wall-clock reads make kernel output depend on when it ran."""

    id = "DET004"
    family = "determinism"
    severity = Severity.ERROR
    summary = (
        "wall-clock read (time.time/datetime.now/...) inside a kernel "
        "package; use perf_counter for durations, params for timestamps"
    )

    def check(self, src: ModuleSource) -> Iterator:
        if not src.in_package(*KERNEL_PACKAGES):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _resolved_call(src, node)
            if path in _WALL_CLOCK_CALLS:
                yield self.violation(
                    src, node,
                    f"{path}() reads the wall clock inside a kernel package; "
                    f"durations belong to time.perf_counter(), absolute "
                    f"times belong in explicit parameters",
                )


class _RngFunctionVisitor(ast.NodeVisitor):
    """Collects generator constructions inside functions taking ``rng``."""

    def __init__(self, rule: "RederivedRng", src: ModuleSource) -> None:
        self.rule = rule
        self.src = src
        self.hits: List[Violation] = []

    def _check_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        args = node.args
        names = {
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }
        if "rng" in names:
            self._scan_body(node)
        # nested functions are visited on their own terms either way
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    visit_FunctionDef = _check_function
    visit_AsyncFunctionDef = _check_function

    def _scan_body(self, func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        """Flag generator constructions in ``func``, skipping nested defs."""
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a nested def is scanned by its own visit
            if isinstance(node, ast.Call):
                path = self.src.imports.resolve(node.func)
                if path in _GENERATOR_CONSTRUCTORS:
                    self.hits.append(
                        self.rule.violation(
                            self.src, node,
                            f"function takes an `rng` parameter but builds "
                            f"its own generator via {path}(); thread the "
                            f"rng it was given (ensure_rng(rng) to coerce)",
                        )
                    )
            stack.extend(ast.iter_child_nodes(node))


@register
class RederivedRng(Rule):
    """A function given an ``rng`` must use it, not re-derive its own."""

    id = "RNG001"
    family = "rng"
    severity = Severity.ERROR
    summary = (
        "function with an `rng` parameter constructs its own generator; "
        "rng streams must be threaded, not re-derived"
    )

    def check(self, src: ModuleSource) -> Iterator:
        if src.module in RNG_PLUMBING_MODULES:
            return
        visitor = _RngFunctionVisitor(self, src)
        visitor.visit(src.tree)
        yield from visitor.hits
