"""Span recording around the library's layer boundaries.

The benchmark never edits the package.  It replaces the functions and
methods its callers look up (module attributes, the CLI's solver table and
class methods) with wrappers that record one span per call, runs the
workload, and puts the originals back.  Spans are kept in memory and
written out when the run ends.

Two depths are installed from the same table:

  * coarse (untraced runs): construction, H_A set-up and solver calls only,
    a few hundred spans per pass at most;
  * full (traced runs): additionally the assembly internals, every operator
    application inside the solvers, and the CLI entry point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

from saddleprec import assembly, cli, mesh, precond, solvers

# span categories
CONSTRUCT = "construct"
HA_SETUP = "ha_setup"
SOLVE = "solve"
APPLY = "apply"
CLI = "cli"
VERIFY = "verify"   # correctness checks, left out of the pass time


@dataclasses.dataclass
class Span:
    name: str
    category: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, category: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, category, self.clock(), parent=parent, attrs=attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, category: str, before=None, after=None):
        """Return fn wrapped in a span.

        before(args, kwargs) may return a state object; after(span, args,
        kwargs, state, result) fills span attributes once fn returned.
        """
        def wrapper(*args, **kwargs):
            with self.span(name, category) as span:
                state = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, state, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, [])):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


# ---------------------------------------------------------------------------
# attribute hooks

def _counter_arg(args, kwargs, position):
    if len(args) > position:
        return args[position]
    return kwargs.get("counter")


def _inner_matvecs_before(args, kwargs):
    counter = _counter_arg(args, kwargs, 2)
    return None if counter is None else counter.a


def _inner_matvecs_after(span, args, kwargs, before, result):
    if before is not None:
        span.attrs["a_matvecs"] = _counter_arg(args, kwargs, 2).a - before


def _saddle_bytes_after(span, args, kwargs, state, result):
    # computed, not measured: every stored entry of A and of B_D (applied
    # twice) is read once, the operand is read and the result written once
    op = args[0]
    matrices = [op.A, op.blocks.B_D, op.blocks.B_D]
    span.attrs["bytes"] = (
        sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for m in matrices) + 2 * 8 * op.size)


def _report_after(span, args, kwargs, state, report):
    span.attrs.update(iterations=report.iterations,
                      a_applies=report.a_applies,
                      ha_applies=report.ha_applies,
                      converged=report.converged,
                      final_ratio=report.final_ratio)


def _problem_after(span, args, kwargs, state, result):
    mesh_, layout = args[0], args[1]
    corners = tuple((inc.cell_x, inc.cell_y) for inc in layout.inclusions)
    span.attrs["key"] = hash((mesh_.M, layout.k, corners, layout.eps.tobytes()))


# method name (as in the CLI) -> solver function in saddleprec.solvers
SOLVERS = {"pu": "pu_solve", "pl": "pl_solve", "pcgk": "pcg_k_solve"}


def _targets(full: bool):
    """(owner, attribute, span name, category, before, after) to wrap."""
    out = []
    for module in (mesh, cli):
        out += [
            (module, "build_mesh", "mesh.build_mesh", CONSTRUCT, None, None),
            (module, "place_periodic", "mesh.layout", CONSTRUCT, None, None),
            (module, "place_random", "mesh.layout", CONSTRUCT, None, None),
            (module, "assign_epsilon", "mesh.assign_epsilon", CONSTRUCT,
             None, None),
        ]
    for module in (assembly, cli):
        out += [
            (module, "build_problem", "assembly.build_problem", CONSTRUCT,
             None, _problem_after),
            (module, "assemble_load", "assembly.load", CONSTRUCT, None, None),
        ]
    for module in (precond, cli):
        out.append((module, "build_block_preconditioner", "precond.ha_setup",
                    HA_SETUP, None, None))
    for method, attr in SOLVERS.items():
        out.append((solvers, attr, f"solvers.{method}", SOLVE, None,
                    _report_after))
        out.append((cli._METHODS, method, f"solvers.{method}", SOLVE, None,
                    _report_after))
    if full:
        out += [
            (assembly, "build_ordering", "mesh.ordering", CONSTRUCT, None,
             None),
            (assembly, "assemble_stiffness", "assembly.stiffness", CONSTRUCT,
             None, None),
            (assembly, "assemble_inclusion_blocks", "assembly.blocks",
             CONSTRUCT, None, None),
            (assembly.SaddleOperator, "apply", "assembly.saddle_apply", APPLY,
             None, _saddle_bytes_after),
            (precond.SchurPreconditioner, "apply_tagged", "precond.hs_apply",
             APPLY, None, None),
            (precond.ExactAInverse, "apply", "precond.ha_apply", APPLY, None,
             None),
            (precond.DiagonalAInverse, "apply", "precond.ha_apply", APPLY,
             None, None),
            (precond.InnerCgAInverse, "apply", "precond.ha_apply", APPLY,
             _inner_matvecs_before, _inner_matvecs_after),
            (cli, "main", "cli.main", CLI, None, None),
        ]
    return out


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextlib.contextmanager
def installed(recorder: Recorder, full: bool):
    """Wrap the layer boundaries for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, category, before, after in _targets(full):
            original = _get(owner, attr)
            saved.append((owner, attr, original))
            _set(owner, attr, recorder.wrap(original, name, category,
                                            before, after))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)
