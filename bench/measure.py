"""Run loop and metric arithmetic.

A run repeats passes of one workload for `seconds`: it starts another pass
only while the slowest pass so far would still fit, so a run ends near
`seconds` unless its first pass alone takes longer.  Every metric is the median of its
per-pass values, so no reported time rests on a single short interval.  A
traced run alternates an untraced and a traced pass; the per-layer numbers
come from the traced passes and the tracing overhead from the difference of
the two medians.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from . import tracing, workloads


@dataclasses.dataclass
class PassResult:
    traced: bool
    total_s: float
    spans: list
    state: workloads.Pass


def run_pass(name: str, seed: int, traced: bool, out_dir: str,
             sizes: dict) -> PassResult:
    recorder = tracing.Recorder()
    state = workloads.Pass(seed, recorder, out_dir)
    with tracing.installed(recorder, full=traced):
        t0 = time.perf_counter()
        workloads.WORKLOADS[name](state, **sizes)
        wall = time.perf_counter() - t0
    verify = sum(s.duration for s in recorder.spans
                 if s.category == tracing.VERIFY)
    return PassResult(traced, wall - verify, recorder.spans, state)


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        sizes: dict | None = None) -> list[PassResult]:
    plan = (False, True) if trace else (False,)
    passes: list[PassResult] = []
    start = time.perf_counter()
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        for traced in plan:
            passes.append(run_pass(name, seed, traced, out_dir, sizes or {}))
        now = time.perf_counter()
        slowest = max(slowest, now - t0)
        if now - start + slowest > seconds:
            return passes


# ---------------------------------------------------------------------------
# per-pass metrics

_SETUP = (tracing.CONSTRUCT, tracing.HA_SETUP)


def _outermost(spans, categories):
    """Spans of the given categories not nested in another such span."""
    return [s for s in spans if s.category in categories
            and (s.parent is None or spans[s.parent].category not in categories)]


def end_to_end(result: PassResult) -> dict:
    spans = result.spans
    solves = result.state.solves
    solver_spans = _outermost(spans, (tracing.SOLVE,))
    out = {
        "total_s": result.total_s,
        "setup_s": sum(s.duration for s in _outermost(spans, _SETUP)),
        "solve_s": sum(s.duration for s in solver_spans),
    }
    for method in ("pu", "pl", "pcgk"):
        mine = [s for s in solver_spans if s.name == f"solvers.{method}"]
        if mine:
            out[f"{method}_s"] = sum(s.duration for s in mine)
    out["iterations"] = sum(s.iterations for s in solves if s.error is None)
    out["solves"] = len(solves)
    out["solves_failed"] = sum(s.error is not None for s in solves)
    return out


def per_layer(result: PassResult) -> dict:
    spans = result.spans
    selfs = tracing.self_times(spans)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def count(*names):
        return sum(s.name in names for s in spans)

    def attr_sum(key, name):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    solver = [(s, t) for s, t in zip(spans, selfs)
              if s.category == tracing.SOLVE]
    keys = [s.attrs["key"] for s in spans if s.name == "assembly.build_problem"]
    ok = [s for s in result.state.solves if s.error is None]
    return {
        "mesh.build_mesh_s": total("mesh.build_mesh"),
        "mesh.layout_s": total("mesh.layout", "mesh.assign_epsilon"),
        "mesh.ordering_s": total("mesh.ordering"),
        "mesh.layout_builds": count("mesh.assign_epsilon"),
        "assembly.stiffness_s": total("assembly.stiffness"),
        "assembly.blocks_s": total("assembly.blocks"),
        "assembly.load_s": total("assembly.load"),
        "assembly.problem_builds": len(keys),
        "assembly.distinct_problems": len(set(keys)),
        "assembly.build_useful_ratio": (len(set(keys)) / len(keys)
                                        if keys else 0.0),
        "assembly.saddle_apply_s": total("assembly.saddle_apply"),
        "assembly.saddle_apply_calls": count("assembly.saddle_apply"),
        "assembly.saddle_apply_bytes": attr_sum("bytes",
                                                "assembly.saddle_apply"),
        "precond.ha_setup_s": total("precond.ha_setup"),
        "precond.ha_setups": count("precond.ha_setup"),
        "precond.ha_apply_s": total("precond.ha_apply"),
        "precond.ha_apply_calls": count("precond.ha_apply"),
        "precond.inner_a_matvecs": attr_sum("a_matvecs", "precond.ha_apply"),
        "precond.hs_apply_s": total("precond.hs_apply"),
        "precond.hs_apply_calls": count("precond.hs_apply"),
        "solvers.self_s": sum(t for _, t in solver),
        "solvers.a_applies": sum(s.a_applies for s in ok),
        "solvers.ha_applies": sum(s.ha_applies for s in ok),
        "cli.self_s": sum(t for s, t in zip(spans, selfs)
                          if s.category == tracing.CLI),
    }


def solver_accounting_gap(result: PassResult) -> float:
    """Largest |duration - self - sum(children)| over the solver spans.

    Zero up to rounding when the child spans of each solver call are
    disjoint and lie inside it, i.e. when self time plus the children
    account for the whole call.
    """
    spans = result.spans
    selfs = tracing.self_times(spans)
    child_sum = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_sum[s.parent] += s.duration
    return max((abs(s.duration - selfs[i] - child_sum[i])
                for i, s in enumerate(spans) if s.category == tracing.SOLVE),
               default=0.0)


def medians(rows: list[dict]) -> dict:
    keys = [k for k in rows[0] if all(k in r for r in rows)]
    return {k: statistics.median(r[k] for r in rows) for k in keys}
