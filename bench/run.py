"""Benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) in this process for S seconds,
checks every output, prints a metric table and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The full result, with the environment record and the
per-solve count record, goes to bench/out/<workload>-seed<N>-trace<T>/.

    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

runs every workload, each in a fresh process so that peak_rss_mb is its
own, and writes their result lines to bench/out/all-seed<N>-trace<T>.json.

    python3 bench/run.py --workload NAME --seed N --record

runs one pass and stores its count record (and output digests) as the
reference for that seed in bench/reference/<workload>.json.

Exit status: 0 when every output is correct, 1 when one is wrong, 2 when
the package cannot be imported from this checkout.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _reference_path(workload: str) -> str:
    return os.path.join(BENCH, "reference", f"{workload}.json")


def _load_reference(workload: str) -> dict:
    path = _reference_path(workload)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_reference(workload: str, reference: dict) -> None:
    """JSON with one solve per line, seeds in numeric order."""
    path = _reference_path(workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    entries = []
    for seed in sorted(reference, key=int):
        entry = reference[seed]
        solves = ",\n   ".join(json.dumps(s) for s in entry["solves"])
        entries.append(f' "{seed}": {{"outputs": '
                       f'{json.dumps(entry["outputs"])},\n  "solves": [\n'
                       f'   {solves}]}}')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")


def _count_diff(expected: list, got: list) -> list[str]:
    lines = []
    for i in range(max(len(expected), len(got))):
        want = expected[i] if i < len(expected) else None
        have = got[i] if i < len(got) else None
        if want != have:
            lines.append(f"solve {i}: baseline {want} != now {have}")
    return lines


# the end-to-end metrics that every workload reports, never as zero; they
# are the ones listed in BENCHMARK.json
GATED = ("total_s", "setup_s", "solve_s", "iterations", "peak_rss_mb")


def _unit(key: str) -> str:
    if key == "peak_rss_mb":
        return "MiB"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes-computed"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def _check(passes, reference: dict | None) -> list[str]:
    """Findings that make the run wrong: each pass's own checks, counts or
    outputs that differ between passes, outputs that differ from the
    reference."""
    first = passes[0].state
    records = [s.record() for s in first.solves]
    wrong = []
    for i, result in enumerate(passes):
        wrong += [f"pass {i}: {w}" for w in result.state.wrong]
        if [s.record() for s in result.state.solves] != records:
            wrong.append(f"pass {i}: counts differ from pass 0")
        if result.state.outputs != first.outputs:
            wrong.append(f"pass {i}: outputs differ from pass 0")
    for key, value in (reference or {}).get("outputs", {}).items():
        if first.outputs.get(key) != value:
            wrong.append(f"{key} {first.outputs.get(key)} != reference "
                         f"{value}")
    return wrong


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _run_all(args, names, environment: dict) -> int:
    results = {}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = max(status, proc.returncode)
    path = os.path.join(BENCH, "out",
                        f"all-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "workloads": results}, fh,
                  indent=1)
        fh.write("\n")
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": status == 0 and len(done) == len(names),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{name}/{key}": value
                    for name, r in results.items() if r is not None
                    for key, value in r["metrics"].items()}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store one pass as this seed's reference")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "saddleprec")):
        print(f"error: no src/saddleprec under {ROOT}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy is first imported: leaves the second
    # core free and keeps the reduction order, and with it every iteration
    # count, fixed
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from bench import envinfo, measure, workloads

    if args.workload == "all":
        return _run_all(args, list(workloads.WORKLOADS),
                        envinfo.environment(ROOT, args.seed))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(BENCH, "out", tag)
    os.makedirs(out_dir, exist_ok=True)

    seconds = 0.0 if args.record else args.seconds
    passes = measure.run(args.workload, args.seed, seconds,
                         bool(args.trace), out_dir)
    first = passes[0].state
    records = [s.record() for s in first.solves]

    if args.record:
        if first.wrong:
            print("\n".join(f"WRONG: {w}" for w in first.wrong))
            return 1
        reference = _load_reference(args.workload)
        reference[str(args.seed)] = {"outputs": first.outputs,
                                     "solves": records}
        _write_reference(args.workload, reference)
        print(f"recorded {len(records)} solves for seed {args.seed}")
        return 0

    reference = _load_reference(args.workload).get(str(args.seed))
    wrong = _check(passes, reference)
    if reference is None:
        diff = None
        print(f"no reference count record for seed {args.seed}")
    else:
        diff = _count_diff(reference["solves"], records)
        for line in diff:
            print(f"count difference: {line}")

    untraced = [r for r in passes if not r.traced]
    traced = [r for r in passes if r.traced]
    e2e_rows = [measure.end_to_end(r) for r in untraced]
    e2e = measure.medians(e2e_rows)
    e2e["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [f"{s.instance} {s.method}: {s.error}"
                for r in passes for s in r.state.solves if s.error]

    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": envinfo.environment(ROOT, args.seed),
        "passes": len(passes),
        "end_to_end": e2e, "end_to_end_per_pass": e2e_rows,
        "solves": records, "count_diff": diff,
        "failures": sorted(set(failures)), "wrong": wrong,
    }
    if traced:
        layer_rows = [measure.per_layer(r) for r in traced]
        layer = measure.medians(layer_rows)
        layer["trace.overhead_s"] = (measure.medians(
            [measure.end_to_end(r) for r in traced])["total_s"]
            - e2e["total_s"])
        gap = max(measure.solver_accounting_gap(r) for r in traced)
        if gap > 1e-6:
            wrong.append(f"solver spans not accounted for by self time and "
                         f"children: gap {gap:.3e} s")
        result.update(per_layer=layer, per_layer_per_pass=layer_rows,
                      solver_accounting_gap_s=gap)
        with open(os.path.join(out_dir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([{"pass": i, "traced": r.traced, "name": s.name,
                        "start": s.start, "end": s.end, "parent": s.parent,
                        **s.attrs}
                       for i, r in enumerate(passes) for s in r.spans], fh)
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": _unit(k)} for k in GATED}
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(f"{args.workload} seed={args.seed}: {len(passes)} passes "
          f"({len(untraced)} untraced), results in {out_dir}")
    for key, value in e2e.items():
        print(f"  {key:<14} {_format(value):>12} {_unit(key)}")
    for key, value in result.get("per_layer", {}).items():
        print(f"  {key:<30} {_format(value):>12} {_unit(key)}")
    for line in result["failures"]:
        print(f"solver failure: {line}")
    for line in wrong:
        print(f"WRONG: {line}")
    attempted = sum(len(r.state.solves) for r in passes)
    failed = sum(s.error is not None for r in passes for s in r.state.solves)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
