"""The workload process: one fresh interpreter per pass or set-up sample.

    python3 perfbench/worker.py --workload W --inputs inputs.json \
        --mode setup|pass [--seconds S] [--spans spans.jsonl]

It imports isurf and does the program-side preparation the workload
needs, then prints `ready <cpu seconds so far>` (the parent records it
as a set-up sample). In `setup` mode it then prints `ref <CPU ms of
reference.work()>` and exits. The expected outputs come with the
inputs: the parent computed them, so no oracle work warms this process.

In `pass` mode it runs the workload's op list once, in order, as a
closed loop with one client: the next op starts only after the previous
one returned. It stops early when S seconds have passed (0: never) and
prints one JSON line with each op's times and the CPU times of
`reference.work()` before the first op and after each op. With
`--spans` the pass is traced and the line also holds the per-layer
figures.

Every op's output is checked; a wrong or crashed op counts as failed.
Each op is timed twice: wall time, and the CPU time of the whole
process (every thread), which leaves out the time the machine ran
something else.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import reference
import spans

REPLICATE_SUMMARY = {"pass": 120, "fail": 0, "ok": True}


def capture(argv: list[str]) -> tuple[int, str]:
    """`isurf <argv>` in process, its standard output captured."""
    cli = sys.modules["isurf.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def same(a, b) -> bool:
    """Type-exact equality of JSON values (True is not 1)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def check_replicate(rc: int, out: str, first: str | None) -> bool:
    """Exit 0, a 120 pass / 0 fail summary, and the bytes of the first pass."""
    if rc != 0 or (first is not None and out != first):
        return False
    return same(json.loads(out)["summary"], REPLICATE_SUMMARY)


class Replicate:
    """One op: a full `replicate-paper --json` pass through `cli.main`.

    Every op is the same; the list holds `spec["ops"]` of them so that a
    pass takes about as long as one of the other workloads'."""

    def __init__(self, spec: dict) -> None:
        importlib.import_module("isurf.cli")
        sys.modules["isurf.catalog"].build_catalog()
        self.n = spec["ops"]
        self.expected: str = spec["expected"]

    def op(self, i: int):
        return capture(["replicate-paper", "--json"])

    def check(self, i: int, result) -> bool:
        return check_replicate(*result, self.expected)


class Inertia:
    """One op: `signature()` of one form of the seeded mix."""

    def __init__(self, spec: dict) -> None:
        self.lattice = importlib.import_module("isurf.lattice")
        self.lats = []
        for form in spec["forms"]:
            if "gram" in form:
                n = len(form["gram"])
                lat = self.lattice.IntersectionLattice(
                    tuple(f"x{i}" for i in range(n)), tuple(map(tuple, form["gram"]))
                )
            else:
                lat = self.lattice.make_named_lattice(
                    form["family"], form["n"], form["m"], form["scale"]
                )
            self.lats.append(lat)
        self.expect = [tuple(form["expect"]) for form in spec["forms"]]
        self.n = len(self.lats)

    def op(self, i: int):
        return self.lattice.signature(self.lats[i]).as_tuple()

    def check(self, i: int, result) -> bool:
        return result == self.expect[i]


class Closure:
    """One op: enumerate the germ pool, answer a Zipf-skewed batch of
    adjacency queries over it, and parse long cusp cycles."""

    def __init__(self, spec: dict) -> None:
        self.germs = importlib.import_module("isurf.germs")
        self.adjacency = importlib.import_module("isurf.adjacency")
        self.pools = {int(L): pool for L, pool in spec["pools"].items()}
        self.ops = spec["ops"]
        self.n = len(self.ops)

    def op(self, i: int):
        spec = self.ops[i]
        pool = self.germs.enumerate_types(2, spec["L"])
        answers = [self.adjacency.is_adjacent(pool[s], pool[d]) for s, d in spec["queries"]]
        parsed = [self.germs.parse_germ(c["text"]) for c in spec["cycles"]]
        return pool, answers, parsed

    def check(self, i: int, result) -> bool:
        pool, answers, parsed = result
        spec = self.ops[i]
        return (
            [str(g) for g in pool] == self.pools[spec["L"]]
            and answers == spec["answers"]
            and [str(g) for g in parsed] == [c["expect"] for c in spec["cycles"]]
        )


WORKLOADS = {"replicate": Replicate, "inertia": Inertia, "closure": Closure}


def run_pass(workload, seconds: float, tracer: spans.Tracer | None = None) -> dict:
    """Run the op list once, or until `seconds` (when not 0) have passed.
    A sample of `reference.work()` precedes and follows every op."""
    deadline = perf_counter() + seconds if seconds else None
    cpu, wall, failed = [], [], 0
    ref = [reference.measure(1)]
    for i in range(workload.n):
        if deadline is not None and perf_counter() >= deadline:
            break
        t0, c0 = perf_counter(), process_time()
        try:
            if tracer is None:
                result = workload.op(i)
            else:
                with tracer.op():
                    result = workload.op(i)
            crashed = False
        except Exception:  # a crashed op counts as failed; the run goes on
            traceback.print_exc()
            crashed = True
        cpu.append((process_time() - c0) * 1000)
        wall.append((perf_counter() - t0) * 1000)
        ref.append(reference.measure(1))
        try:
            ok = not crashed and workload.check(i, result)
        except Exception:  # an output the check cannot read is wrong
            ok = False
        failed += not ok
    return {"cpu_ms": cpu, "wall_ms": wall, "ref_ms": ref, "failed": failed}


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    """Per-op figures of every traced function, named <module>.<function>.<what>."""
    m: dict[str, float] = {}
    for name, _, _, key, _ in spans.TARGETS:
        m[f"{name}.calls"] = tracer.per_op(tracer.calls, name)
        m[f"{name}.self_ms"] = tracer.per_op(tracer.self_s, name, 1000.0)
        if key is not None:
            m[f"{name}.repeat_share"] = tracer.repeat_share(name)
    m["lattice.signature.entries"] = tracer.per_op(tracer.work, "lattice.signature")
    m["report.entries"] = tracer.per_op(tracer.work, "report.dumps")
    m["catalog.check.calls"] = tracer.per_op(tracer.calls, "catalog.check")
    m["catalog.check.failed"] = tracer.per_op(tracer.failed, "catalog.check")
    m["catalog.check.self_ms"] = tracer.per_op(tracer.self_s, "catalog.check", 1000.0)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](spec)
    print(f"ready {process_time()!r}", flush=True)
    if args.mode == "setup":
        print(f"ref {reference.measure()!r}", flush=True)
        return 0

    if args.spans:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            result = run_pass(workload, args.seconds, tracer)
        finally:
            restore()
        tracer.write(args.spans)
        result["layers"] = layer_metrics(tracer)
    else:
        result = run_pass(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
