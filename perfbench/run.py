"""isurf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload replicate|inertia|closure \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; isurf is imported from ./src.
The run generates the workload's inputs from the seed and computes
their expected outputs. Then it makes passes over the workload's op
list, each in a fresh workload process, until S seconds of ops have
run. After each pass it times fresh set-up launches, bare interpreter
start, `import isurf` and the workload's cold `python -m isurf`
command. Every op's output is checked. See README.md.

The bounded times are CPU time of the process that did the work (every
thread of it), scaled to reference speed (see reference.py): on a shared
virtual machine the same work runs up to 2x slower for seconds or
minutes at a time, and wall time also counts the time the host ran
other guests. Raw CPU and wall times are printed too.

Each metric is printed on its own line with its unit, after a line of
run metadata. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics for `--trace 0` and the per-layer metrics for `--trace 1`. The
full result, with metadata, is also written under perfbench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402

# After each pass, a round of fresh set-up launches and cold commands; at
# least COLD_ROUNDS rounds per run, so that their medians rest on enough
# samples when few passes fit in the budget.
SETUP_PER_PASS = 2
COLD_PER_PASS = 3
COLD_ROUNDS = 4
MIN_PASS_S = 2.0  # a shorter rest of the budget starts no further pass
REPLICATE_OPS = 100  # identical passes in one op list, about 6 s of work
CLOSURE_CLI_LENGTH = 14
INERTIA_CLI_FORM = ("Lambda1", 50, 50, 1)
TIMEOUT_S = 150

# Every time named *_ref_* or *_s, and every self_ms, is CPU time scaled to
# reference speed: multiplied by reference.REF_MS / (CPU ms of
# reference.work() measured alongside it).
E2E_UNITS = {
    "setup_s": "s",
    "op_ref_ms.p50": "ms",
    "op_ref_ms.p90": "ms",
    "ops_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded too, but not bounded: raw CPU and wall times move
# with the load other guests put on a shared host, by up to 2x for seconds
# or minutes at a time. A fresh process's start-up slows less than
# reference.work() does, so even the scaled cold-command time moved by a
# fifth between runs.
REPORTED_UNITS = {
    "cold_cli_ref_ms.p50": "ms",
    "setup_cpu_s": "s",
    "setup_wall_s": "s",
    "op_cpu_ms.p50": "ms",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "cold_cli_cpu_ms.p50": "ms",
    "cold_cli_ms.p50": "ms",
    "ref_ms": "ms",
    "op_samples": "count",
    "passes": "count",
}


# The per-layer metrics the traced run reports, named <module>.<function>.<what>.
# perfbench/README.md says which end-to-end metric each should move.
LAYER_METRICS = (
    "lattice.signature.calls",
    "lattice.signature.self_ms",
    "lattice.signature.entries",
    "lattice.signature.repeat_share",
    "germs.normalize_cusp.calls",
    "germs.normalize_cusp.self_ms",
    "germs.enumerate_types.self_ms",
    "adjacency.is_adjacent.calls",
    "adjacency.is_adjacent.self_ms",
    "adjacency.reachable_germs.calls",
    "adjacency.reachable_germs.self_ms",
    "adjacency.reachable_germs.repeat_share",
    "divisors.pair.calls",
    "divisors.pair.self_ms",
    "divisors.blowup.calls",
    "divisors.blowup.self_ms",
    "builders.build_stratum.calls",
    "builders.build_stratum.self_ms",
    "builders.build_stratum.repeat_share",
    "builders.verify_I_surface.self_ms",
    "builders.build_double_cover.self_ms",
    "catalog.build_catalog.self_ms",
    "catalog.run_catalog.self_ms",
    "catalog.check.calls",
    "catalog.check.failed",
    "report.dumps.self_ms",
    "report.entries",
    "cli.main.self_ms",
    "cli.interp_ms",
    "cli.import_ms",
    "trace.op_ref_ms.p50",
    "trace.overhead",
)


def layer_unit(name: str) -> str:
    if name in ("cli.interp_ms", "cli.import_ms", "trace.op_ref_ms.p50"):
        return "ms"
    if name.endswith(".repeat_share") or name == "trace.overhead":
        return "ratio"
    return "ms/op" if name.endswith(".self_ms") else "count/op"


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = HERE / ".out" / f"{workload}-seed{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
        )
        self.attempted = 0
        self.failed = 0
        self.cli_expect: list[int] = []  # the inertia cold command's answer
        self.replicate_text = ""  # the pass every replicate op must equal

    # -- inputs --------------------------------------------------------

    def _isurf(self):
        """The package under test, for the generator's few calls into it."""
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import isurf

        return isurf

    def generate(self) -> None:
        """Write the seeded inputs with their expected outputs, and set the
        workload's cold CLI command."""
        seed, out = self.seed, self.out
        if self.workload == "replicate":
            # The first pass, run cold, is what every later pass must equal. It
            # also compiles the bytecode cache, so no timed launch pays for it.
            self.cli_argv = ["replicate-paper", "--json"]
            _, _, rc, text = self.timed_command(["-m", "isurf", *self.cli_argv])
            valid = worker.check_replicate(rc, text, None)
            self.attempted, self.failed = 1, int(not valid)
            # with no valid reference every op is counted as failed
            self.replicate_text = text if valid else ""
            spec = {"expected": self.replicate_text, "ops": REPLICATE_OPS}
        else:
            self.timed_command(["-c", "import isurf.cli"])
            if self.workload == "inertia":
                spec = inputs.inertia_inputs(seed)
                self.cli_argv = ["verify", str(self.inertia_cli_config())]
            else:
                spec = closure_oracle(self._isurf(), inputs.closure_inputs(seed))
                self.cli_argv = [
                    "enumerate", "--max-mult", "2", "--max-length", str(CLOSURE_CLI_LENGTH)
                ]
        self.inputs_path = out / "inputs.json"
        self.inputs_path.write_text(json.dumps(spec), encoding="utf-8")

    def inertia_cli_config(self) -> Path:
        """A `verify` config of one `signature` check on a fixed form, so that
        the cold command costs the same on every seed."""
        lat = self._isurf().lattice.make_named_lattice(*INERTIA_CLI_FORM)
        self.cli_expect = inputs.named_inertia(*INERTIA_CLI_FORM[:3])
        config = {
            "checks": [
                {
                    "check": "signature",
                    "id": "cli.signature",
                    "lattice": lat.to_json(),
                    "expected": self.cli_expect,
                }
            ],
            "output": "json",
        }
        path = self.out / "inertia-cli.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    # -- processes -----------------------------------------------------

    def _worker(self, mode: str, seconds: float = 0.0, traced: bool = False) -> subprocess.Popen:
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--inputs", str(self.inputs_path),
            "--mode", mode,
            "--seconds", repr(seconds),
        ]
        if traced:
            argv += ["--spans", str(self.out / "spans.jsonl")]
        return subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            text=True,
            env=self.env,
            cwd=self.root,
        )

    @staticmethod
    def _expect(proc: subprocess.Popen, word: str) -> str:
        line = proc.stdout.readline()
        if not line.startswith(word):
            raise RuntimeError(f"worker said {line.strip()!r}, not {word!r}")
        return line

    def _launch(self, mode: str, seconds: float = 0.0, traced: bool = False) -> dict | None:
        """Launch a fresh worker; record launch-to-`ready` as a set-up
        sample; in `pass` mode return the pass's result."""
        before = reference.measure()
        t0 = perf_counter()
        proc = self._worker(mode, seconds, traced)
        result = None
        with self._watchdog(proc):
            cpu_s = float(self._expect(proc, "ready").split()[1])
            self.wall["setup_s"].append(perf_counter() - t0)
            if mode == "pass":
                result = json.loads(self._expect(proc, "{"))
                after = result["ref_ms"][0]
            else:
                after = float(self._expect(proc, "ref").split()[1])
            proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"{self.workload} worker exited with {proc.returncode}")
        self.record("setup_s", cpu_s, (before + after) / 2)
        return result

    def record(self, name: str, cpu: float, ref: float) -> None:
        self.cpu[name].append(cpu)
        self.scaled[name].append(cpu * reference.REF_MS / ref)
        self.refs.append(ref)

    @contextmanager
    def _watchdog(self, proc: subprocess.Popen):
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            yield
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def timed_command(self, argv: list[str]) -> tuple[float, float, int, str]:
        """CPU ms, wall ms, exit code and stdout of `python <argv>`."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=TIMEOUT_S,
        )
        wall = (perf_counter() - t0) * 1000
        # the only child reaped in the meantime is this one
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime) * 1000
        return cpu, wall, proc.returncode, proc.stdout

    def check_cli(self, rc: int, out: str) -> bool:
        try:
            if self.workload == "replicate":
                return worker.check_replicate(rc, out, self.replicate_text)
            if self.workload == "closure":
                return rc == 0 and out.splitlines() == inputs.germ_pool(CLOSURE_CLI_LENGTH)
            report = json.loads(out)
            (entry,) = report["entries"]
            return (
                rc == 0
                and report["summary"]["fail"] == 0
                and entry["id"] == "cli.signature"
                and entry["pass"] is True
                and worker.same(entry["computed"], self.cli_expect)
            )
        except (ValueError, KeyError, TypeError):
            return False

    # -- the run -------------------------------------------------------

    def cold_command(self, name: str, argv: list[str]) -> tuple[int, str]:
        """Run `python <argv>` fresh, between two samples of the machine's speed."""
        before = reference.measure()
        cpu, wall, rc, out = self.timed_command(argv)
        self.wall[name].append(wall)
        self.record(name, cpu, (before + reference.measure()) / 2)
        return rc, out

    def cold_round(self) -> None:
        """Fresh set-up launches, interpreter start, `import isurf` and the
        workload's cold CLI command, each in a new process."""
        for _ in range(SETUP_PER_PASS):
            self._launch("setup")
        self.cold_command("cli.interp_ms", ["-c", "pass"])
        self.cold_command("cli.import_ms", ["-c", "import isurf"])
        for _ in range(COLD_PER_PASS):
            rc, out = self.cold_command("cold_cli_ms", ["-m", "isurf", *self.cli_argv])
            self.attempted += 1
            self.failed += not self.check_cli(rc, out)

    def execute(self) -> dict:
        """Passes over the op list, each in a fresh workload process and
        each followed by a cold round, until `seconds` of ops have run.
        The first pass always runs the whole list."""
        self.generate()
        names = ("setup_s", "cli.interp_ms", "cli.import_ms", "cold_cli_ms")
        self.cpu: dict[str, list[float]] = {name: [] for name in names}
        self.wall: dict[str, list[float]] = {name: [] for name in names}
        self.scaled: dict[str, list[float]] = {name: [] for name in names}
        self.refs: list[float] = []
        passes = []
        if self.trace:
            # an untraced and a traced pass over the same ops
            passes.append(self._launch("pass"))
            passes.append(self._launch("pass", traced=True))
        else:
            budget = float(self.seconds)
            while not passes or budget >= MIN_PASS_S:
                result = self._launch("pass", budget if passes else 0.0)
                budget -= sum(result["wall_ms"]) / 1000
                passes.append(result)
                self.cold_round()
        while len(self.cpu["cold_cli_ms"]) < COLD_ROUNDS * COLD_PER_PASS:
            self.cold_round()
        for result in passes:
            self.attempted += len(result["cpu_ms"])
            self.failed += result["failed"]
            self.refs += result["ref_ms"]
        self.samples = {"cpu": self.cpu, "wall": self.wall, "scaled": self.scaled, "passes": passes}

        median = statistics.median
        e2e = {
            "setup_s": median(self.scaled["setup_s"]),
            "cold_cli_ref_ms.p50": median(self.scaled["cold_cli_ms"]),
            "setup_cpu_s": median(self.cpu["setup_s"]),
            "setup_wall_s": median(self.wall["setup_s"]),
            "cold_cli_cpu_ms.p50": median(self.cpu["cold_cli_ms"]),
            "cold_cli_ms.p50": median(self.wall["cold_cli_ms"]),
            "ref_ms": median(self.refs),
        }
        layers = {
            "cli.interp_ms": median(self.scaled["cli.interp_ms"]),
            "cli.import_ms": median(self.scaled["cli.import_ms"]),
        }
        if self.trace:
            untraced, traced = (scaled_ops(p) for p in passes)
            scale = reference.REF_MS / median(passes[1]["ref_ms"])  # per-op totals
            for name, value in passes[1]["layers"].items():
                layers[name] = value * scale if name.endswith(".self_ms") else value
            layers["trace.op_ref_ms.p50"] = median(traced)
            layers["trace.overhead"] = median(traced) / median(untraced)
            e2e["op_ref_ms.p50"] = median(untraced)
            return {"e2e": e2e, "layers": layers}

        ops = [ms for p in passes for ms in scaled_ops(p)]
        cpu = [ms for p in passes for ms in p["cpu_ms"]]
        wall = [ms for p in passes for ms in p["wall_ms"]]
        e2e.update(
            {
                "op_ref_ms.p50": median(ops),
                "op_ref_ms.p90": p90(ops),
                "ops_per_ref_s": len(ops) / (sum(ops) / 1000),
                "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
                "op_cpu_ms.p50": median(cpu),
                "op_ms.p50": median(wall),
                "op_ms.p90": p90(wall),
                "ops_per_s": len(wall) / (sum(wall) / 1000),
                "op_samples": len(ops),
                "passes": len(passes),
            }
        )
        return {"e2e": e2e, "layers": layers}


def scaled_ops(result: dict) -> list[float]:
    """A pass's op CPU times, each scaled by the mean of the reference
    samples just before and just after it.

    A host shared with other guests runs the same work up to 2x slower,
    for a fraction of a second or for minutes; the reference slows with it."""
    ref = result["ref_ms"]
    return [ms * 2 * reference.REF_MS / (ref[i] + ref[i + 1]) for i, ms in enumerate(result["cpu_ms"])]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def closure_oracle(isurf, spec: dict) -> dict:
    """Add to the closure inputs the germ pools, by brute force, and each
    query's answer, from a Warshall closure over the rule table."""
    germs, adjacency = isurf.germs, isurf.adjacency
    pools = {L: inputs.germ_pool(L) for L in inputs.CLOSURE_LENGTHS}
    nodes = [germs.parse_germ(t) for t in pools[max(pools)]]
    index = {g: i for i, g in enumerate(nodes)}
    edges: list[set[int]] = []
    for g in nodes:  # grows while new targets turn up
        if g.kind == germs.SMOOTH:
            targets = [g]
        elif g.kind == germs.RDP:
            targets = [g, germs.smooth()]
        else:
            targets = [t for multiset in adjacency.direct_adjacencies(g) for t in multiset]
        for t in targets:
            if t not in index:
                index[t] = len(nodes)
                nodes.append(t)
        edges.append({index[t] for t in targets})
    reach = [sum(1 << j for j in e) | (1 << i) for i, e in enumerate(edges)]
    for k in range(len(nodes)):
        bit = 1 << k
        for i in range(len(nodes)):
            if reach[i] & bit:
                reach[i] |= reach[k]
    by_text = {str(g): i for i, g in enumerate(nodes)}
    for op in spec["ops"]:
        pool = [by_text[t] for t in pools[op["L"]]]
        op["answers"] = [bool(reach[pool[s]] >> pool[d] & 1) for s, d in op["queries"]]
    return dict(spec, pools=pools)


def pin_to_quietest_cpu() -> int | None:
    """Pin this process, and so every process it starts, to the allowed
    CPU that runs `reference.work()` fastest now.

    On a shared VM one vCPU may be slowed by a neighbour while the other
    is not; a process that lands on either at random then takes one of
    two times. On one CPU the harness's reference samples also time the
    CPU its subprocesses run on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = reference.measure(9)
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best


def metadata(root: Path, args: argparse.Namespace) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "isurf").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root
        )
        rev = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "setup_per_pass": SETUP_PER_PASS,
        "cold_per_pass": COLD_PER_PASS,
        "cold_rounds_min": COLD_ROUNDS,
        "clients": 1,
        "loop": "closed",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "isurf" / "__init__.py").is_file():
        print("error: run from the root of an isurf checkout (no src/isurf here)", file=sys.stderr)
        return 2
    cpu = pin_to_quietest_cpu()
    meta = dict(metadata(root, args), cpu=cpu)
    run = Run(root, args.workload, args.seed, args.seconds, args.trace)
    try:
        measured = run.execute()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e, layers = measured["e2e"], measured["layers"]
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, value in e2e.items():
        unit = E2E_UNITS.get(name) or REPORTED_UNITS[name]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"{name:<40} {shown} {unit}")
    error_rate = run.failed / run.attempted
    print(f"{'error_rate':<40} {error_rate:>14.6f} ratio ({run.failed} failed / {run.attempted} attempted)")
    for name, value in sorted(layers.items()):
        print(f"{name:<40} {value:>14.6f} {layer_unit(name)}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": layer_unit(name)} for name in LAYER_METRICS}
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()
        }
    line = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(meta, error_rate=error_rate, e2e=e2e, layers=layers, samples=run.samples, result=line)
    (run.out / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
