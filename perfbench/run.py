"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Generates (or reuses) the workload's inputs for the seed, then runs the
workload's modcluster command again and again, one fresh process at a
time, until S seconds have passed and at least MIN_COMMANDS commands have
run. Every command's outputs go through the
correctness gate. With ``--trace 1`` commands alternate untraced and traced;
the traced ones give the per-layer metrics and the difference of the two
medians gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with machine facts and per-command details, goes to
``.perfbench/runs/<workload>-seed<N>-trace<T>/result.json``. The exit code is 0 when the gate passes, 1 when it
fails and 2 on a usage error or when the checkout has no modcluster source.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import catalog, gate, layers, machine  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ROOT,
    WORKLOADS,
    Inputs,
    Workload,
    cli_env,
    command_args,
    prepare,
)

PROBE = ROOT / "perfbench" / "probe.py"
STATE = ROOT / ".perfbench"  # cached inputs and per-run outputs
RUN_BUDGET_S = 170.0  # a run must end within 180 s
MIN_COMMANDS = 3  # per run, for the medians and the determinism check


@dataclass
class Command:
    """One modcluster process and what it recorded."""

    directory: Path
    kind: str
    seeds: tuple[int, ...]
    traced: bool
    rc: int | None = None
    wall_s: float = 0.0
    setup_s: float | None = None
    record: dict | None = None
    stdout: str = ""
    artifacts: dict[int, str] = field(default_factory=dict)

    @property
    def out_dir(self) -> Path:
        return self.directory / "out"

    def epoch_samples_ms(self) -> list[float]:
        """Per-epoch latency from the Adam-step timestamps: the time between
        consecutive steps of one seed. Eval has no epochs; its one sample is
        the whole pass after set-up: from the first forward to the end of the
        command (forward, transform, BIRCH, scoring)."""
        rec = self.record or {}
        if self.kind == "eval":
            first = rec.get("first_forward")
            return [1e3 * (rec["t_end"] - first)] if first is not None else []
        out = []
        ends = rec.get("epoch_ends") or []
        for (prev_step, prev_t), (step, t) in zip(ends, ends[1:]):
            if step is None or prev_step is None or step == prev_step + 1:
                out.append(1e3 * (t - prev_t))
        return out


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def run_command(inp: Inputs, directory: Path, traced: bool, deadline: float) -> Command:
    w = inp.workload
    directory.mkdir(parents=True)
    cmd = Command(directory, w.command, w.seeds, traced)
    record_path = directory / "record.json"
    argv = [sys.executable, str(PROBE), str(record_path), "1" if traced else "0", "--",
            *command_args(inp, cmd.out_dir)]
    with open(directory / "stdout.txt", "w") as out, open(directory / "stderr.txt", "w") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=cli_env(), cwd=directory)
        try:
            cmd.rc = proc.wait(timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        cmd.wall_s = time.perf_counter() - t_spawn
    cmd.stdout = (directory / "stdout.txt").read_text()
    if record_path.exists():
        cmd.record = json.loads(record_path.read_text())
        if cmd.record.get("first_forward") is not None:
            cmd.setup_s = cmd.record["first_forward"] - t_spawn
    if cmd.record is not None:
        for seed, part in zip(cmd.seeds, cmd.record["partitions"]):
            if w.command == "eval":
                parts = [json.dumps(part).encode(), cmd.stdout.encode()]
            else:
                names = [f"partition_seed{seed}.tsv", f"loss_seed{seed}.csv",
                         f"checkpoint_seed{seed}.tsv", "metrics.csv"]
                parts = [(cmd.out_dir / n).read_bytes() if (cmd.out_dir / n).exists() else b""
                         for n in names]
            cmd.artifacts[seed] = _digest(parts)
    return cmd


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(min_samples: int) -> float | None:
    """Highest percentile of the ladder with at least ten samples beyond it,
    for the fewest samples a run of this workload can have, so that every
    run of the workload reports the same percentile. None when even the
    median has fewer than ten samples beyond it."""
    for pct in TAIL_LADDER:
        if min_samples * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            return pct
    return None


def min_epoch_samples(inp: Inputs) -> int:
    w = inp.workload
    if w.command == "eval":
        return MIN_COMMANDS
    epochs = int(w.args[w.args.index("--epochs") + 1])
    return MIN_COMMANDS * len(w.seeds) * (epochs - 1)


def end_to_end(commands: list[Command], verdict: gate.Verdict, inp: Inputs) -> tuple[dict, dict]:
    samples = [s for c in commands for s in c.epoch_samples_ms()]
    pct = tail_percentile(min_epoch_samples(inp))
    ok = [c for c in commands if c.rc == 0]
    values = {
        "wall_s": statistics.median(c.wall_s for c in ok) if ok else None,
        "setup_s": statistics.median(c.setup_s for c in ok if c.setup_s is not None)
        if any(c.setup_s is not None for c in ok) else None,
        "epoch_ms.p50": statistics.median(samples) if samples else None,
        "epoch_ms.tail": (float(np.percentile(samples, pct)) if pct is not None else max(samples))
        if samples else None,
        "peak_rss_mb": statistics.median(c.record["peak_rss_kb"] / 1024.0 for c in ok
                                         if c.record) if ok else None,
        "q_mean": statistics.median(verdict.q_mean) if verdict.q_mean else None,
        "nmi_mean": statistics.median(verdict.nmi_mean) if verdict.nmi_mean else None,
    }
    info = {"epoch_samples": len(samples),
            "epoch_tail_percentile": pct if pct is not None else "max"}
    return values, info


def per_layer(commands: list[Command], inp: Inputs) -> dict:
    traced = [c for c in commands if c.traced and c.rc == 0 and c.record]
    plain = [c for c in commands if not c.traced and c.rc == 0]
    per_command = [layers.command_metrics(c.record) for c in traced]
    values = {}
    for name, _, _ in catalog.PER_LAYER:
        got = [m[name] for m in per_command if name in m]
        values[name] = statistics.median(got) if got else None
    values["graph.input_mb"] = inp.input_bytes / 1e6
    if traced and plain:
        values["trace.overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                      - statistics.median(c.wall_s for c in plain))
    return values


def run_dir(state: Path, name: str, seed: int, trace: bool) -> Path:
    return state / "runs" / f"{name}-seed{seed}-trace{int(trace)}"


def run(w: Workload, seed: int, seconds: float, trace: bool, state: Path = STATE) -> dict:
    """Prepare inputs, run the commands, gate them and collect the metrics."""
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_BUDGET_S
    inp = prepare(w, seed, state / "inputs")
    work = run_dir(state, w.name, seed, trace)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    commands: list[Command] = []
    t_measure = time.perf_counter()
    while True:
        traced = trace and len(commands) % 2 == 1
        commands.append(run_command(inp, work / f"cmd{len(commands)}", traced, deadline))
        enough = len(commands) >= MIN_COMMANDS and not (trace and len(commands) % 2)
        if commands[-1].rc != 0 or (enough and time.perf_counter() - t_measure >= seconds):
            break
    measured_s = time.perf_counter() - t_measure

    verdict = gate.check(commands, inp)
    if not verdict.problems:  # keep the artifacts of a failing run for inspection
        for c in commands:
            shutil.rmtree(c.out_dir, ignore_errors=True)
    plain = [c for c in commands if not c.traced]
    e2e, info = end_to_end(plain, verdict, inp)
    wanted = catalog.PER_LAYER if trace else catalog.END_TO_END
    values = per_layer(commands, inp) if trace else e2e
    units = {name: unit for name, unit, *_ in wanted}
    missing = [name for name in units if values.get(name) is None]
    if missing:
        verdict.fail(1, f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if values.get(name) is not None}
    correct = not verdict.problems
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine.facts(),
        "planted_q": inp.planted_q,
        "n": w.n,
        "m": int(len(inp.edges)),
        "setup_inputs_s": t_measure - t_begin,
        "measured_s": measured_s,
        "commands": [
            {"traced": c.traced, "rc": c.rc, "wall_s": c.wall_s, "setup_s": c.setup_s,
             "epoch_samples": len(c.epoch_samples_ms()),
             "peak_rss_mb": c.record["peak_rss_kb"] / 1024.0 if c.record else None}
            for c in commands
        ],
        "problems": verdict.problems,
        "end_to_end_info": info,
        "end_to_end": e2e,
        "summary": {"correct": correct, "attempted": verdict.attempted,
                    "failed": verdict.failed, "metrics": metrics},
    }


def report(result: dict) -> None:
    """Print one run for a reader; the JSON summary goes last."""
    facts = result["machine"]
    print(f"machine: {facts['cpu_model']}, {facts['cores']} cores, {facts['blas_name']} "
          f"{facts['blas_version']} ({facts['blas_threads']} threads), python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}")
    summary = result["summary"]
    print(f"{result['workload']} seed {result['seed']}: {len(result['commands'])} commands in "
          f"{result['measured_s']:.1f} s, seeds failed {summary['failed']}/{summary['attempted']}")
    info = result["end_to_end_info"]
    print(f"epoch samples {info['epoch_samples']}, tail percentile {info['epoch_tail_percentile']}")
    for name, metric in summary["metrics"].items():
        label = " (computed)" if name in catalog.COMPUTED else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{label}")
    for problem in result["problems"]:
        print(f"GATE: {problem}")
    print(json.dumps(summary))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modcluster" / "__init__.py").is_file():
        print(f"perfbench: no modcluster source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        text = json.dumps(result, indent=1)
        (run_dir(STATE, name, args.seed, args.trace) / "result.json").write_text(text)
        report(result)
        correct = correct and result["summary"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
