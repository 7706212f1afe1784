#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the eventqa pipeline.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 55 --trace 0

Generates the workload's inputs from the seed, then repeats pipeline passes
(build -> run -> score -> report -> cost) until ``--seconds`` have passed,
and prints one JSON object as the last line of standard output.

``--trace 0`` runs each stage as its own ``python3 -m eventqa.cli`` process,
as a user does, and reports the end-to-end metrics (medians over passes).
``--trace 1`` runs the stages in one process through ``cli.main``, once
untraced and once with the layer wrappers of ``tracer.py`` installed, and
reports the per-layer metrics. ``--workload all`` runs every workload and
prints one table per workload.

Every pass is checked: all stages exit 0, prompt, response and prediction
counts match, oracle answers agree with the reference answer key, HTTP
replies arrive intact, and the deterministic artifacts hash the same in
every pass. A failed check exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic

from stub_server import reply_for
from tracer import tail_percentile
from workloads import STAGES, WORKLOADS, WorkloadFiles, WorkloadSpec, backends_config, config_count, generate, stage_argvs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 3
# Idempotent stages shorter than this are timed this many times per pass.
RETIME_STAGES = ("build", "score")
RETIME_BELOW_S = 1.0
RETIME_COUNT = 3
DEADLINE_S = 170.0  # whole run, so a hung stage cannot outlast the harness limit
SETUP_PROBE = "import eventqa.cli, eventqa.promptkit as p; p.default_template()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "run_s": "s",
    "score_s": "s",
    "pipeline_s": "s",
    "prompts_per_s": "prompts/s",
    "peak_rss_mb": "MB",
}
DETERMINISTIC_ARTIFACTS = (
    "prompts.ndjson",
    "predictions.ndjson",
    "report.json",
    "report.csv",
    "plot_by_strategy.csv",
    "plot_by_modality.csv",
    "cost.json",
)


class BenchError(Exception):
    pass


@dataclass
class PassResult:
    walls: dict[str, list[float]]  # stage -> timings; the first is the pipeline's own run
    exits: dict[str, int]
    setup: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    metrics: dict[str, float] = field(default_factory=dict)
    scaling: dict[str, list] = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(walls[0] for walls in self.walls.values())


@dataclass
class Check:
    failed: int
    errors: list[str]
    digest: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.at = monotonic() + seconds

    def remaining(self) -> float:
        left = self.at - monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def check_source_tree(env: dict[str, str]) -> None:
    """The stages must import eventqa from this checkout's ``src``, not from elsewhere."""
    probe = subprocess.run(
        [sys.executable, "-c", f"{SETUP_PROBE}; import eventqa; print(eventqa.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import eventqa from {SRC}: {probe.stderr.strip()[-500:]}")
    if Path(probe.stdout.strip()).resolve().parent != (SRC / "eventqa").resolve():
        raise BenchError(f"eventqa resolves to {probe.stdout.strip()}, not to {SRC}")


@contextlib.contextmanager
def stub_server(plan: Path, env: dict[str, str], log: Path):
    """A fresh stub chat server; yields its port once it accepts connections."""
    with open(log, "a", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), str(plan)],
            env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
    try:
        line = proc.stdout.readline()
        if not line.startswith("READY "):
            raise BenchError("stub server did not start")
        yield int(line.split()[1])
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_pass(
    spec: WorkloadSpec, files: WorkloadFiles, out: Path, env: dict[str, str], deadline: Deadline,
    in_process: bool = False, traced: bool = False, probes: int = 0,
) -> PassResult:
    """One pipeline pass in a fresh ``one_pass.py`` process (see there for the two modes)."""
    out.mkdir(parents=True)
    log = out / "stages.log"
    server = stub_server(files.reply_plan, env, log) if spec.http else contextlib.nullcontext(None)
    with server as port:
        backends_json = None
        if port is not None:
            backends_json = out / "backends.json"
            backends_json.write_text(json.dumps(backends_config(port)))
        plan = {
            "mode": "in-process" if in_process else "processes",
            "src": str(SRC),
            "stages": stage_argvs(spec, files, out, backends_json),
            "trace": traced,
            "prompts": expected_prompts(spec, files),
            "probes": probes,
            "probe": SETUP_PROBE,
            "retime": RETIME_STAGES,
            "retime_below_s": RETIME_BELOW_S,
            "retime_count": RETIME_COUNT,
            "log": str(log),
        }
        (out / "plan.json").write_text(json.dumps(plan))
        with open(out / "one_pass.err", "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "one_pass.py"), str(out / "plan.json"), str(out / "result.json")],
                env=env, cwd=ROOT, stdout=err, stderr=err, start_new_session=True,
            )
            try:
                code = proc.wait(timeout=deadline.remaining())
            except subprocess.TimeoutExpired:
                raise BenchError(f"pass in {out} timed out") from None
            finally:
                if proc.poll() is None:  # timed out, or this process is being stopped
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
    if code != 0:
        raise BenchError(f"pass in {out} failed; see {out / 'one_pass.err'}")
    result = json.loads((out / "result.json").read_text())
    return PassResult(
        walls=result["walls"],
        exits=result["exits"],
        setup=result.get("setup", []),
        peak_rss_mb=max(result.get("rss", {}).values(), default=0.0),
        metrics=result.get("metrics", {}),
        scaling=result.get("scaling", {}),
    )


# --- correctness ------------------------------------------------------------------


def expected_prompts(spec: WorkloadSpec, files: WorkloadFiles) -> int:
    with open(files.dataset, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip()) * config_count(spec)


def _records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[1:] if line.strip()]


def _selector(config: dict) -> str:
    return f"{config['strategy']}-{config['modality']}"


def check_pass(spec: WorkloadSpec, files: WorkloadFiles, out: Path, result: PassResult) -> Check:
    errors = [f"{stage} exited {code}" for stage, code in result.exits.items() if code != 0]
    missing = [stage for stage in STAGES if stage not in result.exits]
    if missing:
        errors.append(f"stages not run: {', '.join(missing)}")
    expected = expected_prompts(spec, files)
    prompts = _records(out / "prompts.ndjson")
    responses = _records(out / "responses.ndjson")
    predictions = _records(out / "predictions.ndjson")
    if not len(prompts) == len(responses) == len(predictions) == expected:
        errors.append(
            f"counts differ: expected {expected} prompts, got {len(prompts)} prompts, "
            f"{len(responses)} responses, {len(predictions)} predictions"
        )
    failed = (expected - len(responses)) + (expected - len(predictions)) + sum(code != 0 for code in result.exits.values())

    prompt_by_key = {(p["instance_id"], _selector(p["config"])): p for p in prompts}
    wrong = 0
    for row in predictions:
        key = (row["instance_id"], _selector(row["config"]))
        prompt = prompt_by_key.get(key)
        if prompt is None:
            errors.append(f"prediction without a prompt: {key}")
            break
        gold = files.answer_key.get(row["instance_id"])
        # A truncated prompt may have lost the graph sentences the answer needs.
        if gold is not None and row["config"]["modality"] in ("graph", "tag") and not prompt["truncation_applied"]:
            wrong += row["extracted"]["answer"] != gold
    if wrong:
        errors.append(f"{wrong} oracle graph/tag answers disagree with the reference answer key")

    if spec.http:
        errors += _check_http(prompt_by_key, responses, predictions, files.reply_plan)
    if errors:
        return Check(failed=max(failed, 1), errors=errors, digest="")
    return Check(failed=failed, errors=[], digest=artifact_digest(out, include_responses=not spec.http))


def _check_http(prompt_by_key, responses, predictions, plan_path: Path) -> list[str]:
    """Replies must arrive intact, and closing answers must be the ones extracted."""
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    replies = {key: reply_for(p["prompt_text"], plan) for key, p in prompt_by_key.items()}
    garbled = sum(r["raw_text"] != replies[(r["instance_id"], r["config"])]["text"] for r in responses)
    misread = 0
    for row in predictions:
        reply = replies[(row["instance_id"], _selector(row["config"]))]
        if reply["label"] is not None:
            misread += (row["extracted"]["answer"], row["extracted"]["method"]) != (reply["label"], "canonical_regex")
    errors = []
    if garbled:
        errors.append(f"{garbled} HTTP responses differ from the stub's reply")
    if misread:
        errors.append(f"{misread} replies with a closing answer sentence were extracted wrongly")
    return errors


def artifact_digest(out: Path, include_responses: bool) -> str:
    names = DETERMINISTIC_ARTIFACTS + (("responses.ndjson",) if include_responses else ())
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return digest.hexdigest()


# --- measurement --------------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, list[float]]
    digest: str
    errors: list[str]
    scaling: dict[str, list] = field(default_factory=dict)


def _prepare(spec: WorkloadSpec, seed: int) -> tuple[Path, WorkloadFiles, dict[str, str]]:
    work = WORK / spec.name
    shutil.rmtree(work, ignore_errors=True)
    files = generate(spec, seed, work / "data")
    env = _child_env()
    check_source_tree(env)
    return work, files, env


def measure(spec: WorkloadSpec, seed: int, seconds: float) -> Outcome:
    """Untraced passes, one process per stage; end-to-end metrics."""
    deadline = Deadline(DEADLINE_S)
    work, files, env = _prepare(spec, seed)
    prompts = expected_prompts(spec, files)
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    checks: list[Check] = []
    start = monotonic()
    while len(checks) < MIN_PASSES or _another_fits(start, len(checks), seconds):
        out = work / f"pass{len(checks)}"
        result = run_pass(spec, files, out, env, deadline, probes=SETUP_PROBES_PER_PASS)
        samples["setup_s"] += result.setup
        checks.append(check_pass(spec, files, out, result))
        if checks[-1].errors:
            break
        for stage in ("build", "run", "score"):
            samples[f"{stage}_s"] += result.walls[stage]
        samples["pipeline_s"].append(result.pipeline_s)
        samples["prompts_per_s"].append(prompts / result.pipeline_s)
        samples["peak_rss_mb"].append(result.peak_rss_mb)
        if len(checks) > 1:
            shutil.rmtree(work / f"pass{len(checks) - 2}")
    metrics = {name: (statistics.median(values), END_TO_END_UNITS[name]) for name, values in samples.items() if values}
    return _outcome(checks, prompts, metrics, samples)


def measure_traced(spec: WorkloadSpec, seed: int, seconds: float) -> Outcome:
    """Pairs of in-process passes, untraced and traced; per-layer metrics."""
    deadline = Deadline(DEADLINE_S)
    work, files, env = _prepare(spec, seed)
    prompts = expected_prompts(spec, files)
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    checks: list[Check] = []
    start = monotonic()
    while not traced or _another_fits(start, len(traced), seconds):
        # Alternate which side goes first, so drift does not favour one.
        for tracing in (False, True) if len(traced) % 2 == 0 else (True, False):
            out = work / f"pass{len(checks)}"
            result = run_pass(spec, files, out, env, deadline, in_process=True, traced=tracing)
            checks.append(check_pass(spec, files, out, result))
            if checks[-1].errors:
                return _outcome(checks, prompts, {}, {})
            (traced if tracing else untraced).append(result)
    metrics: dict[str, tuple[float, str]] = {}
    for name in traced[0].metrics:
        metrics[name] = (statistics.median(r.metrics[name] for r in traced), layer_unit(name))
    overhead = statistics.median(r.pipeline_s for r in traced) / statistics.median(r.pipeline_s for r in untraced) - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    outcome = _outcome(checks, prompts, metrics, {})
    outcome.metrics["failed_frac"] = (outcome.failed / outcome.attempted, "ratio")
    outcome.scaling = traced[-1].scaling
    return outcome


def _another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass (or pair), as long as the mean so far, ends within ``seconds``."""
    elapsed = monotonic() - start
    return elapsed + elapsed / done <= seconds


def _outcome(checks: list[Check], prompts: int, metrics, samples) -> Outcome:
    errors = [error for check in checks for error in check.errors]
    digests = {check.digest for check in checks if not check.errors}
    if len(digests) > 1:
        errors.append(f"deterministic artifacts differ across passes: {sorted(digests)}")
    return Outcome(
        correct=not errors,
        attempted=prompts * len(checks),
        failed=sum(check.failed for check in checks),
        metrics=metrics,
        samples=samples,
        digest=next(iter(digests), ""),
        errors=errors,
    )


def layer_unit(name: str) -> str:
    if name.endswith(".exponent"):
        return "exponent"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("calls_per_prompt"):
        return "calls/prompt"
    return "count"


# --- output ---------------------------------------------------------------------------


def print_table(spec: WorkloadSpec, seed: int, outcome: Outcome, traced: bool) -> None:
    print(f"== {spec.name} (seed {seed}, {'traced' if traced else 'untraced'}) ==")
    print(f"  digest of deterministic artifacts: {outcome.digest or '-'}")
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")
    print(f"  {'metric':44s} {'unit':>12s} {'median':>14s}  tail, n, range")
    for name, (value, unit) in outcome.metrics.items():
        values = outcome.samples.get(name, [])
        tail = tail_percentile(values) if values else None
        extra = f"p{tail[0]:g}={tail[1]:.4f} " if tail else ("- " if values else "")
        if values:
            extra += f"n={len(values)} [{min(values):.4f} .. {max(values):.4f}]"
        print(f"  {name:44s} {unit:>12s} {value:14.6f}  {extra}")
    for table, rows in outcome.scaling.items():
        print(f"  scaling {table}: " + ", ".join(f"{label} n={n} {mean:.3f}ms" for label, n, mean in rows))


def result_line(outcome: Outcome) -> dict:
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the cleanup in run_pass and stub_server
    # stops and reaps every child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "eventqa" / "cli.py").is_file():
        print(f"error: no eventqa source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = measure_traced if args.trace else measure
            outcome = run(WORKLOADS[name], args.seed, args.seconds)
            print_table(WORKLOADS[name], args.seed, outcome, bool(args.trace))
            results[name] = result_line(outcome)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
