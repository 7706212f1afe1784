"""One pipeline pass in a fresh, lean process; writes its measurements as JSON.

Usage: ``python3 perfbench/one_pass.py <plan.json> <result.json>``.

With ``"mode": "processes"`` each stage runs as its own
``python3 -m eventqa.cli`` process, preceded by the start-up probes. Stages
are spawned from here rather than from ``run.py`` because a
child's ``ru_maxrss`` also counts the resident set of the process that
spawned it; this process stays small, so the figure is the stage's own peak.
After the pipeline, each stage named in ``"retime"`` that took less than
``"retime_below_s"`` runs again until it has ``"retime_count"`` timings:
start-up jitter dominates such short stages. Only stages that rewrite the
same bytes when rerun are named there.

With ``"mode": "in-process"`` every stage is called through ``cli.main``
in this process; with ``"trace": true`` the layer wrappers of ``tracer``
are installed first, the per-layer table is computed after the last
stage, and the spans are written next to the result file.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def _spawn(argv: list[str], sink) -> tuple[float, int, float]:
    """(wall s, exit code, peak RSS MB) of one child process."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=sink, stderr=sink)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def run_processes(plan: dict) -> dict:
    result: dict = {"setup": [], "walls": {}, "exits": {}, "rss": {}}
    with open(plan["log"], "a", encoding="utf-8") as sink:
        for _ in range(plan["probes"]):
            wall, code, _ = _spawn([sys.executable, "-c", plan["probe"]], sink)
            if code != 0:
                result["exits"]["setup"] = code
                return result
            result["setup"].append(wall)
        argvs = dict(plan["stages"])

        def timed(stage: str) -> bool:
            wall, code, rss = _spawn([sys.executable, "-m", "eventqa.cli", *argvs[stage]], sink)
            result["walls"].setdefault(stage, []).append(wall)
            result["exits"][stage] = code
            result["rss"][stage] = max(rss, result["rss"].get(stage, 0.0))
            return code == 0

        if all(timed(stage) for stage in argvs):
            for stage in plan["retime"]:
                walls = result["walls"][stage]
                while walls[0] < plan["retime_below_s"] and len(walls) < plan["retime_count"] and timed(stage):
                    pass
    return result


def run_in_process(plan: dict, result_path: Path) -> dict:
    sys.path.insert(0, plan["src"])
    from eventqa import cli

    from tracer import Tracer, install, layer_metrics

    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        install(tracer)
    result: dict = {"walls": {}, "exits": {}}
    with open(plan["log"], "a", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        for stage, argv in plan["stages"]:
            span = tracer.span(f"cli.{stage}") if tracer is not None else contextlib.nullcontext()
            start = perf_counter()
            with span:
                result["exits"][stage] = cli.main(argv)
            result["walls"][stage] = [perf_counter() - start]
            if result["exits"][stage] != 0:
                break
    if tracer is not None:
        result["metrics"], result["scaling"] = layer_metrics(tracer.spans, plan["prompts"])
        with open(result_path.with_name("spans.tsv"), "w", encoding="utf-8") as sink:
            sink.write("id\tname\tstart\tend\tparent\tthread\n")
            for s in tracer.spans:
                sink.write(f"{s.id}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent or ''}\t{s.thread}\n")
    return result


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    if plan["mode"] == "processes":
        result = run_processes(plan)
    else:
        result = run_in_process(plan, Path(result_path))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
