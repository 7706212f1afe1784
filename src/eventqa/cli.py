"""Command-line pipeline: build -> run -> score -> report / cost.

Stages are coupled through files in the output directory so each one can
be rerun or resumed on its own:

    prompts.ndjson      built prompt records        (build)
    responses.ndjson    backend completions         (run, resumable)
    predictions.ndjson  extracted + scored answers  (score)
    report.json/.csv    accuracy aggregates         (report)
    plot_by_*.csv       per-category bar data       (report)
    cost.json           projected spend             (cost)

Every file starts with a provenance header (seed, config hash, version).
With the deterministic backends (oracle, mock) the whole pipeline is
byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from decimal import Decimal
from importlib import resources
from pathlib import Path

from . import backends, corpus, costmodel, evalkit, extract, manifest, promptkit
from .graphcore import verbalize_graph

PROMPTS_FILE = "prompts.ndjson"
RESPONSES_FILE = "responses.ndjson"
PREDICTIONS_FILE = "predictions.ndjson"
REJECTIONS_FILE = "rejections.ndjson"

_ERRORS = (
    corpus.CorpusError,
    promptkit.PromptError,
    backends.BackendError,
    manifest.ManifestError,
    evalkit.ScoringError,
    costmodel.CostError,
)


class CliError(Exception):
    pass


def _file_sha(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _derived_seed(seed: int, *parts: str) -> int:
    digest = hashlib.sha256(("|".join([str(seed), *parts])).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _parse_configs(raw: str) -> list[promptkit.PromptConfig]:
    if raw.strip().lower() == "all":
        return list(promptkit.all_configs())
    configs = [promptkit.parse_selector(part) for part in raw.split(",") if part.strip()]
    if not configs:
        raise CliError(f"no configurations selected by {raw!r}")
    return configs


def _load_split(args) -> tuple[corpus.DatasetSplit, tuple[corpus.RejectedRecord, ...]]:
    schema = corpus.load_schema(args.schema) if args.schema else None
    result = corpus.load_dataset(
        args.dataset,
        schema,
        strict=args.strict,
        graph_kind=corpus.GraphKind(args.graph_kind),
    )
    split = result.split
    if args.split == corpus.SMALL:
        split = corpus.stratified_sample(split, corpus.SMALL_SIZE, seed=args.seed)
    elif args.split != corpus.FULL:
        try:
            size = int(args.split)
        except ValueError:
            raise CliError(f"--split must be 'full', 'small', or an integer, got {args.split!r}") from None
        split = corpus.stratified_sample(split, size, seed=args.seed, name=f"custom-{size}")
    return split, result.rejections


def cmd_build(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split, rejections = _load_split(args)
    configs = _parse_configs(args.configs)

    config_payload = {
        "stage": "build",
        "dataset_sha": _file_sha(args.dataset),
        "split": args.split,
        "configs": [c.selector for c in configs],
        "seed": args.seed,
        "graph_kind": args.graph_kind,
        "strict": args.strict,
        "context_limit": args.context_limit,
        "tokenizer": args.tokenizer,
        "demo_pool_sha": _file_sha(args.demo_pool) if args.demo_pool else None,
    }
    header = manifest.make_header("build", args.seed, config_payload)
    manifest.write_ndjson(
        out / REJECTIONS_FILE,
        header,
        ({"instance_id": r.instance_id, "reason": r.reason} for r in rejections),
    )

    pool = promptkit.DemoPool()
    if any(config.demo_count > 0 for config in configs):
        if not args.demo_pool:
            raise CliError("--demo-pool is required for few-shot and chain-of-thought configurations")
        pool_result = corpus.load_dataset(
            args.demo_pool,
            corpus.load_schema(args.schema) if args.schema else None,
            strict=args.strict,
            graph_kind=corpus.GraphKind(args.graph_kind),
        )
        pool = promptkit.DemoPool(pool_result.split.instances)
        overlap = pool.ids & {i.instance_id for i in split.instances}
        if overlap:
            raise CliError(f"demo pool is contaminated by evaluation instances: {sorted(overlap)[:5]}")

    records: list[promptkit.PromptRecord] = []
    for instance in split.instances:
        verbalized = verbalize_graph(instance.graph) if instance.graph is not None else None
        for config in configs:
            if config.includes_graph and verbalized is None:
                raise CliError(f"instance {instance.instance_id!r} has no graph but {config.selector} needs one")
            try:
                demos = promptkit.select_demonstrations(
                    pool,
                    config,
                    seed=_derived_seed(args.seed, instance.instance_id, config.selector),
                    exclude_ids={instance.instance_id},
                )
                record = promptkit.assemble_prompt(
                    instance,
                    config,
                    demos,
                    verbalized if config.includes_graph else None,
                    tokenizer=args.tokenizer,
                )
                if args.context_limit is not None:
                    record = promptkit.truncate_to_budget(record, args.context_limit)
            except promptkit.PromptError as exc:
                raise CliError(f"building {config.selector} for instance {instance.instance_id!r}: {exc}") from exc
            records.append(record)

    records.sort(key=lambda r: (r.instance_id, r.config.selector))
    manifest.write_ndjson(out / PROMPTS_FILE, header, (r.to_dict() for r in records))

    by_config: dict[str, list[int]] = {}
    for record in records:
        by_config.setdefault(record.config.selector, []).append(record.token_count)
    print(f"built {len(records)} prompts for {len(split.instances)} instances -> {out / PROMPTS_FILE}")
    for selector in sorted(by_config):
        counts = by_config[selector]
        print(f"  {selector:10s} n={len(counts):5d} mean_tokens={sum(counts) / len(counts):8.1f}")
    if rejections:
        print(f"  rejected {len(rejections)} records -> {out / REJECTIONS_FILE}")
    return 0


def _read_backends_config(path: str, backend: str) -> dict[str, dict]:
    where = f"backends config {path} (for backend {backend!r})"
    try:
        table = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read {where}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise CliError(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(table, dict) or not isinstance(table.get(backend, {}), dict):
        raise CliError(f"{where} must map backend names to JSON objects")
    return table


def _resolve_backend(args) -> backends.BackendSpec:
    table = _read_backends_config(args.backends_config, args.backend) if args.backends_config else {}
    if args.backend in table:
        spec = backends.BackendSpec.from_dict({"name": args.backend, **table[args.backend]})
    elif args.backend == "oracle":
        spec = backends.BackendSpec(name="oracle", kind=backends.BackendKind.ORACLE)
    elif args.backend == "mock" and args.fixtures:
        spec = backends.BackendSpec(name="mock", kind=backends.BackendKind.MOCK, fixtures_path=args.fixtures)
    else:
        raise CliError(
            f"unknown backend {args.backend!r}; define it in --backends-config "
            "(builtins: 'oracle', and 'mock' with --fixtures)"
        )
    if args.max_concurrency is not None:
        spec = dataclasses.replace(spec, max_concurrency=args.max_concurrency)  # re-runs the spec's checks
    return spec


def cmd_run(args) -> int:
    out = Path(args.out)
    prompts_header, prompt_rows = manifest.read_ndjson(out / PROMPTS_FILE)
    prompts = [promptkit.PromptRecord.from_dict(row) for row in prompt_rows]
    spec = _resolve_backend(args)

    config_payload = {
        "stage": "run",
        "backend": {
            "name": spec.name,
            "kind": spec.kind.value,
            "model_name": spec.model_name,
            "context_limit": spec.context_limit,
            "tokenizer": spec.tokenizer,
        },
        "prompts_hash": prompts_header["config_hash"],
    }
    header = manifest.make_header("run", args.seed, config_payload)

    oversized = [n for n in (p.count_under(spec.tokenizer) for p in prompts) if n > spec.context_limit]
    if oversized:
        raise CliError(
            f"{len(oversized)} prompts exceed the {spec.context_limit}-token context limit of {spec.name} "
            f"(largest: {max(oversized)}); rebuild with --context-limit"
        )

    result = backends.run_batch(spec, prompts, out / RESPONSES_FILE, header)
    print(f"ran {len(result.responses)} completions on {spec.name} -> {out / RESPONSES_FILE}")
    if result.failures:
        print(f"  {len(result.failures)} requests failed:", file=sys.stderr)
        for failure in result.failures[:10]:
            print(f"    {failure.instance_id}/{failure.config}: {failure.error}", file=sys.stderr)
        return 1
    return 0


def cmd_score(args) -> int:
    out = Path(args.out)
    responses_header, response_rows = manifest.read_ndjson(out / RESPONSES_FILE)
    split, _ = _load_split(args)
    by_id = {instance.instance_id: instance for instance in split.instances}

    predictions: list[evalkit.PredictionRecord] = []
    for row in response_rows:
        instance = by_id.get(row["instance_id"])
        if instance is None:
            raise CliError(f"response for unknown instance {row['instance_id']!r}; wrong --dataset or --split?")
        predictions.append(
            evalkit.PredictionRecord(
                instance_id=row["instance_id"],
                config=promptkit.parse_selector(row["config"]),
                backend=row["backend"],
                extracted=extract.extract_answer(row["raw_text"]),
                gold=instance.gold_answer,
                category=instance.category,
            )
        )
    predictions.sort(key=lambda p: (p.instance_id, p.config.selector, p.backend))

    config_payload = {"stage": "score", "responses_hash": responses_header["config_hash"]}
    header = manifest.make_header("score", args.seed, config_payload)
    manifest.write_ndjson(out / PREDICTIONS_FILE, header, (p.to_dict() for p in predictions))

    report = evalkit.score(predictions)
    print(f"scored {len(predictions)} predictions -> {out / PREDICTIONS_FILE}")
    print(evalkit.format_accuracy_table(report))
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    predictions_header, rows = manifest.read_ndjson(out / PREDICTIONS_FILE)
    predictions = [evalkit.PredictionRecord.from_dict(row) for row in rows]
    report = evalkit.score(predictions)

    config_payload = {"stage": "report", "predictions_hash": predictions_header["config_hash"]}
    header = manifest.make_header("report", args.seed, config_payload)
    evalkit.emit_report(report, evalkit.ReportFormat.JSON, out / "report.json", header)
    evalkit.emit_report(report, evalkit.ReportFormat.CSV, out / "report.csv", header)
    evalkit.emit_plot_data(report, evalkit.PlotGrouping.BY_STRATEGY, out / "plot_by_strategy.csv", header)
    evalkit.emit_plot_data(report, evalkit.PlotGrouping.BY_MODALITY, out / "plot_by_modality.csv", header)
    for name in ("report.json", "report.csv", "plot_by_strategy.csv", "plot_by_modality.csv"):
        print(f"wrote {out / name}")
    return 0


def _default_pricing_path() -> Path:
    return Path(str(resources.files("eventqa") / "data" / "pricing_2025-05.json"))


def cmd_cost(args) -> int:
    out = Path(args.out)
    prompts_header, prompt_rows = manifest.read_ndjson(out / PROMPTS_FILE)
    prompts = [promptkit.PromptRecord.from_dict(row) for row in prompt_rows]
    pricing = costmodel.load_pricing(args.pricing or _default_pricing_path())

    if args.expected_output_tokens is not None:
        estimate = costmodel.project_run_cost(prompts, args.expected_output_tokens, args.model, pricing)
    else:
        # Default output budgets differ by strategy; cost is additive, so
        # project per strategy group and sum.
        groups: dict[promptkit.Strategy, list[promptkit.PromptRecord]] = {}
        for record in prompts:
            groups.setdefault(record.config.strategy, []).append(record)
        total = Decimal(0)
        input_tokens = output_tokens = 0
        for strategy, group in groups.items():
            part = costmodel.project_run_cost(group, backends.output_budget(strategy), args.model, pricing)
            total += part.total_cost
            input_tokens += part.input_tokens
            output_tokens += part.output_tokens
        estimate = costmodel.CostEstimate(
            model_name=args.model, input_tokens=input_tokens, output_tokens=output_tokens, total_cost=total
        )

    config_payload = {"stage": "cost", "prompts_hash": prompts_header["config_hash"], "model": args.model}
    header = manifest.make_header("cost", args.seed, config_payload)
    payload = {manifest.HEADER_KEY: header, "estimate": estimate.to_dict(), "pricing_label": pricing.label}
    (out / "cost.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"projected cost for {args.model}: ${estimate.display_cost} -> {out / 'cost.json'}")
    return 0


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="newline-delimited JSON dataset file")
    parser.add_argument("--schema", help="schema descriptor file remapping dataset field names")
    parser.add_argument("--split", default=corpus.FULL, help="'full', 'small' (1024), or an integer sample size")
    parser.add_argument("--strict", action="store_true", help="abort on the first malformed record")
    parser.add_argument(
        "--graph-kind",
        choices=[kind.value for kind in corpus.GraphKind],
        default=corpus.GraphKind.INSTANCE.value,
        help="which graph to use when an instance carries several",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eventqa", description="Event-QA prompting and evaluation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble prompts for the selected configurations")
    _add_dataset_flags(p_build)
    p_build.add_argument("--out", required=True, help="output directory for pipeline artifacts")
    p_build.add_argument("--configs", default="all", help="'all' or comma list like zero-text,cot-tag")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--demo-pool", help="dataset file of held-out demonstration instances")
    p_build.add_argument("--context-limit", type=int, help="truncate prompts to this token budget")
    p_build.add_argument("--tokenizer", default=promptkit.DEFAULT_TOKENIZER)
    p_build.set_defaults(func=cmd_build)

    p_run = sub.add_parser("run", help="send built prompts to a backend")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--backend", required=True, help="backend name ('oracle', 'mock', or from --backends-config)")
    p_run.add_argument("--backends-config", help="JSON file mapping backend names to specs")
    p_run.add_argument("--fixtures", help="mock fixtures file (prompt hash -> response text)")
    p_run.add_argument("--max-concurrency", type=int)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=cmd_run)

    p_score = sub.add_parser("score", help="extract answers and score against gold labels")
    _add_dataset_flags(p_score)
    p_score.add_argument("--out", required=True)
    p_score.add_argument("--seed", type=int, default=0)
    p_score.set_defaults(func=cmd_score)

    p_report = sub.add_parser("report", help="emit accuracy reports and plot data")
    p_report.add_argument("--out", required=True)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.set_defaults(func=cmd_report)

    p_cost = sub.add_parser("cost", help="project API spend for the built prompts")
    p_cost.add_argument("--out", required=True)
    p_cost.add_argument("--model", required=True)
    p_cost.add_argument("--pricing", help="pricing config file (defaults to the bundled table)")
    p_cost.add_argument("--expected-output-tokens", type=int)
    p_cost.add_argument("--seed", type=int, default=0)
    p_cost.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, *_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
