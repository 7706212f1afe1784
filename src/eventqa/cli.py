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

Each stage imports only the layers it runs (see ``cmd_*``): a stage is its
own process, and without a bytecode cache every module it imports is
compiled again at start-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import EventQAError, manifest, vocab

if TYPE_CHECKING:
    from . import backends, corpus

PROMPTS_FILE = "prompts.ndjson"
RESPONSES_FILE = "responses.ndjson"
PREDICTIONS_FILE = "predictions.ndjson"
REJECTIONS_FILE = "rejections.ndjson"


class CliError(EventQAError):
    pass


def __getattr__(name: str):
    """``cli.verbalize_graph`` is the graph verbalizer, bound on first use so that no stage loads graphcore early."""
    if name != "verbalize_graph":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .graphcore import verbalize_graph
    return verbalize_graph


_HASH_CHUNK = 1 << 20


def _file_sha(path: str | Path) -> str:
    """The file's SHA-256 prefix, hashed a chunk at a time rather than read whole."""
    digest = manifest.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            digest.update(chunk)
            del chunk  # freed before the next read, so one chunk is held at a time
    return digest.hexdigest()[:16]


def _derived_seed(seed: int, *parts: str) -> int:
    digest = manifest.sha256(("|".join([str(seed), *parts])).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _parse_configs(raw: str) -> list[vocab.PromptConfig]:
    if raw.strip().lower() == "all":
        return list(vocab.all_configs())
    configs = [vocab.parse_selector(part) for part in raw.split(",") if part.strip()]
    if not configs:
        raise CliError(f"no configurations selected by {raw!r}")
    selectors = [config.selector for config in configs]
    repeated = sorted({selector for selector in selectors if selectors.count(selector) > 1})
    if repeated:
        raise CliError(f"configuration selected more than once by {raw!r}: {', '.join(repeated)}")
    return configs


def _load(args, path: str) -> corpus.LoadResult:
    from . import corpus

    schema = corpus.load_schema(args.schema) if args.schema else None
    return corpus.load_dataset(path, schema, strict=args.strict, graph_kind=vocab.GraphKind(args.graph_kind))


def _load_split(args) -> tuple[corpus.DatasetSplit, tuple[corpus.RejectedRecord, ...]]:
    from . import corpus

    result = _load(args, args.dataset)
    split = result.split
    if not split.instances:
        raise CliError(f"no instance of {args.dataset} survived loading ({len(result.rejections)} records rejected)")
    if args.split == corpus.SMALL:
        split = corpus.stratified_sample(split, corpus.SMALL_SIZE, seed=args.seed)
    elif args.split != corpus.FULL:
        try:
            size = int(args.split)
        except ValueError:
            raise CliError(f"--split must be 'full', 'small', or an integer, got {args.split!r}") from None
        split = corpus.stratified_sample(split, size, seed=args.seed, name=f"custom-{size}")
    if not split.instances:
        raise CliError(f"--split {args.split} keeps no instance of {args.dataset}")
    return split, result.rejections


def cmd_build(args) -> int:
    from . import graphcore, promptkit

    configs = _parse_configs(args.configs)
    split, rejections = _load_split(args)

    config_payload = {
        "stage": "build",
        "dataset_sha": _file_sha(args.dataset),
        "split": args.split,
        "configs": [c.selector for c in configs],
        "seed": args.seed,
        "graph_kind": args.graph_kind,
        "strict": args.strict,
        "context_limit": args.context_limit,
        "tokenizer": vocab.TOKENIZER,
        "demo_pool_sha": _file_sha(args.demo_pool) if args.demo_pool else None,
    }
    header = manifest.make_header("build", args.seed, config_payload)

    pool = promptkit.DemoPool()
    if any(config.demo_count > 0 for config in configs):
        if not args.demo_pool:
            raise CliError("--demo-pool is required for few-shot and chain-of-thought configurations")
        pool = promptkit.DemoPool(_load(args, args.demo_pool).split.instances)
        overlap = pool.ids & {i.instance_id for i in split.instances}
        if overlap:
            raise CliError(f"demo pool is contaminated by evaluation instances: {sorted(overlap)[:5]}")

    # Visiting instances by id and configurations by selector makes the
    # records in manifest order, so each is written as soon as it is made.
    tallies: dict[str, list[int]] = {}  # selector -> [prompts, tokens, truncated prompts]

    def records():
        for instance in sorted(split.instances, key=lambda i: i.instance_id):
            verbalized = graphcore.verbalize_graph(instance.graph) if instance.graph is not None else None
            for config in sorted(configs, key=lambda c: c.selector):
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
                        budget=args.context_limit,
                    )
                except promptkit.PromptError as exc:
                    raise CliError(f"building {config.selector} for instance {instance.instance_id!r}: {exc}") from exc
                tally = tallies.setdefault(config.selector, [0, 0, 0])
                tally[0] += 1
                tally[1] += record.token_count
                tally[2] += record.truncation_applied
                yield record.to_dict()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest.write_ndjson(out / PROMPTS_FILE, header, records())
    # Written only once the prompts are, so a failed build leaves the
    # previous build's rejection log in place.
    manifest.write_ndjson(
        out / REJECTIONS_FILE,
        header,
        ({"instance_id": r.instance_id, "reason": r.reason} for r in rejections),
    )

    built = sum(n for n, _, _ in tallies.values())
    print(f"built {built} prompts for {len(split.instances)} instances -> {out / PROMPTS_FILE}")
    for selector in sorted(tallies):
        n, tokens, truncated = tallies[selector]
        print(f"  {selector:10s} n={n:5d} mean_tokens={tokens / n:8.1f} truncated={truncated:5d}")
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
    from . import backends

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
        # Built anew rather than through ``_replace``, so the spec's checks run on the new value.
        spec = backends.BackendSpec(**{**spec._asdict(), "max_concurrency": args.max_concurrency})
    return spec


def cmd_run(args) -> int:
    from . import backends

    out = Path(args.out)
    prompts_header, prompt_rows = manifest.read_ndjson(out / PROMPTS_FILE)
    spec = _resolve_backend(args)

    config_payload = {
        "stage": "run",
        "backend": {
            "name": spec.name,
            "kind": spec.kind.value,
            "model_name": spec.model_name,
            "context_limit": spec.context_limit,
            "tokenizer": vocab.TOKENIZER,
        },
        "prompts_hash": prompts_header["config_hash"],
    }
    header = manifest.make_header("run", 0, config_payload)

    try:
        result = backends.run_batch(spec, prompt_rows, out / RESPONSES_FILE, header)
    except backends.ContextOverflowError as exc:
        raise CliError(f"{exc}; rebuild with --context-limit") from None
    print(f"ran {result.completed} completions on {spec.name} -> {out / RESPONSES_FILE}")
    if result.failures:
        print(f"  {len(result.failures)} requests failed:", file=sys.stderr)
        for failure in result.failures[:10]:
            print(f"    {failure.instance_id}/{failure.config}: {failure.error}", file=sys.stderr)
        return 1
    return 0


def cmd_score(args) -> int:
    from . import evalkit, extract

    out = Path(args.out)
    responses_header, response_rows = manifest.read_ndjson(out / RESPONSES_FILE)
    schema = vocab.DEFAULT_SCHEMA
    if args.schema:
        from . import corpus

        schema = corpus.load_schema(args.schema)
    try:
        labels = vocab.read_labels(args.dataset, schema)
    except OSError as exc:
        raise CliError(f"cannot read dataset {args.dataset}: {exc.strerror or exc}") from None

    config_payload = {"stage": "score", "responses_hash": responses_header["config_hash"]}
    header = manifest.make_header("score", 0, config_payload)

    # A successful run leaves its responses in prediction order, so each
    # prediction is written and scored as it is made. Responses in any other
    # order are sorted on disk once written, and scored from the sorted file.
    scorer = evalkit.Scorer()
    in_order = True

    def predictions():
        nonlocal in_order
        for response in manifest.read_rows(vocab.RESPONSE_ROW, response_rows, out / RESPONSES_FILE):
            label = labels.get(response.instance_id)  # (gold, category)
            if label is None:
                raise CliError(
                    f"response for unknown instance {response.instance_id!r}: no single gold label in --dataset"
                )
            # instance_id, config and backend come first in both records.
            prediction = evalkit.PredictionRecord(*response[:3], extract.extract_answer(response.raw_text), *label)
            in_order = in_order and scorer.add(prediction)
            yield prediction.to_dict()

    manifest.write_ndjson(out / PREDICTIONS_FILE, header, predictions())
    report = scorer.report
    if not in_order:
        manifest.sort_ndjson(out / PREDICTIONS_FILE, lambda row: evalkit.PREDICTION_ROW.read(row).identity)
        _, rows = manifest.read_ndjson(out / PREDICTIONS_FILE)
        report = evalkit.score(manifest.read_rows(evalkit.PREDICTION_ROW, rows, out / PREDICTIONS_FILE))

    print(f"scored {sum(cell.n for cell in report.cells.values())} predictions -> {out / PREDICTIONS_FILE}")
    print(evalkit.format_accuracy_table(report))
    return 0


def cmd_report(args) -> int:
    from . import evalkit

    out = Path(args.out)
    predictions_header, rows = manifest.read_ndjson(out / PREDICTIONS_FILE)
    report = evalkit.score(manifest.read_rows(evalkit.PREDICTION_ROW, rows, out / PREDICTIONS_FILE))

    config_payload = {"stage": "report", "predictions_hash": predictions_header["config_hash"]}
    header = manifest.make_header("report", 0, config_payload)
    evalkit.emit_report(report, evalkit.ReportFormat.JSON, out / "report.json", header)
    evalkit.emit_report(report, evalkit.ReportFormat.CSV, out / "report.csv", header)
    evalkit.emit_plot_data(report, evalkit.PlotGrouping.BY_STRATEGY, out / "plot_by_strategy.csv", header)
    evalkit.emit_plot_data(report, evalkit.PlotGrouping.BY_MODALITY, out / "plot_by_modality.csv", header)
    for name in ("report.json", "report.csv", "plot_by_strategy.csv", "plot_by_modality.csv"):
        print(f"wrote {out / name}")
    return 0


def _default_pricing_path() -> Path:
    return Path(__file__).with_name("data") / "pricing_2025-05.json"


def cmd_cost(args) -> int:
    from decimal import Decimal

    from . import costmodel

    out = Path(args.out)
    prompts_header, prompt_rows = manifest.read_ndjson(out / PROMPTS_FILE)
    pricing = costmodel.load_pricing(args.pricing or _default_pricing_path())

    # (prompts, input tokens) per strategy, in first-seen order.
    tallies: dict[vocab.Strategy, list[int]] = {}
    for prompt in manifest.read_rows(vocab.PROMPT_ROW, prompt_rows, out / PROMPTS_FILE):
        tally = tallies.setdefault(prompt.config.strategy, [0, 0])
        tally[0] += 1
        tally[1] += prompt.token_count
    if not tallies:
        raise CliError(f"{out / PROMPTS_FILE} holds no prompts to cost")

    if args.expected_output_tokens is not None:
        prompts = sum(n for n, _ in tallies.values())
        input_tokens = sum(tokens for _, tokens in tallies.values())
        estimate = costmodel.project_run_cost(prompts, input_tokens, args.expected_output_tokens, args.model, pricing)
    else:
        # Default output budgets differ by strategy; cost is additive, so
        # project per strategy and sum.
        total = Decimal(0)
        input_tokens = output_tokens = 0
        for strategy, (prompts, tokens) in tallies.items():
            budget = vocab.output_budget(strategy)
            part = costmodel.project_run_cost(prompts, tokens, budget, args.model, pricing)
            total += part.total_cost
            input_tokens += part.input_tokens
            output_tokens += part.output_tokens
        estimate = costmodel.CostEstimate(
            model_name=args.model, input_tokens=input_tokens, output_tokens=output_tokens, total_cost=total
        )

    config_payload = {"stage": "cost", "prompts_hash": prompts_header["config_hash"], "model": args.model}
    header = manifest.make_header("cost", 0, config_payload)
    payload = {manifest.HEADER_KEY: header, "estimate": estimate.to_dict(), "pricing_label": pricing.label}
    (out / "cost.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"projected cost for {args.model}: ${estimate.display_cost} -> {out / 'cost.json'}")
    return 0


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="newline-delimited JSON dataset file")
    parser.add_argument("--schema", help="schema descriptor file remapping dataset field names")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eventqa", description="Event-QA prompting and evaluation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble prompts for the selected configurations")
    _add_dataset_flags(p_build)
    p_build.add_argument("--split", default="full", help="'full', 'small' (1024), or an integer sample size")
    p_build.add_argument("--strict", action="store_true", help="abort on the first malformed record")
    p_build.add_argument(
        "--graph-kind",
        choices=[kind.value for kind in vocab.GraphKind],
        default=vocab.GraphKind.INSTANCE.value,
        help="which graph to use when an instance carries several",
    )
    p_build.add_argument("--out", required=True, help="output directory for pipeline artifacts")
    p_build.add_argument("--configs", default="all", help="'all' or comma list like zero-text,cot-tag")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--demo-pool", help="dataset file of held-out demonstration instances")
    p_build.add_argument("--context-limit", type=int, help="truncate prompts to this token budget")
    p_build.set_defaults(func=cmd_build)

    p_run = sub.add_parser("run", help="send built prompts to a backend")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--backend", required=True, help="backend name ('oracle', 'mock', or from --backends-config)")
    p_run.add_argument("--backends-config", help="JSON file mapping backend names to specs")
    p_run.add_argument("--fixtures", help="mock fixtures file (prompt hash -> response text)")
    p_run.add_argument("--max-concurrency", type=int)
    p_run.set_defaults(func=cmd_run)

    p_score = sub.add_parser("score", help="extract answers and score against gold labels")
    _add_dataset_flags(p_score)
    p_score.add_argument("--out", required=True)
    p_score.set_defaults(func=cmd_score)

    p_report = sub.add_parser("report", help="emit accuracy reports and plot data")
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=cmd_report)

    p_cost = sub.add_parser("cost", help="project API spend for the built prompts")
    p_cost.add_argument("--out", required=True)
    p_cost.add_argument("--model", required=True)
    p_cost.add_argument("--pricing", help="pricing config file (defaults to the bundled table)")
    p_cost.add_argument("--expected-output-tokens", type=int)
    p_cost.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EventQAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
