"""API spend estimation from token tallies and a pricing table.

All arithmetic is exact decimal: cost = input_tokens/1e6 * input price +
output_tokens/1e6 * output price. Prices live in a dated config file, not
in code; they change too often to hardcode. Rounding to cents happens only
at display time, the exact value is kept.
"""

from __future__ import annotations

import json
from collections import namedtuple
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import NamedTuple

from . import EventQAError
from .manifest import ManifestError, Reader

MILLION = Decimal(1_000_000)
CENT = Decimal("0.01")


class CostError(EventQAError):
    pass


class ModelPricing(namedtuple("ModelPricing", "input_per_million output_per_million")):
    """Decimal prices per million input and output tokens."""

    __slots__ = ()

    def __new__(cls, input_per_million: Decimal, output_per_million: Decimal) -> "ModelPricing":
        if input_per_million < 0 or output_per_million < 0:
            raise ValueError("prices must be non-negative")
        return super().__new__(cls, input_per_million, output_per_million)


class PricingTable(NamedTuple):
    label: str
    entries: dict[str, ModelPricing]

    def for_model(self, model_name: str) -> ModelPricing:
        try:
            return self.entries[model_name]
        except KeyError:
            raise CostError(f"no pricing for model {model_name!r} in table {self.label!r}") from None


class CostEstimate(NamedTuple):
    model_name: str
    input_tokens: int
    output_tokens: int
    total_cost: Decimal

    @property
    def display_cost(self) -> Decimal:
        return self.total_cost.quantize(CENT, rounding=ROUND_HALF_UP)

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "total_cost": str(self.total_cost),
            "display_cost": str(self.display_cost),
        }


def _price(value) -> Decimal:
    """``value`` as an exact decimal; ``ValueError`` unless it is a finite, non-negative number."""
    try:
        price = Decimal(str(value))
    except ArithmeticError:  # decimal.InvalidOperation, which is no ValueError: not a number
        raise ValueError(value) from None
    if not price.is_finite() or price < 0:
        raise ValueError(value)
    return price


# A price is a JSON string or number (never a bool), read as an exact decimal.
_PRICE = ((str, int, float), "a non-negative decimal", _price)
_MODEL_PRICING = Reader(ModelPricing, {"input_per_million": _PRICE, "output_per_million": _PRICE})


def load_pricing(path: str | Path) -> PricingTable:
    """Load a pricing config file: {"label": ..., "models": {name: {input_per_million, output_per_million}}}.

    Prices are read as strings so they stay exact decimals. A file that
    cannot be read, is not JSON, has no "models" object or holds a model
    entry that ``_MODEL_PRICING`` refuses raises ``CostError``.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CostError(f"cannot read pricing file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise CostError(f"pricing file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("models"), dict):
        raise CostError(f"pricing file {path} has no \"models\" object")
    entries = {}
    for name, prices in raw["models"].items():
        try:
            entries[name] = _MODEL_PRICING.read(prices)
        except ManifestError as exc:
            raise CostError(f"pricing file {path}: model {name!r}: {exc}") from None
    return PricingTable(label=str(raw.get("label", "")), entries=entries)


def estimate_cost(input_tokens: int, output_tokens: int, model_name: str, pricing: PricingTable) -> CostEstimate:
    """Exact linear cost of a token tally under a pricing table."""
    if input_tokens < 0 or output_tokens < 0:
        raise CostError("token counts must be non-negative")
    prices = pricing.for_model(model_name)
    total = (
        Decimal(input_tokens) / MILLION * prices.input_per_million
        + Decimal(output_tokens) / MILLION * prices.output_per_million
    )
    return CostEstimate(
        model_name=model_name,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        total_cost=total,
    )


def project_run_cost(
    prompts: int,
    input_tokens: int,
    expected_output_tokens: int,
    model_name: str,
    pricing: PricingTable,
) -> CostEstimate:
    """Project the cost of running a built prompt manifest from its tally.

    ``input_tokens`` is the sum of the per-prompt counts of ``prompts``
    prompts; every prompt is assumed to produce ``expected_output_tokens``
    of output.
    """
    if prompts == 0:
        raise CostError("cannot project cost of an empty prompt list")
    return estimate_cost(input_tokens, prompts * expected_output_tokens, model_name, pricing)
