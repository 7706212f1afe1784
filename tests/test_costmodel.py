from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from eventqa.costmodel import (
    CostError,
    CostEstimate,
    ModelPricing,
    PricingTable,
    estimate_cost,
    load_pricing,
)

# Recorded full-run token tallies with their reported dollar costs; two
# same-model rows form a 2x2 linear system in (input, output) price.
GPT35_ZERO = (9_700_000, 53_000, Decimal("4.95"))
GPT35_FEW = (12_600_000, 53_000, Decimal("6.36"))
GPT4O_COT = (21_100_000, 212_000_000, Decimal("957.16"))


def back_solve_gpt35() -> tuple[Fraction, Fraction]:
    """Solve the two GPT-3.5 rows exactly for (input, output) price per million."""
    in_a, out_a, cost_a = GPT35_ZERO
    in_b, out_b, cost_b = GPT35_FEW
    assert out_a == out_b, "rows must isolate the input price"
    input_price = (Fraction(str(cost_b)) - Fraction(str(cost_a))) / Fraction(in_b - in_a, 1_000_000)
    output_price = (Fraction(str(cost_a)) - Fraction(in_a, 1_000_000) * input_price) / Fraction(out_a, 1_000_000)
    # Sanity: the solved prices reproduce both rows exactly.
    for tokens_in, tokens_out, cost in (GPT35_ZERO, GPT35_FEW):
        total = Fraction(tokens_in, 1_000_000) * input_price + Fraction(tokens_out, 1_000_000) * output_price
        assert total == Fraction(str(cost))
    return input_price, output_price


def _decimal(fraction: Fraction, places: str = "0.000000000001") -> Decimal:
    return (Decimal(fraction.numerator) / Decimal(fraction.denominator)).quantize(Decimal(places))


@pytest.fixture
def solved_pricing() -> PricingTable:
    input_price, output_price = back_solve_gpt35()
    # GPT-4o: one row, two unknowns; fix the input price at its known tier
    # and solve the output price so the formula is what the test exercises.
    gpt4o_input = Fraction("2.50")
    gpt4o_output = (Fraction(str(GPT4O_COT[2])) - Fraction(GPT4O_COT[0], 1_000_000) * gpt4o_input) / Fraction(
        GPT4O_COT[1], 1_000_000
    )
    return PricingTable(
        label="back-solved",
        entries={
            "gpt-3.5-turbo": ModelPricing(_decimal(input_price), _decimal(output_price)),
            "gpt-4o": ModelPricing(_decimal(gpt4o_input), _decimal(gpt4o_output)),
        },
    )


class TestEstimate:
    def test_reproduces_both_published_gpt35_rows(self, solved_pricing):
        for tokens_in, tokens_out, expected in (GPT35_ZERO, GPT35_FEW):
            estimate = estimate_cost(tokens_in, tokens_out, "gpt-3.5-turbo", solved_pricing)
            assert abs(estimate.total_cost - expected) <= Decimal("0.05")

    def test_zero_tokens_cost_nothing(self, solved_pricing):
        estimate = estimate_cost(0, 0, "gpt-3.5-turbo", solved_pricing)
        assert estimate.total_cost == 0
        assert estimate.display_cost == Decimal("0.00")

    def test_doubling_tokens_doubles_cost(self, solved_pricing):
        single = estimate_cost(1_234_567, 89_012, "gpt-3.5-turbo", solved_pricing)
        double = estimate_cost(2_469_134, 178_024, "gpt-3.5-turbo", solved_pricing)
        assert double.total_cost == 2 * single.total_cost

    def test_unknown_model_rejected(self, solved_pricing):
        with pytest.raises(CostError, match="no pricing"):
            estimate_cost(10, 10, "mystery-model", solved_pricing)

    def test_additivity_across_batches(self, solved_pricing):
        batches = [(100_000, 2_000), (5_000, 70_000), (999_999, 1)]
        parts = [estimate_cost(i, o, "gpt-4o", solved_pricing).total_cost for i, o in batches]
        whole = estimate_cost(sum(i for i, _ in batches), sum(o for _, o in batches), "gpt-4o", solved_pricing)
        assert sum(parts) == whole.total_cost
        assert sum(reversed(parts)) == whole.total_cost  # no float drift under reordering

    def test_negative_tokens_rejected(self, solved_pricing):
        with pytest.raises(CostError):
            estimate_cost(-1, 0, "gpt-4o", solved_pricing)


class TestProjection:
    def test_gpt4o_run_within_a_dollar(self, solved_pricing):
        estimate = estimate_cost(1000 * 21_100, 1000 * 212_000, "gpt-4o", solved_pricing)
        assert estimate.input_tokens == GPT4O_COT[0]
        assert estimate.output_tokens == GPT4O_COT[1]
        assert abs(estimate.total_cost - GPT4O_COT[2]) <= Decimal("1.00")

    def test_simple_arithmetic(self):
        pricing = PricingTable("flat", {"m": ModelPricing(Decimal("1"), Decimal("1"))})
        estimate = estimate_cost(10 * 100, 10 * 30, "m", pricing)
        assert estimate.total_cost == Decimal("0.0013")

    def test_zero_expected_output_is_input_only(self, solved_pricing):
        with_output = estimate_cost(10 * 1000, 10 * 50, "gpt-4o", solved_pricing)
        without = estimate_cost(10 * 1000, 10 * 0, "gpt-4o", solved_pricing)
        assert without.output_tokens == 0
        assert without.total_cost < with_output.total_cost


class TestPricingConfig:
    def test_load_pricing_file(self, tmp_path):
        path = tmp_path / "prices.json"
        path.write_text(
            json.dumps(
                {"label": "test-2026", "models": {"m": {"input_per_million": "0.25", "output_per_million": 2}}}
            )
        )
        table = load_pricing(path)
        assert table.label == "test-2026"
        assert table.for_model("m") == ModelPricing(Decimal("0.25"), Decimal("2"))

    def test_bundled_default_loads(self):
        from eventqa.cli import _default_pricing_path

        table = load_pricing(_default_pricing_path())
        assert "gpt-3.5-turbo" in table.entries

    def test_display_rounds_to_cents(self):
        estimate = CostEstimate("m", 1, 1, Decimal("4.93456"))
        assert estimate.display_cost == Decimal("4.93")
