"""Tests of the benchmark itself: query generation, oracle, scoring, tracing."""

import contextlib
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import genuskit  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _mix(data):
    """Verbs and spec shapes in list order, without the seeded values."""
    verbs = [q["verb"] for q in data["queries"]]
    shapes = [(s["m"], tuple(s["blocks"]), len(s["generators"])) for s in data["specs"]]
    return verbs, shapes


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_list(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_values_same_mix(name):
    a, b = workloads.build(name, 7), workloads.build(name, 8)
    assert a != b
    assert _mix(a) == _mix(b)


def test_catalog_mix():
    data = workloads.catalog(3)
    verbs = Counter(q["verb"] for q in data["queries"])
    assert verbs["genus-pullback"] == 60
    levels = [int(q["argv"][1]) for q in data["queries"] if q["verb"] == "genus-pullback"]
    assert len(set(levels)) == 60 and min(levels) >= 2 and max(levels) <= 160
    assert verbs["genus-order"] == verbs["double-cosets"] == len(data["specs"]) == 30
    assert verbs["gl-order"] == verbs["stable-image"] == 17
    assert verbs["check"] == 3
    assert sum(verbs.values()) >= 100  # enough samples for a p90


def test_matrix_orders_cover_every_shape_and_pattern():
    data = workloads.matrix_orders(5)
    assert len(data["queries"]) == 98
    seen = Counter((s["m"], tuple(s["blocks"])) for s in data["specs"])
    assert set(seen) == {(m, b) for b, m in workloads.MATRIX_ORDER_SHAPES}
    assert set(seen.values()) == {len(workloads.STYLE_PATTERNS)}


@pytest.mark.parametrize("blocks", [(2,), (1, 2), (1, 1, 1), (1, 1)])
def test_full_pattern_generates_the_whole_ring(blocks):
    m = 6
    spec = workloads.random_spec(random.Random(0), m, blocks, workloads.FULL)
    subring = genuskit.subring_closure(genuskit.order_spec_from_dict(spec))
    assert len(subring) == m ** sum(r * r for r in blocks)


def _small_specs(seed, count):
    rng = random.Random(seed)
    shapes = [((1, 1), 5), ((1, 1), 12), ((2,), 4), ((2,), 6), ((1, 2), 3),
              ((1, 1, 1), 8), ((2,), 10)]
    for i in range(count):
        blocks, m = shapes[i % len(shapes)]
        pattern = workloads.STYLE_PATTERNS[rng.randrange(len(workloads.STYLE_PATTERNS))]
        yield workloads.random_spec(rng, m, blocks, pattern)


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_agrees_with_genus_on_small_specs(seed):
    for spec in _small_specs(seed, 14):
        result = genuskit.genus(genuskit.order_spec_from_dict(spec))
        truth = oracle.spec_genus(spec)
        assert (truth["genus"], truth["bound"]) == (result.total, result.bound), spec


def test_oracle_matches_acceptance_integers():
    # criterion 1: pullback orders at m = 1..30
    for m in range(1, 31):
        g = oracle.pullback_genus(m)
        assert g == genuskit.genus_pullback_formula(m)
        assert oracle.spec_genus(genuskit.order_spec_to_dict(genuskit.pullback_spec(m)))[
            "genus"] == g
    # criterion 2: the A(v) table; criterion 3: genus-one catalog atoms
    for v in range(1, 13):
        assert oracle.atom_genus(f"A({v})@10") == genuskit.genus_of_atom(genuskit.atom_a(v))
    for name in ("M(8)@4", "C(2^1.eta.2^1)@5", "C(eta)@5", "C(eta2)@6", "S3"):
        assert oracle.atom_genus(name) == genuskit.genus_of_atom(genuskit.parse_atom(name))
    # criterion 4 sizes: GL and the elementary closure
    for r, m in [(2, m) for m in range(2, 13)] + [(3, 2), (3, 3)]:
        assert oracle.gl_order(r, m) == len(genuskit.enumerate_gl(r, m))
        assert oracle.stable_order(r, m) == len(genuskit.stable_image(r, m))
    assert oracle.table_a_rows()[0] == {"v": 1, "d": 1, "m": 24, "gBrute": 4, "gFormula": 4}


def test_catalog_atom_names_are_valid_for_every_seed():
    # Lowest draws the smallest name of each kind, which some seed draws
    # too; a name genuskit rejects would fail the catalog on that seed
    class Lowest(random.Random):
        def randint(self, a, b):
            return a

    for names in (workloads._atom_names(Lowest(0)),
                  *(workloads._atom_names(random.Random(s)) for s in range(200))):
        for name in names:
            assert oracle.atom_genus(name) == genuskit.genus_of_atom(
                genuskit.parse_atom(name)), name


def _perfect_answers(expected):
    return [{"status": 0, "result": e} for e in expected]


def test_planted_wrong_answer_is_a_failure():
    data = workloads.big_ambient(1)
    expected, _ = oracle.expected_answers(data)
    answers = _perfect_answers(expected)
    assert run.count_failures(data["queries"], expected, answers) == 0
    wrong = dict(answers[2]["result"], total=answers[2]["result"]["total"] + 1)
    answers[2] = {"status": 0, "result": wrong}
    answers[4] = {"error": "ResourceLimitError: over the cap"}
    answers[5] = {"status": 2, "result": None}
    assert run.count_failures(data["queries"], expected, answers) == 3


def test_check_answer_must_name_the_criterion():
    query = {"verb": "check", "argv": ["check", "--only", "atom-table"], "spec": None}
    good = {"passed": True, "checks": [{"name": "atom-table", "passed": True}]}
    assert oracle.accepts(query, "atom-table", {"status": 0, "result": good})
    other = {"passed": True, "checks": [{"name": "stable-image", "passed": True}]}
    assert not oracle.accepts(query, "atom-table", {"status": 0, "result": other})
    assert not oracle.accepts(query, "atom-table", {"status": 1, "result": None})


def test_trace_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.query = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert genuskit.cli.main(["genus-pullback", "12", "--json"]) == 0
        tracer.query = 1
        genuskit.genus(genuskit.pullback_spec(30))
    finally:
        tracer.uninstall()
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0]["parent"] is None
    assert {"orders.genus", "orders.genus_relative", "rings.totient"} <= set(names)
    metrics = tracing.pass_metrics(tracer.spans)
    assert metrics["cli.calls"] == 1
    assert metrics["orders.genus_calls"] == 2
    assert metrics["orders.hcoset_labels"] == 2 ** 2 + 4 ** 2
    assert metrics["layers.self_sum_s"] == pytest.approx(metrics["layers.root_s"])
    # uninstall restores the original functions
    assert not hasattr(genuskit.cli.main, "__wrapped__")


def test_missing_target_records_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", (("genuskit.orders", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.spans == []
    assert tracing.pass_metrics([])["cosets.double_coset_calls"] == 0


def test_combine_flags_counts_that_differ():
    a = {"cli.calls": 3, "cli.self_s": 1.0, "layers.self_sum_s": 2.0, "layers.root_s": 2.0}
    b = dict(a, **{"cli.self_s": 3.0})
    values, steady = tracing.combine([a, b])
    assert steady and values["cli.self_s"] == 2.0
    _, steady = tracing.combine([a, dict(a, **{"cli.calls": 4})])
    assert not steady


def test_query_latency_is_the_median_over_passes():
    passes = [
        {"latencies": lat, "batch_s": b, "peak_rss_mb": 50.0, "setup_s": 0.1}
        for lat, b in (([1.0, 5.0], 6.0), ([3.0, 1.0], 4.0), ([2.0, 2.0], 4.5))
    ]
    assert run.query_latencies(passes) == [2.0, 2.0]
    values = run.end_to_end(passes, [0.3, 0.1, 0.2, 0.5])
    assert values["batch_s"] == 4.5 and values["setup_s"] == 0.25


def test_percentiles_need_ten_samples_beyond():
    assert "too few" in run.latency_line([0.1] * 7)
    assert "p90" not in run.latency_line([0.1] * 89)
    assert "p90 100.000 ms (10 beyond)" in run.latency_line([0.1] * 98)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
