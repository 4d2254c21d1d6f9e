"""Tests of the benchmark's own parts: input generators, verification and tracing.

    python3 -m pytest perfbench -q     (from the root of the checkout)
"""

import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from pytest import approx

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from singspec import MissingStratumWarning, model_from_json, nearby_fiber_class, parse_polynomial  # noqa: E402
from singspec.cli import main as cli_main  # noqa: E402

ALL_SHAPES = gen.LARGE_SHAPES + gen.COUPLED_SHAPES


def test_same_seed_same_inputs():
    for shapes in (gen.LARGE_SHAPES, gen.COUPLED_SHAPES):
        assert gen.sp_requests(shapes, 7) == gen.sp_requests(shapes, 7)
    assert gen.nearby_models(7) == gen.nearby_models(7)


def test_seed_changes_decoration_not_shapes():
    a, b = gen.sp_requests(gen.COUPLED_SHAPES, 1), gen.sp_requests(gen.COUPLED_SHAPES, 2)
    assert [r.expr for r in a] != [r.expr for r in b]
    assert sorted(r.shape for r in a) == sorted(r.shape for r in b)
    assert {r.shape: r.mu for r in a} == {r.shape: r.mu for r in b}
    assert gen.nearby_models(1)[0].text != gen.nearby_models(2)[0].text
    # the order of the strata sets the cost of nearby_fiber_class
    strata_ids = [[s["ids"] for s in json.loads(m.text)["strata"]] for m in gen.nearby_models(1) + gen.nearby_models(2)]
    assert all(ids == strata_ids[0] for ids in strata_ids)


def test_closed_forms():
    # Fermat: mu = prod(a_i - 1); loop: mu = prod(a_i); both independent of A^-1
    for kind, exps in ALL_SHAPES:
        mu = gen.milnor_closed(gen.solve_weights(gen.exponent_matrix(kind, exps)))
        if kind == "fermat":
            expected = 1
            for a in exps:
                expected *= a - 1
            assert mu == expected
        elif kind == "loop":
            expected = 1
            for a in exps:
                expected *= a
            assert mu == expected
    assert gen.solve_weights(gen.exponent_matrix("chain", (2, 3))) == (Fraction(1, 3), Fraction(1, 3))


def test_every_generated_monomial_has_weighted_degree_one():
    for seed in (0, 1, 2):
        for r in gen.sp_requests(ALL_SHAPES, seed):
            f = parse_polynomial(r.expr, r.variables)
            assert len(f.terms) == len(r.variables)
            for exps in f.terms:
                assert sum(w * e for w, e in zip(r.weights, exps)) == 1, (r.expr, exps)


def test_generated_models_load_without_missing_strata():
    for seed in (0, 1, 2):
        for m in gen.nearby_models(seed):
            model = model_from_json(m.text)
            with warnings.catch_warnings():
                warnings.simplefilter("error", MissingStratumWarning)
                for variant in run.VARIANTS:
                    cls = nearby_fiber_class(model, variant)
                    assert sum(cls.entries.values()) == m.euler[variant]


def test_fixture_euler_closed_form_matches_the_program():
    for path in sorted((HERE.parent / "fixtures").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        euler = gen.model_euler(data["components"], data["strata"])
        model = model_from_json(path.read_text(encoding="utf-8"))
        for variant in run.VARIANTS:
            assert sum(nearby_fiber_class(model, variant).entries.values()) == euler[variant]


def test_verify_rejects_wrong_answers(capsys):
    r = gen.sp_requests(gen.COUPLED_SHAPES, 0)[0]
    req = run.sp_request(r)
    assert cli_main(list(req.argv)) == 0
    good = capsys.readouterr().out
    assert run.verify(req, 0, good) is None
    assert run.verify(req, 2, good) == "exit code 2"
    data = json.loads(good)
    data["data"]["mu"] += 1
    assert "mu" in run.verify(req, 0, json.dumps(data))
    assert run.verify(req, 0, "not json").startswith("unreadable")


def test_t_degree():
    assert run._t_degree("T^2 - T + 1") == 2
    assert run._t_degree("T - 1") == 1
    assert run._t_degree("1") == 0
    assert run._t_degree("T^12 + 3*T^7 - T") == 12


def test_tail_needs_ten_guaranteed_samples_beyond():
    assert run.tail([float(i) for i in range(15)], 15) is None
    assert run.tail([float(i) for i in range(100)], 100) == (90, 89.0)
    assert run.tail([float(i) for i in range(40)], 40) == (75, 29.0)
    # more samples than guaranteed: same percentile, over all of them
    assert run.tail([float(i) for i in range(80)], 40) == (75, 59.0)


def test_requests_are_scaled_to_the_reference_speed():
    def one_pass(traced, latencies, gauges):
        results = [run.Result(None, x, 0, "") for x in latencies]
        return run.Pass(traced, sum(latencies), results, [[g * ref] for g in gauges])

    ref = run.reference.REFERENCE_S
    slow = one_pass(False, [4.0, 2.0], [2, 2, 3])  # host at half speed, then a third
    fast = one_pass(False, [1.0, 3.0], [1, 1, 1])
    traced = one_pass(True, [9.0, 9.0], [1, 1, 1])
    assert slow.scaled() == approx([2.0, 0.8])  # 4.0 / 2 and 2.0 / 2.5
    metrics = run.end_to_end([slow, traced, fast], 0.1, 1024, 4)
    assert metrics["wall_s"][0] == approx(3.4)  # median of 2.8 and 4.0
    assert metrics["request_p50_s"][0] == approx(1.7)  # of per-request medians 1.5 and 1.9
    assert metrics["request_tail_s"][0] == approx(1.9)  # too few samples: the slowest request's median


def test_reference_loop_restores_the_collector():
    import gc

    assert gc.isenabled()
    assert run.reference.loop_seconds() > 0
    assert gc.isenabled()


def test_pass_rule():
    assert run._more([5.0], 10.0, 20, 1, 140)  # another pass fits in --seconds
    assert not run._more([5.0], 16.0, 20, 1, 140)
    assert run._more([5.0], 16.0, 20, 4, 140)  # minimum passes run past --seconds
    assert not run._more([5.0], 136.0, 20, 4, 140)  # but never past the time limit


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_tracer_is_transparent_and_restores_bindings(capsys):
    import singspec.cli
    import singspec.milnor

    argv = list(run.sp_request(gen.sp_requests(gen.COUPLED_SHAPES, 0)[3]).argv)
    original = singspec.milnor.buchberger
    assert cli_main(argv) == 0
    plain = capsys.readouterr().out
    tracer = spans.Tracer().install()
    try:
        assert singspec.milnor.buchberger is not original
        assert tracer.root(singspec.cli.main)(argv) == 0
    finally:
        tracer.uninstall()
    assert singspec.milnor.buchberger is original
    assert capsys.readouterr().out == plain
    totals = spans.summarize([json.loads(json.dumps(tracer.dump()))])
    assert totals["milnor.buchberger.calls"] == 3  # is_isolated, milnor_basis, milnor_number
    assert totals["parse.parse_polynomial.calls"] == 1
    assert totals["cli.render.calls"] == 1
    assert totals["poly.weighted_degree.calls"] > 0
    assert all(totals[f"{layer}.self_s"] >= 0 for layer in spans.LAYERS)
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    covered = sum(totals[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(covered - wall) < 1e-9
