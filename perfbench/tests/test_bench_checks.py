import json
import random

import pytest

from forestdom import sweep_sequences
from checks import (
    CheckFailed,
    UNLABELLED_TREES,
    cayley_mismatches,
    check_dominating,
    check_forest_edges,
    check_independent,
    check_internal_domination,
    cli_payload,
    tree_count_mismatches,
)
from inputs import SequenceSpec, forest_degrees, forest_sequences, random_forest_edges
import run
import workloads as wl


def corrupt_payload(result, **changes):
    rc, out = result
    payload = json.loads(out)
    payload.update(changes)
    return rc, json.dumps(payload)


def checked(op):
    result = op.call()
    op.check(result)  # the true result passes
    return result


def test_forest_sequences_match_the_package_sweep():
    for max_n in (7, 10, 14):
        ours = forest_sequences(max_n)
        assert ours == [s.degrees for s in sweep_sequences(max_n)]
    assert [len(forest_sequences(m)) for m in (7, 10, 14)] == [25, 109, 518]


def test_inputs_are_seeded_and_have_the_requested_shape():
    spec = SequenceSpec(n_ge2=50, n1=80, c=7)
    a = forest_degrees(random.Random(3), spec)
    assert a == forest_degrees(random.Random(3), spec)
    assert len(a) == spec.n and sum(a) == 2 * (spec.n - spec.c) and a.count(1) == spec.n1
    edges = random_forest_edges(random.Random(3), 60, 6)
    degrees = [0] * 60
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    check_forest_edges(60, edges, degrees, 6)


def test_eval_check_rejects_wrong_counts(tmp_path):
    spec = SequenceSpec(n_ge2=20, n1=40, c=3)
    op = wl._eval_op(forest_degrees(random.Random(1), spec), spec)
    result = checked(op)
    with pytest.raises(CheckFailed):
        op.check(corrupt_payload(result, c=spec.c + 1))
    with pytest.raises(CheckFailed):
        op.check((1, result[1]))


def test_build_check_rejects_mismatch_and_wrong_file(tmp_path):
    spec = wl.BUILD_SPECS["K2-many"]
    out = str(tmp_path / "b.json")
    degrees = forest_degrees(random.Random(2), spec)
    op = wl._build_op("K2-many", degrees, spec, out)
    result = checked(op)
    with pytest.raises(CheckFailed):
        op.check(corrupt_payload(result, match=False))
    op.check(result)  # a repeat of a verified output passes
    doc = json.loads(open(out).read())
    doc["edges"].pop()
    open(out, "w").write(json.dumps(doc))
    with pytest.raises(CheckFailed):
        op.check(result)


def test_solve_check_rejects_bad_witnesses(tmp_path):
    n, edges = 12, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9), (9, 10), (10, 11)]
    path = str(tmp_path / "f.json")
    json.dump({"n": n, "edges": edges}, open(path, "w"))
    op = wl._solve_op(edges, path, n)
    result = checked(op)
    p = json.loads(result[1])
    with pytest.raises(CheckFailed):
        op.check(corrupt_payload(result, gamma_witness=p["gamma_witness"][:-1]))
    with pytest.raises(CheckFailed):  # same size, but vertex 0's side is left undominated
        op.check(corrupt_payload(result, gamma_witness=[3] + p["gamma_witness"][1:]))
    with pytest.raises(CheckFailed):
        op.check(corrupt_payload(result, alpha_witness=[0, 1] + p["alpha_witness"][2:]))


def test_witness_checks_directly():
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    check_dominating(5, path, [1, 3], 2)
    check_independent(5, path, [0, 2, 4], 3)
    with pytest.raises(CheckFailed):
        check_dominating(5, path, [0, 4], 2)
    with pytest.raises(CheckFailed):
        check_independent(5, path, [0, 1, 4], 3)


def test_internal_domination_check_rejects_uncovered_or_large_sets():
    path = [(i, i + 1) for i in range(7)]  # 8 vertices, inner 1..6
    op = wl._internal_domination_op(path, 8)
    checked(op)
    with pytest.raises(CheckFailed):
        op.check(frozenset({2}))
    with pytest.raises(CheckFailed):
        check_internal_domination(8, path, {1, 2, 4, 6})


def test_verify_check_and_cayley_pass_check():
    sequences = forest_sequences(6)
    ops = [wl._verify_op(seq) for seq in sequences]
    facts = {}
    for i, op in enumerate(ops):
        _, facts[i] = op.check(op.call())
    check = wl._fact_check(dict(enumerate(sequences)), cayley_mismatches)
    assert check(facts) == {}
    tree_op = next(i for i, op in enumerate(ops) if op.label == "verify:2,2,2,2,1,1")
    facts[tree_op] += 1
    failed = check(facts)
    assert tree_op in failed and all(len(sequences[i]) == 6 for i in failed)
    result = ops[0].call()
    with pytest.raises(CheckFailed):
        ops[0].check(corrupt_payload(result, match=False))


def test_trees_check_and_tree_count_pass_check():
    sequences = forest_sequences(7)
    ops = [wl._iso_op(seq) for seq in sequences]
    results = [op.call() for op in ops]
    checked_results = [op.check(r) for op, r in zip(ops, results)]
    assert all(attained is None for attained, _ in checked_results)
    facts = {i: fact for i, (_, fact) in enumerate(checked_results)}
    check = wl._fact_check(dict(enumerate(sequences)), tree_count_mismatches)
    assert check(facts) == {}
    i = next(i for i, op in enumerate(ops) if op.label == "iso:2,2,2,2,2,1,1")
    facts[i] -= 1
    assert i in check(facts)
    with pytest.raises(CheckFailed):  # a forest of another sequence slipped in
        ops[i].check(results[i] + results[i - 1][:1])
    gammas = [[f.domination_number()[0] for f in r] for r in results]
    j = next(j for j, g in enumerate(gammas) if len(set(g)) > 1)
    with pytest.raises(CheckFailed):  # the gamma-maximising classes are missing
        ops[j].check([f for f, g in zip(results[j], gammas[j]) if g < max(gammas[j])])


def test_known_counts():
    assert cayley_mismatches({(1, 1): 1, (2, 1, 1): 1, (3, 1, 1, 1): 1, (2, 2, 1, 1): 2}) == []
    assert cayley_mismatches({(2, 2, 1, 1): 3, (3, 1, 1, 1): 1}) == [4]
    assert tree_count_mismatches({(3, 1, 1, 1): 1, (2, 2, 1, 1): 1}) == []
    assert tree_count_mismatches({(3, 1, 1, 1): 2, (2, 2, 1, 1): 1}) == [4]
    assert UNLABELLED_TREES[14] == 3159


def test_swap_check_rejects_gamma_above_max():
    op = wl._swap_op((2, 2, 1, 1, 1, 1), 5)
    result = checked(op)
    p = json.loads(result[1])
    with pytest.raises(CheckFailed):
        op.check(corrupt_payload(result, gamma_found=p["gamma_max"] + 1, attained=False))


def test_cli_payload_rejects_non_json():
    with pytest.raises(CheckFailed):
        cli_payload((0, "not json"))


def test_run_pass_counts_raised_and_rejected_ops():
    def boom():
        raise RuntimeError("boom")

    ops = [
        wl.Op("ok", lambda: 1, lambda r: (True, None)),
        wl.Op("raises", boom, lambda r: (None, None)),
        wl.Op("rejected", lambda: 2, lambda r: cli_payload((1, ""))),
    ]
    rec = run.run_pass(wl.Workload(ops))
    assert sorted(rec.failures) == [1, 2] and rec.attained == [True] and len(rec.latency) == 3


def test_oracle_mix_holds_every_op_once(tmp_path):
    workload = wl.oracle_mix(7, str(tmp_path))
    labels = sorted(op.label for op in workload.ops)
    expected = sorted(f"{kind}:" + ",".join(map(str, s))
                      for kind, m in (("verify", 10), ("iso", 14), ("swap", 7)) for s in forest_sequences(m))
    assert labels == expected and len(labels) == 109 + 518 + 25
    assert wl.oracle_mix(7, str(tmp_path)).ops[0].label == workload.ops[0].label


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(run.MIN_SAMPLES) == 75.0  # certify: 6 passes of 7 ops or more
    assert run.tail_percentile(109) == 90.0
    assert run.tail_percentile(3 * 652) == 99.0  # oracle: 3 passes or more
    assert run.nearest_rank(list(range(1, 101)), 95.0) == 95


def test_percentiles_are_over_every_sample():
    ops = [wl.Op(str(i), lambda: None, lambda r: (None, None)) for i in range(7)]
    passes = []
    for k in range(6):
        rec = run.Pass(traced=False)
        rec.latency = [(i + 1) * 1e-3 + k * 1e-5 for i in range(7)]
        passes.append(rec)
    metrics, details = run.end_to_end(wl.Workload(ops), passes, 0.1)
    assert details["op_tail_percentile"] == 75.0 and details["samples_beyond_tail"] >= 10
    assert metrics["op_tail_ms"] > metrics["op_p50_ms"]


def _missing_swap(op):
    """The op with its swap search replaced by one that stops below gamma_max."""
    def call():
        rc, out = op.call()
        p = json.loads(out)
        return corrupt_payload((rc, out), gamma_found=p["gamma_max"] - 1, attained=False)

    return wl.Op(op.label, call, op.check)


def test_gamma_attained_frac_counts_only_swap_ops_on_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "VERIFY_MAX_N", 6)
    monkeypatch.setattr(wl, "ISO_MAX_N", 7)
    monkeypatch.setattr(wl, "SWAP_MAX_N", 6)
    workload = wl.oracle_mix(3, str(tmp_path))
    swaps = [i for i, op in enumerate(workload.ops) if op.label.startswith("swap:")]
    assert 0 < len(swaps) < len(workload.ops)

    def attained_frac():
        rec = run.run_pass(workload)
        assert rec.failures == {}
        return run.end_to_end(workload, [rec], 0.1)[0]["gamma_attained_frac"]

    assert attained_frac() == 1.0
    for i in swaps[:2]:
        workload.ops[i] = _missing_swap(workload.ops[i])
    assert attained_frac() == pytest.approx(1 - 2 / len(swaps))
    for i in swaps:
        workload.ops[i] = _missing_swap(workload.ops[i])
    assert attained_frac() == 0.0  # far past the metric's 0.05 bound


def test_swap_op_repeats_its_search():
    op = wl._swap_op((2, 2, 2, 1, 1, 1, 1), 11)
    assert op.call() == op.call()


def test_traced_run_ends_on_whole_pairs():
    workload = wl.Workload([wl.Op("noop", lambda: sum(range(1000)), lambda r: (None, None))])
    tracer = run.Tracer()
    passes = run.run_passes(workload, 0, tracer)
    assert [p.traced for p in passes] == [False, True, False, True]
    metrics, details = run.per_layer(passes, tracer)
    assert metrics["trace.overhead"] > 0 and details["traced_passes"] == 2
