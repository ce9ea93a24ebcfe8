import gc
import json
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duperm import analyzer, gf2n, prover
from conftest import random_affine_perm
from duperm.construct import build_f, build_g, instance
from duperm.prover import (
    coset_intersection_check,
    lemma1_exhaustive,
    lemma1_replay,
    prop1_hypothesis_search,
    prop2_bound_check,
    remark2_degrees,
    run_claims,
    theorem1_check,
)

REPLAY_IDS = {
    "lemma1.replay.step1.2a",
    "lemma1.replay.step1.2b",
    "lemma1.replay.step1.2c",
    "lemma1.replay.step1.2d",
    "lemma1.replay.step1.3a",
    "lemma1.replay.step1.3b",
    "lemma1.replay.step1.3c",
    "lemma1.replay.step1.5",
}


def test_lemma1_exhaustive_small_k(f5, f10):
    r1 = lemma1_exhaustive(f5)
    assert r1.status == "pass"
    assert r1.witness["candidates"] == 30
    assert set(r1.witness["solutions_per_b"].values()) == {0}
    r2 = lemma1_exhaustive(f10)
    assert r2.status == "pass"
    assert r2.witness["candidates"] == 1020
    assert len(r2.witness["solutions_per_b"]) == 3


def test_lemma1_exhaustive_fail_witness_matches_a_scan(f15, monkeypatch):
    # x^33 has solutions for four b in GF(8)*; the witness names the first
    # such b in subfield order and its smallest x
    monkeypatch.setattr(prover, "dobbertin_exponent", lambda k: 33)
    r = lemma1_exhaustive(f15)
    solutions = {}
    for x in range(f15.order):
        b = gf2n.pow(f15, x ^ 1, 33) ^ gf2n.pow(f15, x, 33)
        if b and f15.subfield_mask[b] and not f15.subfield_mask[x]:
            solutions.setdefault(b, []).append(x)
    stars = [b for b in f15.subfield_elems if b]
    first = next(b for b in stars if b in solutions)
    assert r.status == "fail"
    assert r.witness == {
        "b": first,
        "x": solutions[first][0],
        "solutions_per_b": {str(b): len(solutions.get(b, ())) for b in stars},
    }
    assert list(r.witness["solutions_per_b"]) == [str(b) for b in stars]
    assert sum(r.witness["solutions_per_b"].values()) == 120


def test_lemma1_replay_all_steps_pass():
    results = lemma1_replay()
    assert {r.claim_id for r in results} == REPLAY_IDS
    for r in results:
        assert r.status == "pass", r.claim_id
        assert r.witness["computed"] == r.witness["published"]
    by_id = {r.claim_id: r for r in results}
    # passing factorisation steps carry the divided-out cofactor
    for sid in ("1.2a", "1.2b", "1.2c", "1.2d"):
        assert by_id[f"lemma1.replay.step{sid}"].witness["cofactor"]
    assert by_id["lemma1.replay.step1.5"].witness["image_matches_published"] is True


def test_replay_shared_factor_in_second_round():
    # all three second-round resultants are divisible by the square of
    # the shared bracket x*y + x*z + y*z + x + y + z + b + 1
    from duperm.polysym import MultiPoly, exact_divide, resultant_wrt

    x, y, z, u, v, b = (MultiPoly.var(n) for n in "xyzuvb")
    one = MultiPoly.one()
    shared = x * y + x * z + y * z + x + y + z + b + one
    sysd = prover._conjugate_system()
    reduced = sysd["cofactors_2"]
    for i in range(3):
        res = resultant_wrt(reduced[i], reduced[3], "u")
        assert exact_divide(res, shared ** 2) * shared ** 2 == res


def test_coset_intersection_exhaustive(f5, f10):
    r1 = coset_intersection_check(f5)
    assert r1.status == "pass"
    assert r1.witness == {"a_checked": 30, "max_intersection": 1, "exhaustive": True}
    r2 = coset_intersection_check(f10)
    assert r2.status == "pass"
    assert r2.witness["a_checked"] == 1020


def test_coset_intersection_sampled_deterministic(f15):
    a = coset_intersection_check(f15, trials=32, seed=9)
    b = coset_intersection_check(f15, trials=32, seed=9)
    assert a.status == "pass" and not a.witness["exhaustive"]
    assert a.witness == b.witness


def test_coset_witness_is_first_failing_sampled_point(f15, monkeypatch):
    # x^453 puts two images of a + GF(8) in one coset for about 1 in 4 points a
    monkeypatch.setattr(prover, "dobbertin_exponent", lambda k: 453)
    sub = f15.subfield_elems
    outside = np.flatnonzero(~f15.subfield_mask)

    def fails(a: int) -> bool:
        images = {gf2n.subfield_coset_rep(f15, gf2n.pow(f15, a ^ s, 453)) for s in sub}
        return len(images) < len(sub)

    statuses = set()
    for seed in range(10):
        for trials in (1, 64, 300):
            sample = random.Random(seed).sample(list(outside), trials)
            want = next((int(a) for a in sample if fails(int(a))), None)
            r = coset_intersection_check(f15, trials, seed)
            statuses.add(r.status)
            if want is None:
                assert r.status == "pass" and r.witness["a_checked"] == trials
            else:
                assert r.status == "fail" and r.witness["a"] == want, (seed, trials)
    assert statuses == {"pass", "fail"}


def test_theorem1_check_k1(f5):
    modified = theorem1_check(f5, 1, "x+1")
    assert modified.status == "pass"
    assert modified.witness["delta_g"] == 2
    assert modified.witness["delta_f"] == 4
    assert modified.witness["permutation"] is True
    assert modified.witness["attained"] is True

    degenerate = theorem1_check(f5, 1, "x")
    assert degenerate.status == "pass"
    assert degenerate.witness["delta_f"] == 2
    assert degenerate.witness["attained"] is False


def test_theorem1_check_even_k_skipped(f10):
    r = theorem1_check(f10, 1, "x+1")
    assert r.status == "skipped"


def test_remark2_degrees(f5, f15):
    results = {r.claim_id: r for r in remark2_degrees(f5, f15)}
    assert results["prop1.remark2.k1.m0"].status == "skipped"
    assert results["prop1.remark2.k1.m1"].status == "pass"
    assert results["prop1.remark2.k1.m1"].witness["computed"] == 4
    assert results["prop1.remark2.k1.m2"].status == "pass"
    # the k = 3 identity-map instance collapses to the plain power map,
    # whose degree is 6; the claimed value 14 needs a nontrivial outer map
    k3 = results["prop1.remark2.k3.m2"]
    assert k3.status == "fail"
    assert k3.witness == {"expected": 14, "computed": 6}


def test_prop1_hypothesis_search_reports_examples(f15):
    r = prop1_hypothesis_search(f15)
    assert r.status == "pass"
    assert r.witness["found"] is True
    assert r.witness["satisfying_l1_count"] == 1336
    # L1 = x^4, x^4 + 1 and x^4 + 892, in itertools.product order
    assert r.witness["examples"] == [
        {"coeffs": [0, 0, 1], "constant": c, "deg_f": 14} for c in (0, 1, 892)
    ]


# ---------------------------------------------------------------------------
# subfield checks on the analyzer kernels, against pure-Python oracles
# ---------------------------------------------------------------------------

def subfield_delta(ctx, table):
    """Brute-force differential uniformity of a map on the subfield."""
    sub = ctx.subfield_elems
    best = 0
    for a in sub:
        if a == 0:
            continue
        counts = {}
        for c in sub:
            out = int(table[c ^ a]) ^ int(table[c])
            counts[out] = counts.get(out, 0) + 1
        best = max(best, max(counts.values()))
    return best


def sub_degree(ctx, func):
    """ANF degree of a map {subfield element: value}, in the basis b^0, ..., b^(k-1)."""
    k = ctx.k
    basis = [gf2n.pow(ctx, ctx.subfield_generator, i) for i in range(k)]
    coord = {}
    for bits in range(1 << k):
        e = 0
        for i in range(k):
            if (bits >> i) & 1:
                e ^= basis[i]
        coord[e] = bits
    anf = [0] * (1 << k)
    for e, val in func.items():
        anf[coord[e]] = val
    h = 1
    while h < len(anf):
        for i in range(0, len(anf), 2 * h):
            for j in range(i + h, i + 2 * h):
                anf[j] ^= anf[j - h]
        h *= 2
    return max((bin(s).count("1") for s, c in enumerate(anf) if c), default=0)


def test_sorted_subfield_coordinates_are_linear(f5, f10, f15):
    for ctx in (f5, f10, f15):
        sub = np.array(ctx.subfield_elems)
        i = np.arange(len(sub))
        assert (sub[i[:, None] ^ i[None, :]] == sub[:, None] ^ sub[None, :]).all()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 2, 3]),
    m=st.integers(1, 6),
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
)
def test_subfield_kernels_match_oracles(f5, f10, f15, k, m, seeds):
    ctx = (f5, f10, f15)[k - 1]
    L1, L2 = (random_affine_perm(ctx, seed) for seed in seeds)
    f = build_f(ctx, k, build_g(ctx, k, m, L1, L2))
    sub = ctx.subfield_elems
    g = prover._subfield_coords(ctx, f.table[list(sub)])

    bijective = len({int(f.table[c]) for c in sub}) == len(sub)
    assert (len(np.unique(g)) == len(g)) == bijective
    omega = analyzer.omega_counts(g)
    assert int(np.nonzero(omega[1:])[0].max()) + 1 == subfield_delta(ctx, f.table)
    assert analyzer.anf_degree(g) == sub_degree(ctx, {c: int(f.table[c]) for c in sub})
    # g + x^3, the map whose degree prop1.hypothesis.k3 selects on
    cubes = [gf2n.pow(ctx, c, 3) for c in sub]
    plus_cube = {c: int(f.table[c]) ^ y for c, y in zip(sub, cubes)}
    cube_coords = prover._subfield_coords(ctx, cubes)
    assert analyzer.anf_degree(g ^ cube_coords) == sub_degree(ctx, plus_cube)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prop1_term_tables_match_scalar_arithmetic(f5, f10, f15, k):
    ctx = (f5, f10, f15)[k - 1]
    sub = ctx.subfield_elems
    coords = {c: i for i, c in enumerate(sub)}
    terms, cube = prover._term_tables(ctx)
    assert len(terms) == k
    for i, table in enumerate(terms):
        want = [[coords[gf2n.mul(ctx, c, gf2n.frobenius(ctx, y, i))] for y in sub] for c in sub]
        assert table.tolist() == want, i
    assert cube.tolist() == [coords[gf2n.pow(ctx, y, 3)] for y in sub]


def test_failing_claim_requires_witness():
    with pytest.raises(ValueError):
        prover._result("x", "fail", None, 0.0)


def test_claim_json_roundtrip(f5):
    r = lemma1_exhaustive(f5)
    payload = json.loads(json.dumps(r.to_json_dict()))
    assert payload["claim_id"] == "lemma1.exhaustive.k1"
    assert payload["status"] == "pass"


def test_run_claims_pattern_filter():
    results = run_claims("lemma1.exhaustive.k[12]")
    assert [r.claim_id for r in results] == [
        "lemma1.exhaustive.k1",
        "lemma1.exhaustive.k2",
    ]
    replay = run_claims("lemma1.replay.*")
    assert len(replay) == 8
    assert [r.claim_id for r in replay] == sorted(r.claim_id for r in replay)


# the claim set, sorted
CLAIM_IDS = [
    "lemma1.exhaustive.k1",
    "lemma1.exhaustive.k2",
    "lemma1.exhaustive.k3",
    "lemma1.replay.step1.2a",
    "lemma1.replay.step1.2b",
    "lemma1.replay.step1.2c",
    "lemma1.replay.step1.2d",
    "lemma1.replay.step1.3a",
    "lemma1.replay.step1.3b",
    "lemma1.replay.step1.3c",
    "lemma1.replay.step1.5",
    "prop1.hypothesis.k3",
    "prop1.remark2.k1.m0",
    "prop1.remark2.k1.m1",
    "prop1.remark2.k1.m2",
    "prop1.remark2.k3.m2",
    "prop2.bound.k1.m1.x+1",
    "prop2.bound.k2.m2.b^2*x^2",
    "theorem1.check.k1.m1.x",
    "theorem1.check.k1.m1.x+1",
    "theorem1.check.k3.m2.x",
    "theorem1.coset.k1",
    "theorem1.coset.k2",
    "theorem1.coset.k3",
]


def test_claim_ids_listing():
    assert [r.claim_id for r in run_claims()] == CLAIM_IDS


def test_prop2_bound_reads_k_from_the_field(f10):
    r = prop2_bound_check(instance(f10, 2, "x+1"), "m2.x+1")
    assert r.claim_id == "prop2.bound.k2.m2.x+1"
    assert r.witness["bound"] == 380


def test_prop2_bound_claims_small_k():
    results = run_claims("prop2.bound.k1.*")
    assert len(results) == 1
    assert results[0].status == "pass"
    assert results[0].witness["nl"] >= results[0].witness["bound"] == 6
    results = run_claims("prop2.bound.k2.*")
    assert len(results) == 1
    assert results[0].status == "pass"
    assert results[0].witness["bound"] == 380


# ---------------------------------------------------------------------------
# one field context per k per claim run
# ---------------------------------------------------------------------------

def without_times(results):
    return [{k: v for k, v in r.to_json_dict().items() if k != "elapsed_ms"} for r in results]


def test_run_claims_builds_each_field_once_and_keeps_none(monkeypatch):
    mk_field = gf2n.mk_field
    built = []

    def counting(k, *args, **kwargs):
        ctx = mk_field(k, *args, **kwargs)
        built.append((k, weakref.ref(ctx)))
        return ctx

    monkeypatch.setattr(gf2n, "mk_field", counting)
    results = run_claims("*")
    assert sorted(k for k, _ in built) == [1, 2, 3]
    assert [r.claim_id for r in results] == CLAIM_IDS
    del results
    gc.collect()
    assert [k for k, ref in built if ref() is not None] == []


def test_run_claims_matches_claims_on_fresh_fields():
    field = gf2n.mk_field
    alone = [lemma1_exhaustive(field(k)) for k in (1, 2, 3)]
    alone += lemma1_replay()
    alone += [coset_intersection_check(field(k)) for k in (1, 2, 3)]
    alone += [
        theorem1_check(field(1), 1, "x+1"),
        theorem1_check(field(1), 1, "x"),
        theorem1_check(field(3), 2, "x"),
        prop1_hypothesis_search(field(3)),
        prop2_bound_check(instance(field(1), 1, "x+1"), "m1.x+1"),
        prop2_bound_check(instance(field(2), 2, "b^2*x^2"), "m2.b^2*x^2"),
    ]
    alone += remark2_degrees(field(1), field(3))
    alone.sort(key=lambda r: r.claim_id)
    assert without_times(run_claims("*")) == without_times(alone)
