"""Catalog sanity for the stock instances.

Heavyweight gates (full section ladders, infinitesimal diagnostics at
size 256) live in the acceptance suite; here each catalog entry is
checked for the cheap property that makes it stock: homogeneity
instances pass the dilation identity, elliptic instances extract to
elliptic tuples, degenerate instances fail the conormal check, index
tips carry the advertised windings, randomized partition instances
never violate the bound.
"""

import numpy as np
import pytest

import psdo.stock as stock_module
from oracles import phase_pair
from psdo.fredholm import check_elliptic, extract_tuple, finite_section, winding_oracle
from psdo.geometry import Circle
from psdo.localization import partition_bound_check
from psdo.quantize import negligible_test, op_circle
from psdo.stock import (
    GLUING_COUNTS,
    TOEPLITZ_STEP,
    degenerate_stock,
    elliptic_stock,
    gluing_expr,
    gluing_families,
    homogeneity_stock,
    index_stock,
    infinitesimal_stock,
    negligible_stock,
    negligible_v_values,
    parameter_family,
    partition_stock,
    toeplitz_shift,
)
from psdo.symbols import check_twisted_homogeneity
from psdo.symexpr import Const, evaluate, parse, substitute


def test_homogeneity_stock_passes_dilation_identity():
    symbols = homogeneity_stock()
    assert len(symbols) == 5
    for sigma in symbols:
        rep = check_twisted_homogeneity(sigma)
        assert rep.passed, f"violation {rep.max_violation:.3e}"
        assert rep.max_violation <= 1e-10


def test_elliptic_stock_extracts_elliptic_tuples():
    instances = elliptic_stock()
    assert len(instances) == 5
    assert len({inst.name for inst in instances}) == 5
    for inst in instances:
        rep = check_elliptic(extract_tuple(inst.family))
        assert rep.overall, inst.name


def test_degenerate_stock_fails_conormal_check():
    instances = degenerate_stock()
    assert len(instances) == 3
    for inst in instances:
        rep = check_elliptic(extract_tuple(inst.family))
        assert not rep.overall, inst.name
        assert rep.conormal_min <= 1e-12, inst.name
        assert rep.interior_min >= 1e-2, inst.name


def test_index_stock_tips_carry_advertised_windings():
    instances = index_stock()
    got = [winding_oracle(inst.tip).winding for inst in instances]
    assert got == [1, -1, 2]


def test_index_stock_builders_are_interval_sections():
    inst = index_stock()[0]
    A = inst.build(64)
    assert A.matrix.shape == (63, 63)  # interval mode drops the t = -T node


def test_toeplitz_shift_shape_and_norm():
    # the wrapped Nyquist mode rides on top of the isometry, so the
    # discretized norm is exactly sqrt(2), not 1
    A = toeplitz_shift(32)
    assert A.matrix.shape == (32, 32)
    assert abs(A.norm() - np.sqrt(2.0)) <= 1e-10


@pytest.mark.parametrize("n", [64, 128, 256])
def test_toeplitz_shift_matches_explicit_projectors(n):
    g = Circle(n)
    k = g.modes
    H = evaluate(parse(TOEPLITZ_STEP), {"xi": k.astype(float)})[..., 0, 0]
    assert np.array_equal(H, (k >= 0).astype(complex))  # exactly 0 or 1
    E, F = phase_pair(g.x, k.astype(float))
    Pp = E @ np.diag((k >= 0).astype(float)) @ F
    Pm = E @ np.diag((k < 0).astype(float)) @ F
    shift = op_circle(g, parse("exp((0,1)*x)")).matrix
    assert np.max(np.abs(toeplitz_shift(n).matrix - (shift @ Pp + Pm))) <= 1e-13


def test_toeplitz_shift_section_rows():
    rep = finite_section(toeplitz_shift, sizes=(64, 128, 256))
    assert rep.rows() == [(64, 0, 1, -1), (128, 0, 1, -1), (256, 0, 1, -1)]


def test_partition_stock_never_violates_bound():
    for inst in partition_stock(seed=0, count=100):
        rep = partition_bound_check(inst.functions, inst.operators)
        assert rep.slack >= -1e-12, inst.kind


def test_partition_stock_is_seeded():
    a = next(iter(partition_stock(seed=3, count=1)))
    b = next(iter(partition_stock(seed=3, count=1)))
    c = next(iter(partition_stock(seed=4, count=1)))
    assert np.array_equal(a.functions[0], b.functions[0])
    assert not np.array_equal(a.functions[0], c.functions[0])


def test_negligible_stock_verdicts():
    smoothing, identity = negligible_stock()
    for order in (1, 2, 4):
        assert negligible_test(smoothing, order=order).accepted
    assert not negligible_test(identity, order=4).accepted


def test_negligible_verdicts_seed_stable():
    smoothing, identity = negligible_stock()
    for seed in (0, 1, 17):
        vs = negligible_v_values(seed)
        assert len(vs) >= 3
        assert negligible_test(smoothing, order=4, v_values=vs).accepted
        assert not negligible_test(identity, order=4, v_values=vs).accepted


def test_infinitesimal_stock_shapes():
    triples = infinitesimal_stock()
    assert len(triples) == 3
    kinds = [type(g).__name__ for g, _, _ in triples]
    assert kinds == ["Circle", "Cone", "Edge"]


def test_parameter_family_is_scalar_multiplier():
    g, expr = parameter_family()
    assert g.n_x == 64


def test_gluing_family_counts_match_eps():
    for eps, n_c in GLUING_COUNTS.items():
        F = gluing_families((eps,))[eps]
        assert len(F) == n_c
    with pytest.raises(KeyError):
        gluing_families((0.3,))


def test_gluing_families_build_each_center_once(monkeypatch):
    # nested center sets: 2 pi i/8 == 2 pi (4 i)/32 exactly, so the
    # coarse families reuse the finest family's operators
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return op_circle(*args, **kwargs)

    monkeypatch.setattr(stock_module, "op_circle", counting)
    families = gluing_families()
    assert len(calls) == max(GLUING_COUNTS.values())
    g = Circle(64)
    for eps, n_c in GLUING_COUNTS.items():
        F = families[eps]
        assert F.centers == tuple(2.0 * np.pi * i / n_c for i in range(n_c))
        for c, op in zip(F.centers, F.operators):
            assert np.array_equal(op.matrix, op_circle(g, substitute(gluing_expr(), {"x": Const(c)})).matrix)
