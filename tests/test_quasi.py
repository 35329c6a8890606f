import numpy as np
import pytest

from quasiherm.projgeom import geometry_for_q
from quasiherm import quasi as QH
from quasiherm import varieties as V


@pytest.fixture(scope="module")
def g3():
    return geometry_for_q(3)


def test_valid_kinds_by_q():
    assert [k.variant for k in QH.valid_kinds(3)] == ["SH2", "SH2"]
    kinds5 = QH.valid_kinds(5)
    assert sum(k.variant == "SE" for k in kinds5) == 8
    assert sum(k.variant == "H1E" for k in kinds5) == 2
    assert sum(k.variant == "SH2" for k in kinds5) == 4


def test_assemble_validation(g3):
    with pytest.raises(ValueError):
        QH.assemble(g3, QH.QuasiKind("SE", j=1, k=1))  # empty k-range at q=3
    with pytest.raises(ValueError):
        QH.assemble(g3, QH.QuasiKind("SH2", j=2))  # excluded j
    with pytest.raises(ValueError):
        QH.assemble(g3, QH.QuasiKind("nope"))


def test_assemble_sizes(g3):
    m = QH.assemble(g3, QH.QuasiKind("SH2", j=1))
    assert int(m.sum()) == 280 == V.size_hermitian(3)
    g5 = geometry_for_q(5)
    for kind in (QH.QuasiKind("SE", j=1, k=1), QH.QuasiKind("H1E", k=3)):
        assert int(QH.assemble(g5, kind).sum()) == 3276


def test_hermitian_spectrum(g3):
    spec = QH.plane_spectrum(g3, V.hermitian_set(g3))
    assert spec == {28: 540, 37: 280}


def test_full_space_spectrum(g3):
    spec = QH.plane_spectrum(g3, np.ones(g3.n_points, dtype=bool))
    assert spec == {91: 820}


def test_curve_spectrum_matches_distribution_table(g3):
    # plane counts of the curve, cross-checked against the per-orbit rows
    spec = QH.plane_spectrum(g3, V.curve_set(g3))
    assert spec == {0: 270, 1: 250, 2: 270, 4: 30}


def test_theorem_families_q3(g3):
    for j in (1, 3):
        res = QH.verify_quasi_hermitian(g3, QH.assemble(g3, QH.QuasiKind("SH2", j=j)))
        assert res["is_quasi"]
        assert res["spectrum"] == {28: 540, 37: 280}


def test_negative_control(g3):
    bad = QH.assemble_orbit_union(g3, ["O", "S1", "H1"])
    res = QH.verify_quasi_hermitian(g3, bad)
    assert not res["is_quasi"]
    assert res["size"] == 190  # wrong cardinality already

    # right size stitched from the wrong orbits is still not two-character
    bad2 = QH.assemble_orbit_union(g3, ["O", "S1", "S3", "H1"])
    res2 = QH.verify_quasi_hermitian(g3, bad2)
    assert res2["size"] == 280  # Hermitian cardinality, wrong stitching
    assert not res2["is_quasi"]


def test_assembled_sets_K_invariant(g3):
    from quasiherm import group as G

    m = QH.assemble(g3, QH.QuasiKind("SH2", j=1))
    for A in G.sl2_generators(g3.F):
        perm = G.point_perm(g3, G.kron_action(g3.F, A))
        assert (m[perm] == m).all()
