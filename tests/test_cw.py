import random
from fractions import Fraction as F

import pytest

import voteboard as vb
from voteboard import (
    InfeasibleBounds,
    InvalidParameter,
    build_dominance_matrix,
    find_cw_weights,
    is_prospective,
)

import oracle
from conftest import random_board


def verify_witness(matrix, w, margin=0):
    assert sum(w, F(0)) == 1
    assert all(v >= 0 for v in w)
    m = vb.as_fraction(margin)
    for row in matrix.rows:
        assert sum(F(c) * v for c, v in zip(row, w)) >= m


def test_toy_dominance_rows(toy):
    mat = build_dominance_matrix(toy, "B")
    assert mat.tasks == ("t1", "t2", "t3", "t4", "t5")
    rows = dict(zip(mat.rivals, mat.rows))
    assert rows["A"] == (-1, -1, 1, 1, 1)
    assert rows["C"] == (1, -1, 1, -1, 1)
    assert rows["D"] == (1, -1, 1, 1, -1)


def test_min_direction_flips_signs():
    lb = vb.Leaderboard.from_scores(
        {"a": {"t": 1.0}, "b": {"t": 2.0}},
        tasks=["t"],
        directions={"t": "min"},
    )
    mat = build_dominance_matrix(lb, "a")
    assert mat.rows == ((1,),)


def test_toy_every_system_is_prospective(toy):
    # each system tops at least one task, so piling weight there suffices
    for m in toy.systems:
        res = find_cw_weights(build_dominance_matrix(toy, m))
        assert res.prospective
        verify_witness(build_dominance_matrix(toy, m), res.witness)


def test_positive_margin(toy):
    mat = build_dominance_matrix(toy, "B")
    res = find_cw_weights(mat, margin=F(1, 10))
    assert res.prospective
    verify_witness(mat, res.witness, margin=F(1, 10))
    with pytest.raises(ValueError):
        find_cw_weights(mat, margin=-1)


def test_margin_zero_asks_only_for_a_weak_win():
    # two identical systems: no rival beats a, but a beats no rival either
    lb = vb.Leaderboard.from_scores(
        {"a": {"t1": 1.0, "t2": 1.0}, "b": {"t1": 1.0, "t2": 1.0}}, tasks=["t1", "t2"]
    )
    mat = build_dominance_matrix(lb, "a")
    weak = find_cw_weights(mat)
    assert (weak.status, weak.witness) == ("prospective", (F(1), F(0)))
    assert find_cw_weights(mat, margin=F(1, 100)).status == "non_prospective"


def test_strictly_dominated_never_prospective():
    lb = vb.Leaderboard.from_scores(
        {"a": {"t1": 1.0, "t2": 1.0}, "b": {"t1": 2.0, "t2": 2.0}},
        tasks=["t1", "t2"],
    )
    assert not is_prospective(lb, "a")
    assert is_prospective(lb, "b")


def test_bounds_validation(toy):
    mat = build_dominance_matrix(toy, "B")
    with pytest.raises(InfeasibleBounds):
        find_cw_weights(mat, lower_bounds=F(1, 2), upper_bounds=F(1, 4))
    with pytest.raises(InfeasibleBounds):
        find_cw_weights(mat, lower_bounds=F(1, 3))  # 5 * 1/3 > 1
    with pytest.raises(InfeasibleBounds):
        find_cw_weights(mat, upper_bounds=F(1, 10))  # 5 * 1/10 < 1


def test_bounds_respected(toy):
    mat = build_dominance_matrix(toy, "B")
    res = find_cw_weights(mat, lower_bounds=F(1, 20), upper_bounds=F(1, 2))
    if res.prospective:
        for v in res.witness:
            assert F(1, 20) <= v <= F(1, 2)
        verify_witness(mat, res.witness)


def test_per_task_bounds(toy):
    mat = build_dominance_matrix(toy, "B")
    lowers = [F(1, 10), None, None, None, None]
    res = find_cw_weights(mat, lower_bounds=lowers)
    assert res.prospective
    assert res.witness[0] >= F(1, 10)


def test_equality_bounds_pin_the_witness(toy):
    mat = build_dominance_matrix(toy, "A")
    # force uniform weights: A loses 1-3 against B, not feasible
    fifth = F(1, 5)
    res = find_cw_weights(mat, lower_bounds=fifth, upper_bounds=fifth)
    assert not res.prospective


def test_objective_optimizes_direction(toy):
    mat = build_dominance_matrix(toy, "B")
    maxed = find_cw_weights(mat, objective=[1, 0, 0, 0, 0])
    assert maxed.prospective
    # t1 weight cannot exceed what keeps B unbeaten against A
    other = find_cw_weights(mat)
    assert maxed.witness[0] >= other.witness[0]


def test_status_matches_vertex_oracle():
    rng = random.Random(55)
    disagreements = 0
    for _ in range(120):
        lb = random_board(rng, max_systems=4, max_tasks=4)
        for m in lb.systems:
            mat = build_dominance_matrix(lb, m)
            res = find_cw_weights(mat)
            if res.prospective != oracle.vertex_feasible(mat):
                disagreements += 1
            if res.witness is not None:
                verify_witness(mat, res.witness)
    assert disagreements == 0


@pytest.fixture
def small_matrix():
    lb = vb.Leaderboard.from_scores(
        {"a": {"x": 1.0, "y": 2.0, "z": 3.0}, "b": {"x": 2.0, "y": 1.0, "z": 3.0}}
    )
    return build_dominance_matrix(lb, "a")


def test_lower_bounds_of_the_wrong_length_are_invalid(small_matrix):
    with pytest.raises(InvalidParameter, match="length"):
        find_cw_weights(small_matrix, lower_bounds=[0, 0])


def test_upper_bounds_of_the_wrong_length_are_invalid(small_matrix):
    with pytest.raises(InvalidParameter, match="length"):
        find_cw_weights(small_matrix, upper_bounds=[1, 1, 1, 1])


def test_objective_of_the_wrong_length_is_invalid(small_matrix):
    with pytest.raises(InvalidParameter, match="length"):
        find_cw_weights(small_matrix, objective=[1, 0])


@pytest.mark.parametrize("bad", [
    {"upper_bounds": ["abc", 1, 1]},
    {"upper_bounds": [1, "1/0", 1]},
    {"lower_bounds": [0, float("nan"), 0]},
    {"upper_bounds": float("inf")},
    {"objective": [1, None, 0]},
    # bounds broadcast a single value over the tasks; an objective does not
    {"objective": 1},
    {"margin": "1/0"},
    {"margin": "inf"},
])
def test_entries_as_fraction_rejects_are_invalid(small_matrix, bad):
    with pytest.raises(InvalidParameter):
        find_cw_weights(small_matrix, **bad)
