"""Argument checks across the package: each bad input raises ValueError
with a message that names the fault."""

from math import sqrt

import numpy as np
import pytest

from diamray import (
    Coloring,
    PointSet,
    SimplexSpec,
    arrows,
    brick,
    congruent_copies,
    extension_problem,
    far_pair_witness,
    grouped_coloring,
    isosceles_apex_triangle,
    kneser_subsets,
    near_regular_simplex_embedding,
    regular_simplex,
    regular_simplex_arrow,
    right_triangle_embedding,
    segment,
    simplex_from_sides,
    sq_dist_matrix,
    star_witness_values,
)


def _not_a_star():
    # sqrt(2) e1, e2, e3 in R^6: norms sqrt(2), but pairwise 2 apart
    return far_pair_witness(sqrt(2.0) * np.eye(3, 6))


_CASES = {
    # geometry
    "unknown mode 'rational'": lambda: PointSet(((0,),), "rational"),
    "points need dimension >= 1": lambda: PointSet(((),), "exact"),
    "labels must match point count":
        lambda: PointSet(((0,), (1,)), "exact", ("a",)),
    "malformed point-set document: missing 'mode'":
        lambda: PointSet.from_json({"points": [[0]]}),
    "unknown mode 'fraction'":
        lambda: PointSet.from_json({"mode": "fraction", "points": [[0]]}),
    "declared dim does not match points":
        lambda: PointSet.from_json({"mode": "exact", "points": [[0], [1]],
                                    "dim": 2}),
    # constructions
    "segment length must be positive": lambda: segment(0),
    "brick needs at least one side length": lambda: brick([]),
    "need n >= 1, k >= 2, r >= 2": lambda: kneser_subsets(1, 1, 2),
    "apex angle must lie strictly between 0 and 180":
        lambda: isosceles_apex_triangle(180.0),
    "simplex needs at least one vertex": lambda: SimplexSpec(()),
    "side matrix must be square": lambda: SimplexSpec(((0,), (1,))),
    "off-diagonal sides must be positive":
        lambda: SimplexSpec(((0, 0), (0, 0))),
    "empty side list": lambda: simplex_from_sides([]),
    # squaring used to turn -1 into a unit side
    "side 2 (1, 2) has length -1, not positive":
        lambda: simplex_from_sides([1, 1, -1]),
    "side 0 (0, 1) has length 0, not positive":
        lambda: simplex_from_sides(["0", 2, 2]),
    "need at least one vertex": lambda: regular_simplex(0),
    # ramsey
    "pattern larger than host":
        lambda: congruent_copies(segment(1), regular_simplex(3)),
    "need at least one color":
        lambda: arrows(regular_simplex(3), segment(1), 0),
    "need pattern dimension >= 1 and r >= 2":
        lambda: regular_simplex_arrow(0, 2),
    "legs must be nonnegative and not both zero":
        lambda: right_triangle_embedding(0, 0),
    "need at least two vertices":
        lambda: near_regular_simplex_embedding(SimplexSpec(((0,),))),
    # degeneracy: a one-point base has diameter 0
    "side must be positive":
        lambda: extension_problem(PointSet.exact([[0]]), 0, 1),
    "pair 0,1 is not at squared distance 2": _not_a_star,
    "need trials >= 0, got -1": lambda: star_witness_values(-1, 0),
    # coloring
    "need r >= 2": lambda: grouped_coloring(Coloring((0, 1)), 1),
}


@pytest.mark.parametrize("message", list(_CASES))
def test_bad_input_raises_value_error(message):
    with pytest.raises(ValueError) as exc:
        _CASES[message]()
    assert str(exc.value) == message


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint32])
def test_exact_points_take_numpy_integers(dtype):
    pts = np.array([[0, 1, 3], [1, 0, 2], [2, 2, 0]], dtype=dtype)
    P = PointSet.exact(pts)
    assert P.points == ((0, 1, 3), (1, 0, 2), (2, 2, 0))
    assert {type(x) for p in P.points for x in p} == {int}


@pytest.mark.parametrize("scale", [1, 2 ** 40], ids=["int64-lane", "object-lane"])
def test_an_int_array_and_its_list_give_one_distance_matrix(scale):
    # scale 1 takes the int64 lane; at 2^40 the int64 Gram expansion could
    # overflow, so both take the Python-int (object) lane
    pts = np.array([[0, 1, 3], [1, 0, 2], [2, 2, 0], [3, 1, 1]]) * scale
    from_array = sq_dist_matrix(PointSet.exact(pts))
    from_list = sq_dist_matrix(PointSet.exact(pts.tolist()))
    assert from_array.dtype == from_list.dtype
    assert from_array.dtype == (np.int64 if scale == 1 else object)
    assert np.array_equal(from_array, from_list)


@pytest.mark.parametrize("value,message", [
    (True, "booleans are not coordinates"),
    (np.True_, "not an exact scalar: np.True_ (floats need float mode)"),
    (np.float64(1.0), "not an exact scalar: np.float64(1.0) (floats need float mode)"),
    (np.float32(2.0), "not an exact scalar: np.float32(2.0) (floats need float mode)"),
])
def test_exact_points_refuse_bools_and_numpy_floats(value, message):
    with pytest.raises(TypeError) as exc:
        PointSet.exact([[0], [value]])
    assert str(exc.value) == message
