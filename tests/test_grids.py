import math

import numpy as np
import pytest

from cxsect import ComplexDim, ComplexEllipsoid, InvalidInputError
from cxsect.grids import direction_grid, params_to_direction, refine_extremum


class TestDirectionGrid:
    def test_unit_directions(self):
        grid = direction_grid(3, 8, 4, with_phases=True)
        assert np.allclose(np.linalg.norm(grid.directions, axis=1), 1.0, atol=1e-14)

    def test_moduli_only_size(self):
        grid = direction_grid(2, 10)
        assert grid.size == 11
        assert grid.params.shape == (11, 1)

    def test_phase_grid_size(self):
        grid = direction_grid(2, 10, 6, with_phases=True)
        assert grid.size == 11 * 6

    def test_covers_coordinate_axes(self):
        grid = direction_grid(2, 8)
        found_e1 = any(np.allclose(d, [1, 0, 0, 0], atol=1e-12) for d in grid.directions)
        found_e3 = any(np.allclose(d, [0, 0, 1, 0], atol=1e-12) for d in grid.directions)
        assert found_e1 and found_e3

    def test_params_roundtrip(self):
        params = np.array([[0.3, 1.1], [1.2, 4.4]])
        dirs = params_to_direction(params, 2)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_bad_param_count(self):
        with pytest.raises(InvalidInputError):
            params_to_direction(np.zeros((1, 3)), 2)


class TestRefineExtremum:
    def test_finds_radial_minimum_of_ellipsoid(self):
        body = ComplexEllipsoid((1.0, 2.0))
        grid = direction_grid(2, 24)
        _, xi, value, _ = refine_extremum(body.radial, grid, body.radial(grid.directions),
                                          mode="min", halvings=3)
        assert value == pytest.approx(1.0, rel=1e-9)
        # minimizer is the small-axis circle |z_1| = 1
        assert abs(xi[0] ** 2 + xi[1] ** 2 - 1.0) < 1e-6

    def test_finds_maximum(self):
        body = ComplexEllipsoid((1.0, 2.0))
        grid = direction_grid(2, 24)
        _, _, value, _ = refine_extremum(body.radial, grid, body.radial(grid.directions),
                                         mode="max", halvings=3)
        assert value == pytest.approx(2.0, rel=1e-9)

    def test_rejects_an_unknown_mode(self):
        # "maximum" is neither mode: it must not fall through to minimising
        body = ComplexEllipsoid((1.0, 2.0))
        grid = direction_grid(2, 24)
        with pytest.raises(InvalidInputError, match="mode must be"):
            refine_extremum(body.radial, grid, body.radial(grid.directions), mode="maximum")

    def test_refinement_improves_on_coarse_grid(self):
        body = ComplexEllipsoid((1.0, 1.618))
        grid = direction_grid(2, 5)
        values = body.radial(grid.directions)
        coarse = float(np.min(values))
        _, _, refined, _ = refine_extremum(body.radial, grid, values,
                                           mode="min", halvings=3)
        assert refined <= coarse + 1e-15
        assert refined == pytest.approx(1.0, rel=1e-6)

    def test_grid_values_come_from_the_caller(self):
        # fn sees only pattern-search candidates: at most 2 per parameter
        body = ComplexEllipsoid((1.0, 1.3))
        grid = direction_grid(2, 8, 6, with_phases=True)
        rows = []

        def fn(X):
            rows.append(len(X))
            return body.radial(X)

        _, _, value, evals = refine_extremum(fn, grid, body.radial(grid.directions),
                                             mode="min", halvings=3)
        assert rows and max(rows) <= 2 * grid.params.shape[1]
        assert evals == sum(rows)
        assert value == pytest.approx(1.0, rel=1e-6)

    def test_ties_keep_the_earlier_point(self):
        # the grid's first best point starts; a tie never moves it; among equal
        # candidates the first in (coordinate, +, -) order wins
        grid = direction_grid(2, 4, 4, with_phases=True)
        values = np.zeros(grid.size)
        values[[6, 7]] = 1.0
        start = grid.params[6]

        def flat(level):
            return lambda X: np.full(len(X), level)

        p, _, value, evals = refine_extremum(flat(1.0), grid, values, halvings=3)
        assert np.array_equal(p, start) and value == 1.0
        assert evals == 4 * 4  # one sweep of 2d candidates per step size
        p, _, value, _ = refine_extremum(flat(2.0), grid, values, halvings=3)
        assert np.array_equal(p, start + [grid.steps[0], 0.0]) and value == 2.0
        p, _, value, _ = refine_extremum(lambda X: np.array([1.5, 1.5, 2.0, 2.0]), grid, values,
                                         halvings=0)
        assert np.array_equal(p, start + [0.0, grid.steps[1]]) and value == 2.0
