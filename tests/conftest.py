import random

import pytest

from redstar.geometry import ModelSpace, abelian_lie, aff1, heisenberg3, random_poly


@pytest.fixture
def model_r():
    return ModelSpace(abelian_lie(1), base_dim=2, order=3)


@pytest.fixture
def model_r2():
    return ModelSpace(abelian_lie(2), base_dim=2, order=3)


@pytest.fixture
def model_heis():
    return ModelSpace(heisenberg3(), base_dim=2, order=3)


@pytest.fixture
def model_aff():
    return ModelSpace(aff1(), base_dim=2, order=3)


class RandomFuncs:
    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def poly(self, model, deg=3, gens=None, nterms=3):
        return random_poly(self.rng, model, deg, gens, nterms)

    def base(self, model, deg=3, nterms=3):
        return self.poly(model, deg, model.base_names, nterms)

    def state(self, model, deg=2, nterms=3):
        if model.has_group:
            return model.fiber_state(
                self.poly(model, deg, model.base_names + model.group_names, nterms)
            )
        return self.base(model, deg, nterms)


@pytest.fixture
def rand():
    return RandomFuncs(2026)
