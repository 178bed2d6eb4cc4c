"""geometry.memo: every per-model and per-algebra table is built once per
owner and arguments, and kept in the owner's dict under its key."""

from collections import Counter

import pytest

from redstar import involution, starprod
from redstar.geometry import (LieAlgebraData, ModelSpace, gaussian_base_weight,
                              heisenberg3, memo)

K = 3


def model(order=K, lie=None):
    return ModelSpace(lie or heisenberg3(), 2, order)


def weight(m, exponent=1):
    return gaussian_base_weight(m, exponent)


# name: (holder, owner kind, args of the model, today's key, another call);
# another call gives (owner, args) for another model, order or weight
BUILDERS = {
    "moyal_table": (starprod, "model", lambda m: (K,), ("moyal_table", K),
                    lambda m: (m, (K - 1,))),
    "_insert": (starprod, "lie", lambda m: (2, (0, 1)), ("insert", 2, (0, 1)),
                lambda m: (heisenberg3(), (2, (0, 1)))),
    "_sorted_symbol": (starprod, "model", lambda m: ((0, 1, 2),),
                       ("sorted_symbol", (0, 1, 2)), lambda m: (model(K - 1), ((0, 1, 2),))),
    "_splits": (starprod, "lie", lambda m: ((0, 1, 1),), ("splits", (0, 1, 1)),
                lambda m: (heisenberg3(), ((0, 1, 1),))),
    "_sym_table": (starprod, "lie", lambda m: ((0, 1, 2),), ("sym", (0, 1, 2)),
                   lambda m: (heisenberg3(), ((0, 1, 2),))),
    "_inverse_table": (starprod, "lie", lambda m: ((0, 1, 2),), ("inverse", (0, 1, 2)),
                       lambda m: (heisenberg3(), ((0, 1, 2),))),
    "_normalization_exponent": (starprod, "model", lambda m: (), "norm_exponent",
                                lambda m: (model(K - 1), ())),
    "neumaier_N": (starprod, "model", lambda m: (), "norm_op",
                   lambda m: (model(K - 1), ())),
    "neumaier_N_inverse": (starprod, "model", lambda m: (), "norm_op_inverse",
                           lambda m: (model(K - 1), ())),
    "right_momentum_operator": (starprod, "model", lambda m: (1,), ("right_momentum", 1),
                                lambda m: (model(K - 1), (1,))),
    "momentum": (ModelSpace, "model", lambda m: (2,), ("momentum", 2),
                 lambda m: (model(K - 1), (2,))),
    "left_invariant_field": (ModelSpace, "model", lambda m: (1,), ("liv", 1),
                             lambda m: (model(K - 1), (1,))),
    "fundamental_field_M": (ModelSpace, "model", lambda m: ((0, 1, 0),),
                            ("ffm", (0, 1, 0)), lambda m: (model(K - 1), ((0, 1, 0),))),
    "_involution_steps": (involution, "model", lambda m: (weight(m),),
                          ("involution_steps", weight(model())),
                          lambda m: (m, (weight(m, 2),))),
}


def owner_dict(owner):
    return owner.pbw_tables if isinstance(owner, LieAlgebraData) else owner._field_cache


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_runs_once_per_key(monkeypatch, name):
    """The builder behind each memoised function runs once per owner and
    key: a second call returns the identical object, the value sits in the
    owner's dict under today's key, and another model, order or weight (or
    another algebra for the PBW tables) builds its own value."""
    holder, kind, args, key, other = BUILDERS[name]
    m = model()
    owner = m.lie if kind == "lie" else m
    get = getattr(holder, name)
    first = get(owner, *args(m))
    assert owner_dict(owner)[key] is first
    assert get(owner, *args(m)) is first

    # the same builder counted under the same tag, on fresh owners; calls
    # made from inside the builders (recursion, other tables) are counted too
    built = Counter()
    tag = key if isinstance(key, str) else key[0]
    build = get.__wrapped__

    def counting(owner, *a):
        built[id(owner), a] += 1
        return build(owner, *a)

    monkeypatch.setattr(holder, name, memo(tag)(counting))
    get = getattr(holder, name)
    m = model()
    owner = m.lie if kind == "lie" else m
    value = get(owner, *args(m))
    assert value == first and value is not first
    assert get(owner, *args(m)) is value
    assert owner_dict(owner)[key] is value
    assert built[id(owner), args(m)] == 1
    other_owner, other_args = other(m)
    again = get(other_owner, *other_args)
    assert again is not value
    assert get(other_owner, *other_args) is again
    assert built[id(other_owner), other_args] == 1
    assert set(built.values()) == {1}


def test_a_falsy_value_counts_as_built():
    """The memo tests the key, not the value: an empty table is built once."""
    built = []

    @memo("empty")
    def empty(owner, n):
        built.append(n)
        return {}

    m = model()
    assert empty(m, 1) == {} and empty(m, 1) is empty(m, 1)
    assert m._field_cache[("empty", 1)] == {}
    empty(m.lie, 1)
    assert built == [1, 1] and m.lie.pbw_tables[("empty", 1)] == {}
