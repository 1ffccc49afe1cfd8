"""Hypothesis property tests for the executor's cache key and cache.

The key must be a pure function of the cell spec plus the source
fingerprint: equal specs collide, any single-field perturbation (seed,
config knob, workload name, package version/fingerprint) separates, and
a cache round trip preserves payloads exactly.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import Cell, ResultCache

# parameter values that survive canonical JSON unchanged
scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)
param_values = st.one_of(scalars, st.lists(scalars, max_size=4))
param_dicts = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8),
    param_values,
    max_size=5,
)
names = st.text(min_size=1, max_size=16)


@given(kind=names, name=names, params=param_dicts)
def test_equal_specs_hash_equal(kind, name, params):
    a = Cell.make(kind, name, **params)
    b = Cell.make(kind, name, **dict(reversed(list(params.items()))))
    assert a == b
    assert a.key(fingerprint="fp") == b.key(fingerprint="fp")


@given(name=names, a=param_dicts, b=param_dicts)
def test_cell_equality_is_cache_key_equality(name, a, b):
    """run_all drops duplicate cells by equality (and hashes them into
    dicts), so equality must mean exactly "same cache key"."""
    x = Cell.make("sweep", name, **a)
    y = Cell.make("sweep", name, **b)
    assert (x == y) == (x.key(fingerprint="fp") == y.key(fingerprint="fp"))
    if x == y:
        assert hash(x) == hash(y)
    assert len({x, y, Cell.make("sweep", name, **a)}) == (1 if x == y else 2)


@given(
    name=names,
    params=param_dicts,
    field=st.sampled_from(["seed", "scale", "stages", "workload"]),
    old=scalars,
    new=scalars,
)
def test_single_field_perturbation_changes_key(name, params, field, old, new):
    if old == new or (old is not None and new is not None and old == new):
        new = [new, "perturbed"]
    base = dict(params)
    base[field] = old
    perturbed = dict(params)
    perturbed[field] = new
    a = Cell.make("experiment", name, **base)
    b = Cell.make("experiment", name, **perturbed)
    assert a.key(fingerprint="fp") != b.key(fingerprint="fp")


@given(name=names, other=names, params=param_dicts)
def test_name_perturbation_changes_key(name, other, params):
    if other == name:
        other = name + "'"
    a = Cell.make("experiment", name, **params)
    b = Cell.make("experiment", other, **params)
    assert a.key(fingerprint="fp") != b.key(fingerprint="fp")


@given(name=names, params=param_dicts, fp_a=names, fp_b=names)
def test_fingerprint_perturbation_changes_key(name, params, fp_a, fp_b):
    """Bumping the package version or editing a workload source changes
    the fingerprint, which must invalidate every key."""
    if fp_a == fp_b:
        fp_b = fp_a + "'"
    cell = Cell.make("experiment", name, **params)
    assert cell.key(fingerprint=fp_a) != cell.key(fingerprint=fp_b)


@given(name=names, kind_a=names, kind_b=names, params=param_dicts)
def test_kind_perturbation_changes_key(name, kind_a, kind_b, params):
    if kind_a == kind_b:
        kind_b = kind_a + "'"
    a = Cell.make(kind_a, name, **params)
    b = Cell.make(kind_b, name, **params)
    assert a.key(fingerprint="fp") != b.key(fingerprint="fp")


payloads = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(
        scalars,
        st.lists(st.one_of(scalars, st.lists(scalars, max_size=3)), max_size=4),
        st.dictionaries(st.text(max_size=6), scalars, max_size=3),
    ),
    max_size=6,
)


@settings(max_examples=40)
@given(params=param_dicts, payload=payloads)
def test_cache_roundtrip_preserves_payload_exactly(params, payload):
    cell = Cell.make("experiment", "prop", **params)
    key = cell.key(fingerprint="fp")
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put(key, cell, payload)
        record = cache.get(key)
    assert record is not None
    assert record["payload"] == payload
    assert record["cell"] == cell.spec()
