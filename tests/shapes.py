"""Hypothesis strategies for series values, shared by the graph and metric tests."""
from hypothesis import strategies as st

series_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=60,
)
rhos = st.integers(min_value=0, max_value=4)

# shapes that are worst cases for a left-to-right scan or full of ties
monotone_values = st.builds(
    lambda xs, up: sorted(xs, reverse=not up),
    st.lists(st.integers(min_value=-5, max_value=30).map(float), min_size=2, max_size=60),
    st.booleans(),
)
plateau_values = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=12)),
    min_size=1,
    max_size=10,
).map(lambda runs: [float(level) for level, length in runs for _ in range(length)]).filter(
    lambda xs: len(xs) >= 2
)
sawtooth_values = st.builds(
    lambda n, tooth, up: [float((i % tooth) if up else -(i % tooth)) + 0.01 * i for i in range(n)],
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
)
