"""Differential tests: EdgeState deltas vs the full positional recount.

The O(Δ) engine's contract is *exactness*: after any insert/delete the
base edge multiset patched by the ``{edge: change}`` delta must equal
:func:`compute_edge_counts` of the spliced sequence, edge for edge, count
for count.  These tests drive the state through directed edge cases and
randomized splice sequences, compare against the from-scratch walk at
every step, and rebuild each spliced state with
:meth:`EdgeState.from_statements`, as the search does for every
candidate it visits.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import EdgeState, parse_script
from repro.lang.parser import Statement, compute_edge_counts

STEP_POOL = [
    "df = df.fillna(df.mean())",
    "df = df.fillna(df.median())",
    "df = df.dropna()",
    "df = df[df['x'] < 80]",
    "df = pd.get_dummies(df)",
    "df['y'] = df['x'] * 2",
    "df = df.drop('z', axis=1)",
    "df = df.sort_values('x')",
    "s = df['x'].sum()",
    "df2 = df.copy()",
    "df = df2.rename(columns={'a': 'b'})",
    "print(s)",
]


def build_script(body):
    return "\n".join(["import pandas as pd", "df = pd.read_csv('t.csv')"] + body)


def statements_for(body):
    return tuple(parse_script(build_script(body)).statements)


def new_statement(source):
    return Statement.from_source(0, source)


def delete(state, position):
    return state.delta_delete(position), splice(state, position)


def insert(state, position, stmt):
    return state.delta_insert(position, stmt), splice(state, position, stmt)


def splice(state, position, stmt=None):
    """*state*'s statements with the one at *position* deleted, or with
    *stmt* inserted there."""
    statements = list(state.statements)
    if stmt is None:
        del statements[position]
    else:
        statements.insert(position, stmt)
    return statements


def patched(counts, delta):
    """*counts* after the ``{edge: change}`` *delta*, zero counts dropped."""
    out = dict(counts)
    for edge, change in delta.items():
        out[edge] = out.get(edge, 0) + change
    return {edge: n for edge, n in out.items() if n}


def assert_delta_exact(state, spliced_delta):
    """The delta must turn *state*'s counts into the full recount of the
    spliced sequence; returns that sequence's state, built from scratch."""
    delta, statements = spliced_delta
    expected = compute_edge_counts(statements)
    assert patched(state.counts, delta) == expected
    new_state = EdgeState.from_statements(statements)
    assert new_state.counts == expected
    return new_state


# ------------------------------------------------------------ construction
def test_from_statements_matches_compute_edge_counts():
    statements = statements_for(STEP_POOL[:6])
    state = EdgeState.from_statements(statements)
    assert state.counts == compute_edge_counts(statements)
    assert len(state) == len(statements)


# ---------------------------------------------------------- directed cases
def test_insert_at_position_zero():
    state = EdgeState.from_statements(statements_for(["df = df.dropna()"]))
    assert_delta_exact(state, insert(state, 0, new_statement("x = 1")))


def test_insert_at_tail():
    state = EdgeState.from_statements(statements_for(["df = df.dropna()"]))
    assert_delta_exact(
        state, insert(state, len(state), new_statement("df = df.sort_values('x')"))
    )


def test_delete_rebinds_downstream_readers_to_previous_writer():
    """Deleting a writer moves its readers' edges to the prior writer."""
    state = EdgeState.from_statements(
        statements_for(["df = df.dropna()", "df = df.sort_values('x')", "print(df)"])
    )
    # delete the sort: print(df) and nothing else rebinds to dropna
    assert_delta_exact(state, delete(state, 3))


def test_insert_rebinds_reader_that_also_writes():
    """A statement that reads and writes a variable binds its read *before*
    its own write, so it rebinds when a writer is spliced right above it."""
    state = EdgeState.from_statements(
        statements_for(["df = df.dropna()", "df = df.fillna(df.mean())"])
    )
    assert_delta_exact(
        state, insert(state, 3, new_statement("df = df.sort_values('x')"))
    )


def test_delete_to_empty():
    state = EdgeState.from_statements(statements_for([])[:1])
    state = assert_delta_exact(state, delete(state, 0))
    assert len(state) == 0
    assert not state.counts


def test_out_of_range_positions_raise_index_error():
    state = EdgeState.from_statements(statements_for(["df = df.dropna()"]))
    with pytest.raises(IndexError):
        state.delta_delete(len(state))
    with pytest.raises(IndexError):
        state.delta_delete(-1)
    with pytest.raises(IndexError):
        state.delta_insert(len(state) + 1, new_statement("x = 1"))
    with pytest.raises(IndexError):
        state.delta_insert(-1, new_statement("x = 1"))


def test_delta_changes_have_no_zero_entries():
    state = EdgeState.from_statements(statements_for(STEP_POOL[:5]))
    for position in range(len(state)):
        assert all(state.delta_delete(position).values())
    stmt = new_statement("df = df.dropna()")
    for position in range(len(state) + 1):
        assert all(state.delta_insert(position, stmt).values())


# --------------------------------------------------------------- randomized
@pytest.mark.parametrize("seed", range(6))
def test_randomized_splice_sequences_stay_exact(seed):
    """Long random walks of inserts/deletes never drift from the recount."""
    rng = random.Random(seed)
    state = EdgeState.from_statements(
        statements_for(rng.sample(STEP_POOL, rng.randint(0, 6)))
    )
    for _ in range(120):
        n = len(state)
        if n and (n >= 14 or rng.random() < 0.5):
            spliced_delta = delete(state, rng.randrange(n))
        else:
            spliced_delta = insert(
                state, rng.randrange(n + 1), new_statement(rng.choice(STEP_POOL))
            )
        state = assert_delta_exact(state, spliced_delta)


@given(
    st.lists(st.sampled_from(STEP_POOL), min_size=0, max_size=6),
    st.sampled_from(STEP_POOL),
    st.integers(0, 8),
)
@settings(max_examples=60)
def test_single_splice_matches_recount(body, step, position):
    statements = statements_for(body)
    state = EdgeState.from_statements(statements)
    insert_at = min(position, len(statements))
    assert_delta_exact(state, insert(state, insert_at, new_statement(step)))
    if statements:
        delete_at = min(position, len(statements) - 1)
        assert_delta_exact(state, delete(state, delete_at))
