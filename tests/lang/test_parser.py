"""Tests for the script → DAG parser (Section 3)."""

import pytest

from repro.core.transformations import DELETE, Transformation, apply_transformation
from repro.dialects import get_dialect
from repro.lang import (
    NGRAM,
    ONEGRAM,
    Atom,
    Edge,
    ScriptParseError,
    Statement,
    parse_script,
)

SCRIPT = (
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = df[df['SkinThickness'] < 80]\n"
    "df = pd.get_dummies(df)"
)


@pytest.fixture()
def dag():
    return parse_script(SCRIPT)


class TestAtoms:
    def test_atom_requires_valid_gram(self):
        with pytest.raises(ValueError):
            Atom("2-gram", "x")

    def test_atom_requires_signature(self):
        with pytest.raises(ValueError):
            Atom(ONEGRAM, "")

    def test_atom_str(self):
        assert str(Atom(NGRAM, "df = df.dropna()")) == "df = df.dropna()"

    def test_edge_tuple(self):
        assert Edge("a", "b").as_tuple() == ("a", "b")
        assert str(Edge("a", "b")) == "a -> b"


class TestStatements:
    def test_statement_count(self, dag):
        assert len(dag) == 5

    def test_ngram_is_source_text(self, dag):
        assert dag.statements[2].ngram.signature == "df = df.fillna(df.mean())"

    def test_import_is_protected(self, dag):
        assert dag.statements[0].protected
        assert dag.statements[0].is_import

    def test_read_csv_is_protected(self, dag):
        assert dag.statements[1].protected
        assert dag.statements[1].is_read_csv

    def test_body_statements_unprotected(self, dag):
        assert not dag.statements[2].protected
        assert not dag.statements[3].protected

    @pytest.mark.parametrize(
        "source",
        ["df = pd.read_csv('a.csv')", "df = pd.read_csv('a.csv').dropna()"],
    )
    def test_pandas_loads_are_protected(self, source):
        assert Statement.from_source(0, source).protected

    def test_tablereport_load_is_protected(self):
        tablereport = get_dialect("tablereport")
        statement = Statement.from_source(
            0, "design = tr.load_design('design.csv')", dialect=tablereport
        )
        assert statement.is_read_csv and statement.protected

    def test_loader_name_in_a_string_is_not_a_load(self):
        statement = Statement.from_source(0, "df = df.drop(columns=['read_csv_flag'])")
        assert not statement.is_read_csv and not statement.protected
        dag = parse_script(
            "import pandas as pd\ndf = pd.read_csv('a.csv')\n"
            "df = df.drop(columns=['read_csv_flag'])"
        )
        delete = Transformation(DELETE, NGRAM, dag.statements[2].source, 2)
        assert len(apply_transformation(dag.statements, delete)) == 2

    def test_reads_writes(self, dag):
        fillna = dag.statements[2]
        assert "df" in fillna.reads
        assert "df" in fillna.writes

    def test_import_writes_alias(self, dag):
        assert "pd" in dag.statements[0].writes

    def test_from_source_single_statement(self):
        stmt = Statement.from_source(0, "df = df.dropna()")
        assert stmt.source == "df = df.dropna()"
        assert stmt.index == 0

    def test_from_source_rejects_multiple(self):
        with pytest.raises(ScriptParseError):
            Statement.from_source(0, "x = 1\ny = 2")

    def test_from_source_rejects_invalid(self):
        with pytest.raises(ScriptParseError):
            Statement.from_source(0, "x ===")

    def test_subscript_store_counts_as_write(self):
        stmt = Statement.from_source(0, "df['a'] = 1")
        assert "df" in stmt.writes


class TestOnegrams:
    def test_fillna_atoms(self, dag):
        sigs = {a.signature for a in dag.statements[2].onegrams}
        assert "fillna(df,@)" in sigs
        assert "mean(df)" in sigs

    def test_filter_atoms(self, dag):
        sigs = {a.signature for a in dag.statements[3].onegrams}
        assert "subscript(df,'SkinThickness')" in sigs
        assert "<(@,80)" in sigs
        assert "subscript(df,@)" in sigs

    def test_intra_edges_follow_nesting(self, dag):
        edges = {e.as_tuple() for e in dag.statements[3].intra_edges}
        assert ("subscript(df,'SkinThickness')", "<(@,80)") in edges
        assert ("<(@,80)", "subscript(df,@)") in edges

    def test_call_receiver_is_first_arg(self, dag):
        sigs = {a.signature for a in dag.statements[4].onegrams}
        assert "get_dummies(pd,df)" in sigs

    def test_onegram_counter(self, dag):
        counter = dag.onegram_counter()
        assert counter["mean(df)"] == 1
        assert sum(counter.values()) == len(
            [a for s in dag.statements for a in s.onegrams]
        )


class TestInterEdges:
    def test_dataflow_chain(self, dag):
        edges = {e.as_tuple() for e in dag.inter_edges()}
        assert (
            "df = pd.read_csv('diabetes.csv')",
            "df = df.fillna(df.mean())",
        ) in edges
        assert (
            "df = df.fillna(df.mean())",
            "df = df[df['SkinThickness'] < 80]",
        ) in edges

    def test_import_feeds_read(self, dag):
        edges = {e.as_tuple() for e in dag.inter_edges()}
        assert ("import pandas as pd", "df = pd.read_csv('diabetes.csv')") in edges

    def test_no_self_edges(self, dag):
        for e in dag.edges():
            if e.source == e.target:
                # only allowed for distinct statements with identical text
                count = sum(
                    1 for s in dag.statements if s.ngram.signature == e.source
                )
                assert count > 1

    def test_edge_counter_totals(self, dag):
        counter = dag.edge_counter()
        assert sum(counter.values()) == len(dag.edges())

    def test_lemmatization_applied_by_default(self):
        dag = parse_script(
            "import pandas as pd\ntrain = pd.read_csv('d.csv')\ntrain = train.dropna()"
        )
        assert dag.statements[1].source == "df = pd.read_csv('d.csv')"

    def test_lemmatized_flag_skips_renaming(self):
        dag = parse_script("x = 1\ny = x + 1", lemmatized=True)
        assert len(dag) == 2


class TestExports:
    def test_source_roundtrip(self, dag):
        assert parse_script(dag.source(), lemmatized=True).source() == dag.source()

    def test_to_dot_contains_nodes_and_edges(self, dag):
        dot = dag.to_dot()
        assert dot.startswith("digraph")
        assert "s0" in dot and "->" in dot

    def test_to_networkx(self, dag):
        graph = dag.to_networkx()
        assert graph.number_of_nodes() == 5
        assert graph.has_edge(1, 2)

    def test_networkx_is_acyclic(self, dag):
        import networkx as nx

        assert nx.is_directed_acyclic_graph(dag.to_networkx())
