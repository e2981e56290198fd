"""Tests for data lineage (the programmatic Fig. 1)."""

import pytest

from repro.collab import CollaborationServer
from repro.lineage import LineageGraph, ancestry_text, ascii_lineage, to_dot


@pytest.fixture
def setup():
    server = CollaborationServer()
    server.register_user("ana")
    server.register_user("ben")
    session = server.connect("ana")
    src = session.create_document("sources", text="the quick brown fox")
    mid = session.create_document("draft", text="draft: ")
    dst = session.create_document("final", text="final: ")
    return server, session, src, mid, dst


class TestGraphConstruction:
    def test_nodes_without_edges(self, setup):
        server, *_ = setup
        graph = LineageGraph(server.db).build()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 0

    def test_paste_creates_edge(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 4, 5)
        session.paste(mid.doc, 7)
        graph = LineageGraph(server.db).build()
        assert graph.number_of_edges() == 1
        (edge,) = graph.edges(data=True)
        assert edge[0] == str(src.doc)
        assert edge[1] == str(mid.doc)
        assert edge[2]["n_chars"] == 5

    def test_external_source_node(self, setup):
        server, session, src, mid, dst = setup
        session.copy_external("cited text", "https://example.org")
        session.paste(mid.doc, 0)
        graph = LineageGraph(server.db).build()
        assert graph.nodes["https://example.org"]["kind"] == "external"

    def test_multigraph_keeps_parallel_edges(self, setup):
        server, session, src, mid, dst = setup
        for __ in range(3):
            session.copy(src.doc, 0, 3)
            session.paste(mid.doc, 0)
        graph = LineageGraph(server.db).build()
        assert graph.number_of_edges(str(src.doc), str(mid.doc)) == 3


class TestQueries:
    def test_sources_and_derivatives(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 0, 3)
        session.paste(mid.doc, 0)
        lineage = LineageGraph(server.db)
        assert len(lineage.sources_of(mid.doc)) == 1
        assert len(lineage.derivatives_of(src.doc)) == 1
        assert lineage.sources_of(src.doc) == []

    def test_transitive_closure(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 0, 5)
        session.paste(mid.doc, 0)
        session.copy(mid.doc, 0, 3)
        session.paste(dst.doc, 0)
        lineage = LineageGraph(server.db)
        assert lineage.transitive_sources(dst.doc) == {
            str(src.doc), str(mid.doc),
        }
        assert lineage.transitive_derivatives(src.doc) == {
            str(mid.doc), str(dst.doc),
        }

    def test_copied_fraction(self, setup):
        server, session, src, mid, dst = setup
        # mid is "draft: " (7 chars typed); paste 7 more -> 50% copied.
        session.copy(src.doc, 0, 7)
        session.paste(mid.doc, 7)
        lineage = LineageGraph(server.db)
        assert lineage.copied_fraction(mid.doc) == pytest.approx(0.5)
        assert lineage.copied_fraction(src.doc) == 0.0


class TestCharAncestry:
    def test_two_generation_chain(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 4, 5)        # "quick"
        session.paste(mid.doc, 7)
        session.copy(mid.doc, 7, 5)        # the pasted "quick"
        pasted_dst = session.paste(dst.doc, 7)
        lineage = LineageGraph(server.db)
        chain = lineage.char_ancestry(pasted_dst[0])
        assert [step.doc for step in chain] == [
            dst.doc, mid.doc, src.doc,
        ]
        origin = lineage.origin_of(pasted_dst[0])
        assert origin.doc == src.doc

    def test_typed_char_has_trivial_chain(self, setup):
        server, session, src, mid, dst = setup
        lineage = LineageGraph(server.db)
        chain = lineage.char_ancestry(src.char_oid_at(0))
        assert len(chain) == 1

    def test_range_origins(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 0, 3)
        session.paste(mid.doc, 7)
        lineage = LineageGraph(server.db)
        origins = lineage.range_origins(mid.doc, mid.char_oids())
        assert origins["(typed here)"] == 7
        assert origins[str(src.doc)] == 3


class TestRendering:
    def test_ascii_lineage_tree(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 0, 5)
        session.paste(mid.doc, 0)
        session.copy(mid.doc, 0, 3)
        session.paste(dst.doc, 0)
        session.copy_external("xx", "wiki")
        session.paste(dst.doc, 0)
        text = ascii_lineage(LineageGraph(server.db), dst.doc)
        assert text.splitlines()[0].startswith("final (2 paste(s) in)")
        assert "<- draft: 3 chars by ana" in text
        assert "<- sources: 5 chars by ana" in text
        assert "wiki (external)" in text

    def test_dot_output(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 0, 3)
        session.paste(mid.doc, 0)
        dot = to_dot(LineageGraph(server.db).build())
        assert dot.startswith("digraph lineage {")
        assert '"%s" -> "%s"' % (src.doc, mid.doc) in dot
        assert "3 chars by ana" in dot

    def test_ancestry_text(self, setup):
        server, session, src, mid, dst = setup
        session.copy(src.doc, 0, 1)
        (oid,) = session.paste(mid.doc, 0)
        text = ancestry_text(LineageGraph(server.db), oid)
        assert "copied from" in text

    def test_unknown_document(self, setup):
        server, *_ = setup
        text = ascii_lineage(LineageGraph(server.db),
                             server.db.new_oid("doc"))
        assert "unknown document" in text

    def test_cycle_safe(self, setup):
        """A -> B and B -> A must not hang the renderer."""
        server, session, src, mid, dst = setup
        session.copy(src.doc, 0, 3)
        session.paste(mid.doc, 0)
        session.copy(mid.doc, 0, 2)
        session.paste(src.doc, 0)
        text = ascii_lineage(LineageGraph(server.db), src.doc)
        assert "draft" in text
