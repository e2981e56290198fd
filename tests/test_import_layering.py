"""Editing, serving and search load neither numpy nor networkx.

Only the lineage graph and the text / visual miners (Figs. 1-2) use the
two libraries, so ``repro`` and ``repro.mining`` import those names on
first access (PEP 562).  A fresh interpreter imports every serving
package, builds a small portal and searches it, then proves that neither
library was loaded; only after that does it resolve the lazy names and
check they are the defining modules' own objects.

A serving process goes further: ``repro`` resolves the search, folder,
workflow and metadata names on first access too, so a wire server and
an editor over the wire load none of those packages.

And only a server runs an event loop: ``repro.net`` resolves its server
names on first access and :class:`~repro.net.thread.ServerThread`
imports the server when one is built, so an editor over the wire,
``repro top`` and a portal load neither asyncio nor ssl.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run_child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


REPRO_ALL = [
    "AccessController", "CollaborationServer", "Database", "DocumentHandle",
    "DocumentStore", "DynamicFolderManager", "EditingSession",
    "EditorClient", "LineageGraph", "MetadataCollector", "NoteManager",
    "ObjectManager", "Oid", "PrincipalRegistry", "PropertyManager",
    "SearchEngine", "SimulatedClock", "StaticFolderManager",
    "StructureManager", "StyleManager", "SystemClock", "TaskList",
    "TendaxError", "VersionManager", "VisualMiner", "WorkflowManager",
    "col", "column", "recover", "recover_file",
]
MINING_ALL = [
    "DIMENSIONS", "DocumentFeatures", "DocumentMap", "FeatureExtractor",
    "MapPoint", "TfIdfModel", "VisualMiner", "cosine_similarity_matrix",
    "fit_tfidf", "kmeans_clusters", "similar_documents", "tokenize",
    "top_terms",
]

CHILD = """
import json, sys
import repro, repro.cli, repro.net, repro.repl, repro.workload, repro.search
from repro.workload import PortalSpec, build_portal

portal = build_portal(PortalSpec(n_docs=40, live_docs=3))
hits = len(portal.search.search("report", limit=5))
portal.close()
out = {"hits": hits,
       "loaded": sorted({"numpy", "networkx"} & sys.modules.keys())}

import repro.mining
from repro.lineage.graph import LineageGraph
from repro.mining.textmine import fit_tfidf
from repro.mining.visual import DocumentMap, VisualMiner
out["resolved"] = [repro.LineageGraph is LineageGraph,
                   repro.VisualMiner is VisualMiner,
                   repro.mining.fit_tfidf is fit_tfidf,
                   repro.mining.DocumentMap is DocumentMap]
star = {}
exec("from repro import *", star)
out["star"] = all(star[name] is getattr(repro, name) for name in repro.__all__)
out["all"] = [repro.__all__, repro.mining.__all__]
try:
    repro.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
"""


def test_serving_processes_load_no_analytics_library():
    out = run_child(CHILD)
    assert out["hits"] > 0
    assert out["loaded"] == []
    assert out["resolved"] == [True] * 4
    assert out["star"] is True
    assert out["all"] == [REPRO_ALL, MINING_ALL]
    assert out["missing"] == "module 'repro' has no attribute 'no_such_name'"


#: Packages whose names ``repro`` also resolves on first access: a
#: serving process (``repro serve``, an editor over the wire) uses none.
NOT_SERVING = ("repro.search", "repro.folders", "repro.process",
               "repro.meta")

SERVING_CHILD = """
import json, sys
import repro, repro.cli, repro.faults, repro.repl
from repro.collab import CollaborationServer, EditorClient
from repro.net import NetworkClient, ServerThread

collab = CollaborationServer()
collab.register_user("ana")
with ServerThread(collab) as thread:
    client = NetworkClient("127.0.0.1", thread.port, "ana")
    doc = client.session().create_document("pad", text="hello").doc
    editor = EditorClient(client.session(), doc)
    editor.move_end()
    editor.type("!")
    text = editor.text()
    client.close()
out = {"text": text, "loaded": sorted(
    name for name in sys.modules if name.startswith(%r))}
out["resolved"] = [getattr(repro, name).__module__.startswith(%r)
                   for name in sorted(repro._ON_FIRST_USE)]
print(json.dumps(out))
""" % (NOT_SERVING, NOT_SERVING + ("repro.lineage", "repro.mining"))


def test_a_serving_process_loads_no_search_folders_workflow_or_metadata():
    out = run_child(SERVING_CHILD)
    assert out["text"] == "hello!"
    assert out["loaded"] == []
    assert out["resolved"] == [True] * 9


#: What only a server process loads: the event loop and, through it, ssl.
SERVER_ONLY = ("asyncio", "ssl")


def loaded(names) -> str:
    """Child code: the JSON list of ``names`` found in ``sys.modules``."""
    return f"sorted(set({tuple(names)!r}) & sys.modules.keys())"


def test_a_wire_client_loads_no_event_loop():
    """An editor over the wire (the frozen benchmark driver's imports
    included) types into a server running outside its process."""
    from repro.collab import CollaborationServer
    from repro.net import ServerThread

    collab = CollaborationServer()
    collab.register_user("ana")
    with ServerThread(collab) as thread:
        out = run_child(f"""
import json, sys
from repro.collab import EditorClient
from repro.net import (NetworkClient, RemoteSession, ServerThread,
                       scrape)

client = NetworkClient("127.0.0.1", {thread.port}, "ana")
session = client.session()
assert isinstance(session, RemoteSession)
editor = EditorClient(session, session.create_document("pad").doc)
editor.type("hi")
text = editor.text()
client.close()
ops = scrape("127.0.0.1", {thread.port})["metrics"]["net.ops"]["value"]
print(json.dumps({{"text": text, "ops": ops, "loaded": {loaded(SERVER_ONLY)},
                  "server": "repro.net.server" in sys.modules}}))
""")
    assert out["text"] == "hi"
    assert out["ops"] > 0
    assert out["loaded"] == []
    assert out["server"] is False


def test_repro_top_loads_no_event_loop():
    from repro.collab import CollaborationServer
    from repro.net import ServerThread

    with ServerThread(CollaborationServer(node="leader")) as thread:
        out = run_child(f"""
import contextlib, io, json, sys
from repro.cli import main

frame = io.StringIO()
with contextlib.redirect_stdout(frame):
    code = main(["top", "127.0.0.1:{thread.port}"])
print(json.dumps({{"code": code, "frame": frame.getvalue(),
                  "loaded": {loaded(SERVER_ONLY)}}}))
""")
    assert out["code"] == 0
    assert "node=leader" in out["frame"]
    assert out["loaded"] == []


def test_a_portal_process_loads_no_event_loop():
    out = run_child(f"""
import json, sys
import repro.net
from repro.workload import PortalSpec, build_portal

portal = build_portal(PortalSpec(n_docs=40, live_docs=3))
hits = len(portal.search.search("report", limit=5))
portal.close()
print(json.dumps({{"hits": hits, "loaded": {loaded(SERVER_ONLY)}}}))
""")
    assert out["hits"] > 0
    assert out["loaded"] == []


NET_CHILD = """
import json, sys
import repro.net

out = {"before": %s}
star = {}
exec("from repro.net import *", star)
out["star"] = [
    name for name in repro.net.__all__
    if getattr(sys.modules[getattr(star[name], "__module__",
                                   "repro.net.protocol")], name)
    is not star[name]]
out["after"] = %s
try:
    repro.net.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
""" % (loaded(SERVER_ONLY), loaded(SERVER_ONLY))


def test_every_repro_net_name_is_its_defining_modules_object():
    out = run_child(NET_CHILD)
    assert out["before"] == []
    assert out["star"] == []
    assert out["after"] == list(SERVER_ONLY)
    assert out["missing"] == \
        "module 'repro.net' has no attribute 'no_such_name'"


def test_constructing_a_server_thread_loads_the_server():
    out = run_child(f"""
import json, sys
from repro.collab import CollaborationServer
from repro.net import ServerThread

before = {loaded(SERVER_ONLY + ("repro.net.server",))}
thread = ServerThread(CollaborationServer())
print(json.dumps({{"before": before,
                  "after": {loaded(SERVER_ONLY + ("repro.net.server",))},
                  "server": type(thread.server).__module__}}))
""")
    assert out["before"] == []
    assert out["after"] == ["asyncio", "repro.net.server", "ssl"]
    assert out["server"] == "repro.net.server"
