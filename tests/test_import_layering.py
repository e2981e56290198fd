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
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

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
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(done.stdout.splitlines()[-1])
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
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", SERVING_CHILD], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["text"] == "hello!"
    assert out["loaded"] == []
    assert out["resolved"] == [True] * 9
