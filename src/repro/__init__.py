"""TeNDaX reproduction: a collaborative database-based real-time editor.

A from-scratch Python reproduction of *TeNDaX, a Collaborative
Database-Based Real-Time Editor System* (Leone, Hodel-Widmer, Boehlen,
Dittrich; EDBT 2006).  Text lives natively in a multi-user transactional
database — every character is a row with full metadata — and everything
the demo paper shows is built on top: collaborative editing and layout,
local/global undo, in-document workflows, dynamic folders, data lineage,
visual/text mining and metadata search.

Quick start::

    from repro import CollaborationServer, EditorClient

    server = CollaborationServer()
    server.register_user("ana")
    server.register_user("ben")

    ana = server.connect("ana", os_name="windows-xp")
    doc = ana.create_document("hello", text="Hello world")

    ben = server.connect("ben", os_name="linux")
    editor = EditorClient(ben, doc.doc)
    editor.move_end()
    editor.type("!")            # a real-time database transaction
    print(doc.text())           # ana sees it immediately

See ``examples/`` for full scenarios and ``benchmarks/`` for the
experiment suite documented in EXPERIMENTS.md.

``LineageGraph`` and ``VisualMiner`` are imported on first access: their
modules load networkx and numpy, which no editing, serving or search
path needs.  So are ``SearchEngine``, the folder managers, ``TaskList``,
``WorkflowManager``, ``MetadataCollector`` and ``PropertyManager``, which
an editor or a server (``repro serve``, the wire client) never uses.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from .clock import SimulatedClock, SystemClock
from .collab import CollaborationServer, EditingSession, EditorClient
from .db import Database, col, column, recover, recover_file
from .errors import TendaxError
from .ids import Oid
from .security import AccessController, PrincipalRegistry
from .text import (
    DocumentHandle,
    DocumentStore,
    NoteManager,
    ObjectManager,
    StructureManager,
    StyleManager,
    VersionManager,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .folders import DynamicFolderManager, StaticFolderManager
    from .lineage import LineageGraph
    from .meta import MetadataCollector, PropertyManager
    from .mining import VisualMiner
    from .process import TaskList, WorkflowManager
    from .search import SearchEngine

__version__ = "1.0.0"

#: Names no editing or serving process uses -> the subpackage that
#: defines them: analytics (numpy, networkx), search, folders, workflow
#: and metadata.
_ON_FIRST_USE = {
    "LineageGraph": ".lineage",
    "VisualMiner": ".mining",
    "SearchEngine": ".search",
    "DynamicFolderManager": ".folders",
    "StaticFolderManager": ".folders",
    "TaskList": ".process",
    "WorkflowManager": ".process",
    "MetadataCollector": ".meta",
    "PropertyManager": ".meta",
}


def __getattr__(name: str) -> object:
    """Import a name of :data:`_ON_FIRST_USE` on first access (PEP 562)."""
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_ON_FIRST_USE[name], __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AccessController",
    "CollaborationServer",
    "Database",
    "DocumentHandle",
    "DocumentStore",
    "DynamicFolderManager",
    "EditingSession",
    "EditorClient",
    "LineageGraph",
    "MetadataCollector",
    "NoteManager",
    "ObjectManager",
    "Oid",
    "PrincipalRegistry",
    "PropertyManager",
    "SearchEngine",
    "SimulatedClock",
    "StaticFolderManager",
    "StructureManager",
    "StyleManager",
    "SystemClock",
    "TaskList",
    "TendaxError",
    "VersionManager",
    "VisualMiner",
    "WorkflowManager",
    "col",
    "column",
    "recover",
    "recover_file",
]
