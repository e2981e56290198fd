"""Comparison baselines: file-based word processing and offset storage.

The systems TeNDaX is measured against (DESIGN.md S11).  They are arms
of the benchmarks, not part of the running system, so they live here
rather than in the ``repro`` package.
"""

from .filewp import FileDocument, FileLockedError, FileWordProcessor
from .offsetdoc import OffsetDocumentStore, install_offset_schema

__all__ = [
    "FileDocument",
    "FileLockedError",
    "FileWordProcessor",
    "OffsetDocumentStore",
    "install_offset_schema",
]
