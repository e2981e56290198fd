"""An empty follower converges to any leader, restarted or not.

A leader's log file is the only copy of its history, so a leader that
restarted on its own file serves everything it ever logged — not just
what it appended since the restart.  A follower that starts empty reads
the file from LSN 1, in process (:class:`~repro.repl.WalTailer`) and over
the wire (``SUBSCRIBE`` to a :class:`~repro.net.ServerThread`).
Converging means equal rows, and a follower log holding the very LSNs of
the leader's file.
"""

from __future__ import annotations

from repro.collab import CollaborationServer
from repro.db import Database, column
from repro.db.recovery import restart
from repro.db.wal import WriteAheadLog
from repro.net import NetworkClient, ReplicationClient, ServerThread
from repro.repl import FollowerEngine, WalTailer

TABLE = "notes"


def commit_rows(db: Database, prefix: str, n: int) -> None:
    for i in range(n):
        db.insert(TABLE, {"k": f"{prefix}{i}", "v": i})


def rows(db: Database) -> dict:
    return dict(db.table(TABLE).committed_items())


def logged_lsns(path: str) -> list:
    return [r.lsn for r in WriteAheadLog.load_file(path)]


def tables_equal(leader: Database, replica: Database) -> None:
    assert set(leader.tables()) == set(replica.tables())
    for name in leader.tables():
        assert dict(leader.table(name).committed_items()) \
            == dict(replica.table(name).committed_items()), name


class TestRestartedLeader:
    def test_empty_follower_converges_in_process(self, tmp_path):
        path = str(tmp_path / "leader.wal")
        first = Database("leader", wal_path=path)
        first.create_table(TABLE, [column("k", "str"), column("v", "int")],
                           key="k")
        commit_rows(first, "before-", 5)
        first.close()
        leader, _ = restart(path, node="leader")
        commit_rows(leader, "after-", 5)
        mirror = str(tmp_path / "follower.wal")
        follower = FollowerEngine(mirror, node="replica")
        tailer = WalTailer(leader.wal, follower)
        tailer.poll()
        assert tailer.caught_up()
        assert follower.applied_lsn == leader.wal.last_lsn()
        assert rows(follower.db) == rows(leader)
        assert len(rows(leader)) == 10
        assert logged_lsns(mirror) == logged_lsns(path)
        leader.close(); follower.close()

    def test_empty_follower_converges_over_the_wire(self, tmp_path):
        path = str(tmp_path / "leader.wal")
        first = CollaborationServer(wal_path=path)
        first.register_user("ana")
        session = first.connect("ana")
        pad = session.create_document("pad", text="typed before")
        first.shutdown()
        collab = CollaborationServer(wal_path=path)   # restart, same file
        mirror = str(tmp_path / "follower.wal")
        follower = FollowerEngine(mirror, node="replica")
        with ServerThread(collab) as thread:
            client = NetworkClient("127.0.0.1", thread.port, "ana")
            try:
                session = client.session()
                handle = session.open(pad.doc)
                session.insert(handle.doc, handle.length(), " the restart")
            finally:
                client.close()
            replication = ReplicationClient("127.0.0.1", thread.port,
                                            follower)
            while follower.applied_lsn < collab.db.wal.durable_lsn:
                replication.step()
            tables_equal(collab.db, follower.db)
        assert logged_lsns(mirror) == logged_lsns(path)
        follower.close()
