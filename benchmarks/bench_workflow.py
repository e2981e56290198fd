"""D2 — Business process definition and flow (§3, bullet 2).

Define and run a dynamic workflow within a document: task creation
throughput, the end-to-end latency of one complete
translate-route-verify flow, and the cost of runtime re-routing —
the operations the demo performs live.
"""

from __future__ import annotations

from repro.collab import CollaborationServer
from repro.process import TaskList, WorkflowManager


def _setup():
    server = CollaborationServer()
    server.register_user("ana")
    server.register_user("ben")
    server.register_user("cleo", roles=("translators",))
    session = server.connect("ana")
    handle = session.create_document("contract", text="clause " * 50)
    workflow = WorkflowManager(server.db, server.principals)
    return server, handle, workflow


def test_define_process_with_tasks(benchmark):
    """Defining a 5-task chain bound to document ranges."""
    server, handle, workflow = _setup()
    counter = {"n": 0}

    def define():
        counter["n"] += 1
        process = workflow.define_process(
            handle.doc, f"proc-{counter['n']}", "ana")
        previous = None
        for i in range(5):
            depends = [previous] if previous else []
            previous = workflow.add_task(
                process, f"task-{i}", "ben", "ana",
                depends_on=depends,
                start_char=handle.char_oid_at(i * 10),
                end_char=handle.char_oid_at(i * 10 + 5),
            )
        return process

    benchmark.group = "D2 workflow"
    benchmark(define)


def test_complete_flow_end_to_end(benchmark):
    """One full translate -> verify flow including dynamic routing."""
    server, handle, workflow = _setup()
    counter = {"n": 0}

    def flow():
        counter["n"] += 1
        process = workflow.define_process(
            handle.doc, f"flow-{counter['n']}", "ana")
        translate = workflow.add_task(
            process, "translate", "translators", "ana")
        verify = workflow.add_task(
            process, "verify", "ben", "ana", depends_on=[translate])
        workflow.start_process(process, "ana")
        workflow.start_task(translate, "cleo")
        workflow.complete_task(translate, "cleo")
        workflow.route_task(verify, "cleo", "ana")   # runtime re-route
        workflow.complete_task(verify, "cleo")
        return workflow.process_status(process)

    benchmark.group = "D2 workflow"
    status = benchmark(flow)
    assert status["state"] == "completed"


def test_task_state_transition(benchmark):
    """The unit cost of one task completion (a metadata transaction)."""
    server, handle, workflow = _setup()
    process = workflow.define_process(handle.doc, "big", "ana")
    tasks = [workflow.add_task(process, f"t{i}", "ben", "ana")
             for i in range(3000)]
    workflow.start_process(process, "ana")
    iterator = iter(tasks)

    def complete_one():
        workflow.complete_task(next(iterator), "ben")

    benchmark.group = "D2 workflow"
    benchmark.pedantic(complete_one, rounds=200, iterations=1)


def test_task_inbox_query(benchmark):
    """Resolving a user's task list across roles (the demo's inbox)."""
    server, handle, workflow = _setup()
    task_list = TaskList(workflow)
    process = workflow.define_process(handle.doc, "p", "ana")
    for i in range(100):
        assignee = "translators" if i % 2 else "cleo"
        workflow.add_task(process, f"t{i}", assignee, "ana")
    workflow.start_process(process, "ana")

    def inbox():
        return task_list.tasks_for("cleo")

    benchmark.group = "D2 workflow"
    tasks = benchmark(inbox)
    assert len(tasks) == 100  # direct + via role


def test_runtime_routing(benchmark):
    """Re-assigning a live task (routed dynamically, §3)."""
    server, handle, workflow = _setup()
    process = workflow.define_process(handle.doc, "p", "ana")
    task = workflow.add_task(process, "t", "ben", "ana")
    workflow.start_process(process, "ana")
    targets = ["cleo", "ben"]
    state = {"i": 0}

    def route():
        workflow.route_task(task, targets[state["i"] % 2], "ana")
        state["i"] += 1

    benchmark.group = "D2 workflow"
    benchmark.pedantic(route, rounds=100, iterations=1)
