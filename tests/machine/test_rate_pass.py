"""One rate pass per change keeps the event order of a batched pass.

A placement, completion or freeze/unfreeze runs as sync + (admit) +
``Node.apply_rates`` with no rate batch: ``apply_rates`` reschedules
each busy executor once, in CPU-index order, which is the order a
batch flush would reschedule them in.  These tests drive one scripted
sequence of node operations twice — every step inside
``node.rate_batch()`` and every step bare — and compare, after each
step, every executor's rates, every live completion timer's fire time
and sequence number, and the engine's sequence counter.
"""

from types import SimpleNamespace

from repro.machine.node import Node
from repro.machine.profile import WorkloadProfile
from repro.machine.topology import WYEAST_SPEC, MachineSpec
from repro.simx.engine import Engine
from repro.simx.rate import WorkItem

#: 2 sockets x 4 cores x 2 threads: cpus 0-7 are the first siblings of
#: cores 0-7 (cores 4-7 on socket 1), cpus 8-15 their HTT siblings.
SPEC16 = MachineSpec(
    name="two-socket-htt", sockets=2, cores_per_socket=4,
    threads_per_core=2, base_hz=WYEAST_SPEC.base_hz,
    memory_bytes=WYEAST_SPEC.memory_bytes,
    cache_levels=WYEAST_SPEC.cache_levels,
)

RANK = WorkloadProfile(name="rank", htt_yield=1.2,
                       working_set_bytes=2 << 20, base_miss_rate=0.02)
FFT = WorkloadProfile(name="fft", htt_yield=1.05,
                      working_set_bytes=16 << 20, base_miss_rate=0.3)


def _place(node, cpu_index, demand, profile):
    item = WorkItem(node.engine, demand,
                    meta=SimpleNamespace(profile=profile))
    node.sync()
    node.cpu(cpu_index).add_segment(item)
    node.apply_rates()
    return item


def _script():
    """(label, operation) pairs; an operation takes the node."""
    steps = []
    # Four ranks, placed the way one node of an rpn=4 job places them:
    # each on an idle physical core, in CPU index order.
    for i, demand in enumerate((4.0e6, 5.5e6, 7.0e6, 9.0e6)):
        steps.append((f"place rank{i}",
                      lambda n, i=i, d=demand: _place(n, i, d, RANK)))
    # A fifth segment on a second-socket core, then an HTT-sibling case:
    # cpu 8 shares core 0 with rank 0, so both see the combined mix.
    steps.append(("place socket1", lambda n: _place(n, 4, 3.0e6, FFT)))
    steps.append(("place sibling", lambda n: _place(n, 8, 2.5e6, FFT)))
    steps.append(("stack on cpu1", lambda n: _place(n, 1, 1.0e6, RANK)))
    steps.append(("advance", lambda n: n.engine.run(until_ns=400_000)))
    steps.append(("recompute", lambda n: n.recompute()))
    steps.append(("freeze", lambda n: n.freeze()))
    steps.append(("advance frozen", lambda n: n.engine.run(until_ns=900_000)))
    steps.append(("unfreeze", lambda n: n.unfreeze()))
    # Let the segments complete one instant at a time, recomputing after
    # each the way the scheduler's +0 follow-up does.
    for k in range(8):
        steps.append((f"complete {k}", _run_to_next_completion))
        steps.append((f"recompute {k}", lambda n: n.recompute()))
    return steps


def _run_to_next_completion(node):
    live = [cpu.executor._timer for cpu in node.cpus]
    due = [t[0] for t in live if t is not None and not t[5]]
    if due:
        node.engine.run(until_ns=min(due))


def _observe(node):
    timers = []
    for cpu in node.cpus:
        timer = cpu.executor._timer
        live = timer is not None and not timer[5]
        timers.append((timer[0], timer[1]) if live else None)
    return {
        "rates": [list(cpu.executor._rate) for cpu in node.cpus],
        "timers": timers,
        "seq": node.engine._seq,
        "now": node.engine.now,
        "busy": [cpu.index for cpu in node._busy],
    }


def _run(batched):
    node = Node(Engine(), SPEC16)
    out = []
    for label, op in _script():
        if batched:
            with node.rate_batch():
                op(node)
        else:
            op(node)
        out.append((label, _observe(node)))
    return out


def test_bare_pass_matches_batched_pass_step_by_step():
    batched = _run(batched=True)
    bare = _run(batched=False)
    assert [label for label, _ in bare] == [label for label, _ in batched]
    for (label, got), (_, want) in zip(bare, batched):
        assert got == want, label


def test_script_reaches_the_cases_it_names():
    """Guard the script itself: it must stack, share a core, span both
    sockets, freeze to zero rates and complete segments."""
    seen = dict(_run(batched=False))
    placed = seen["stack on cpu1"]
    assert placed["busy"] == [0, 1, 2, 3, 4, 8]
    assert len(placed["rates"][1]) == 2
    # HTT coupling: rank 0 runs slower once its sibling is busy.
    assert seen["place sibling"]["rates"][0][0] < \
        seen["place socket1"]["rates"][0][0]
    frozen = seen["freeze"]
    assert all(r == 0.0 for rates in frozen["rates"] for r in rates)
    assert frozen["timers"] == [None] * 16
    assert seen["complete 0"]["busy"] != placed["busy"]
    assert seen["recompute 7"]["busy"] == []
