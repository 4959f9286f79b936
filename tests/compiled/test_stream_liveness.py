"""A stream lives until its reader has run.

Every channel has exactly one reader, so ``run_kernels`` pops each input
stream as it hands it to the reader's kernel and keeps no table of what
has been read: by the time the sink kernel runs, every stream upstream of
the sink's own input has been freed by reference count (a window stream is
a view of its pixel stream, which therefore lives exactly until the conv
kernel has read the windows).
"""

import weakref

from repro.compiled import kernels
from repro.core import cifar10_design, random_weights
from repro.core.builder import build_network, seeded_batch
from repro.dataflow import stable_digest
from repro.dataflow.actors import ArraySource, ListSink


def test_streams_die_as_their_readers_run(monkeypatch):
    design = cifar10_design()
    weights = random_weights(design, 0)
    batch = seeded_batch(design, 0, 8)
    golden = build_network(design, weights, batch)
    golden.run(scheduler="event")

    produced = []  # (writer.port, weakref to the stream), in dispatch order
    at_sink = {}
    returned = []

    def watched(kernel):
        def wrapper(actor, ins):
            if type(actor) is ListSink:
                mine = {id(a) for a in ins.values()}
                at_sink.update(
                    (name, ref() is not None and id(ref()) not in mine)
                    for name, ref in produced
                )
            outs = kernel(actor, ins)
            if type(actor) is ArraySource:
                return outs  # its own array, the graph's for good
            produced.extend(
                (f"{actor.name}.{port}", weakref.ref(arr))
                for port, arr in outs.items()
            )
            return outs

        wrapper.__name__ = kernel.__name__
        return wrapper

    for actor_type, kernel in list(kernels.KERNELS.items()):
        monkeypatch.setitem(kernels.KERNELS, actor_type, watched(kernel))
    run_kernels = kernels.run_kernels
    monkeypatch.setattr(
        "repro.compiled.engine.run_kernels",
        lambda *args: returned.append(run_kernels(*args)),
    )

    built = build_network(design, weights, batch)
    assert built.run(scheduler="compiled").scheduler_stats["scheduler"] == "compiled"

    assert returned == [None]
    assert len(at_sink) == len(built.graph.channels) - 1  # all but dma_in's
    alive = [name for name, is_alive in at_sink.items() if is_alive]
    assert not alive, f"read, yet alive when the sink ran: {alive}"
    assert all(ref() is None for _, ref in produced)  # the sink's input too
    assert stable_digest(built.outputs()) == stable_digest(golden.outputs())
