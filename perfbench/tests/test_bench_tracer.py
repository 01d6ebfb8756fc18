import itertools

import pytest

import forestdom
from forestdom import cli, construct, degseq, formulas, oracle
from forestdom.forest import Forest
from tracer import Tracer, layer_stats, self_times
from workloads import run_cli


def test_self_times_on_nested_call_tree():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_layer_stats_from_synthetic_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    swap = tracer.name_id("oracle.swap_search_gamma")
    dom = tracer.name_id("forest.domination_number")
    build = tracer.name_id("forest.Forest")
    s = tracer.open(swap)          # t=0
    f = tracer.open(build)         # t=1
    tracer.close(f, (5, 0))        # t=2
    d = tracer.open(dom)           # t=3
    tracer.close(d, (5, 0))        # t=4
    tracer.close(s)                # t=5
    d = tracer.open(dom)           # t=6, outside swap search
    tracer.close(d, (7, 0))        # t=7
    stats = layer_stats(tracer, 0, len(tracer))
    assert stats["oracle.swap_search_gamma.calls"] == 1
    assert stats["oracle.swap_search_gamma.self_s"] == 3.0
    assert stats["forest.domination_number.calls"] == 2
    assert stats["forest.domination_number.self_s"] == 2.0
    assert stats["forest.domination_number.vertices"] == 12
    assert stats["forest.Forest.vertices"] == 5
    assert stats["oracle.swap_search_gamma.dp_calls"] == 1
    assert stats["oracle.empirical_extremes.iso_per_labeled"] == 0.0


def test_tracer_rebinds_every_importing_module_and_restores():
    original = degseq.validate
    importers = [degseq, formulas, construct, oracle, cli, forestdom]
    assert all(mod.validate is original for mod in importers)
    init, parse = Forest.__init__, degseq.DegreeSequence.__dict__["parse"]
    with Tracer():
        wrapped = degseq.validate
        assert wrapped is not original
        assert all(mod.validate is wrapped for mod in importers)
        assert Forest.__init__ is not init
        assert degseq.DegreeSequence.parse("2,1,1").degrees == (2, 1, 1)
    assert all(mod.validate is original for mod in importers)
    assert Forest.__init__ is init
    assert degseq.DegreeSequence.__dict__["parse"] is parse


def test_tracer_records_nested_spans_only_while_active():
    tracer = Tracer()
    with tracer:
        run_cli(["eval", "2,1,1", "--json"])
        assert len(tracer) == 0
        tracer.active = True
        rc, _ = run_cli(["eval", "2,1,1", "--json"])
        forests = list(oracle.enumerate_realizations((2, 2, 1, 1), iso_dedup=True))
        tracer.active = False
    assert rc == 0 and len(forests) == 1
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "cli.main"
    validate = names.index("degseq.validate")
    assert tracer.parent[validate] != -1
    stats = layer_stats(tracer, 0, len(tracer))
    assert stats["cli.main.calls"] == 1
    assert stats["oracle.enumerate_realizations.calls"] == 1
    assert stats["oracle.enumerate_realizations.yields"] == 1
    # the generator ran inside its span: the Forest it built is a child
    enum = names.index("oracle.enumerate_realizations")
    assert any(tracer.parent[i] == enum for i, n in enumerate(names) if n == "forest.Forest")


def test_tracer_restores_bindings_when_the_block_raises():
    original = oracle.enumerate_realizations
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError
    assert oracle.enumerate_realizations is original
    assert forestdom.enumerate_realizations is original
