"""The library's value types are frozen dataclasses whose fields are their
inputs; what they derive lives in cached properties, so a copy made by
`dataclasses.replace` derives it afresh."""

import dataclasses

from tricm import cmcheck, complexes, graphs, homology, ideals
from tricm.cmcheck import CM
from tricm.complexes import SimplicialComplex, from_faces, link
from tricm.graphs import Graph
from tricm.homology import QQ


def test_dataclasses_are_frozen_with_input_fields_only():
    loose = []
    for module in (graphs, complexes, homology, cmcheck, ideals):
        for cls in vars(module).values():
            if not (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
            ):
                continue
            private = [f.name for f in dataclasses.fields(cls) if f.name.startswith("_")]
            if not cls.__dataclass_params__.frozen or private:
                loose.append(cls.__name__)
    assert loose == []


def test_replaced_graph_derives_afresh():
    g = Graph(3, ((0, 1), (1, 2)))
    assert g.neighbor_masks == (2, 5, 2)
    assert graphs.independence_profile(g) == ((1, 3, 1), frozenset({1, 2}))
    replaced, fresh = dataclasses.replace(g, edges=()), Graph(3, ())
    assert replaced == fresh
    assert replaced.neighbor_masks == fresh.neighbor_masks == (0, 0, 0)
    profile = ((1, 3, 3, 1), frozenset({3}))
    assert graphs.independence_profile(replaced) == graphs.independence_profile(fresh) == profile
    # Ind of the edgeless graph is a simplex, so CM
    verdicts = cmcheck.classify_graph(replaced, [QQ])
    assert verdicts == cmcheck.classify_graph(fresh, [QQ])
    assert [(v.status, v.method) for v in verdicts] == [(CM, "reisner-full")]


def test_replaced_complex_derives_afresh():
    c = from_faces(2, [(), (0,), (1,), (0, 1)])
    assert c.has_face((1,)) and link(c, (0,)).faces_by_dim == (((1,),),)
    replaced = dataclasses.replace(c, faces_by_dim=(((0,),),))
    fresh = SimplicialComplex(2, (((0,),),))
    assert replaced == fresh
    assert not replaced.has_face((1,)) and not fresh.has_face((1,))
    assert not replaced.has_face((0, 1)) and not fresh.has_face((0, 1))
    assert link(replaced, (0,)) == link(fresh, (0,)) == SimplicialComplex(2, ())
