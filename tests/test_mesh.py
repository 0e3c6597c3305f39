import hashlib

import numpy as np
import pytest

from p2amg.errors import InvalidParameter
from p2amg.mesh import (
    TET_EDGES,
    generate_channel_mesh,
    generate_unit_cube_mesh,
    tag_boundary,
    tet_volumes,
)

from conftest import nowhere, z_faces


def enumerate_edges(tets):
    """Brute-force unique-edge oracle, independent of the generator."""
    edges = set()
    for tet in tets:
        for a, b in TET_EDGES:
            edges.add(tuple(sorted((tet[a], tet[b]))))
    return edges


def enumerate_faces(tets):
    faces = {}
    for tet in tets:
        for tri in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            key = tuple(sorted(tet[list(tri)]))
            faces[key] = faces.get(key, 0) + 1
    return faces


def test_unit_cube_n1_counts():
    mesh = generate_unit_cube_mesh(1)
    assert mesh.n_vertices == 8
    assert mesh.n_tets == 6
    # 12 cube edges + 6 face diagonals + 1 body diagonal
    oracle = enumerate_edges(mesh.tets)
    assert len(oracle) == 19
    assert mesh.n_edges == 19
    assert set(map(tuple, mesh.edges)) == oracle


@pytest.mark.parametrize("n", [2, 3])
def test_unit_cube_counts_formula(n):
    mesh = generate_unit_cube_mesh(n)
    assert mesh.n_vertices == (n + 1) ** 3
    assert mesh.n_tets == 6 * n**3
    assert mesh.n_edges == len(enumerate_edges(mesh.tets))


def test_invalid_subdivisions():
    with pytest.raises(InvalidParameter):
        generate_unit_cube_mesh(0)
    with pytest.raises(InvalidParameter):
        generate_unit_cube_mesh(-3)
    with pytest.raises(InvalidParameter):
        generate_unit_cube_mesh(2.5)


def test_channel_unit_cell():
    mesh = generate_channel_mesh(1, 1, 1, 10.0, 2.0, 2.0)
    assert mesh.n_vertices == 8
    assert mesh.n_tets == 6
    assert np.allclose(mesh.vertices.min(axis=0), [0, 0, 0])
    assert np.allclose(mesh.vertices.max(axis=0), [10, 2, 2])


def test_channel_refined():
    mesh = generate_channel_mesh(2, 1, 1, 10.0, 2.0, 2.0)
    # oracle enumeration of the scaled Kuhn split
    assert mesh.n_vertices == 3 * 2 * 2
    assert mesh.n_tets == 12
    assert mesh.n_edges == len(enumerate_edges(mesh.tets))


def test_channel_invalid():
    with pytest.raises(InvalidParameter):
        generate_channel_mesh(0, 1, 1, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        generate_channel_mesh(1, 1, 1, -1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "mesh,volume",
    [
        (generate_unit_cube_mesh(2), 1.0),
        (generate_channel_mesh(2, 1, 1, 10.0, 2.0, 2.0), 40.0),
    ],
)
def test_volumes(mesh, volume):
    vols = tet_volumes(mesh)
    assert vols.min() > 0.0
    assert abs(vols.sum() - volume) <= 1e-12 * volume


def test_face_consistency():
    mesh = generate_unit_cube_mesh(2)
    counts = enumerate_faces(mesh.tets)
    assert set(counts.values()) <= {1, 2}
    boundary = {key for key, c in counts.items() if c == 1}
    assert boundary == set(map(tuple, np.sort(mesh.boundary_faces, axis=1)))


def test_regeneration_bit_identical():
    m1 = generate_unit_cube_mesh(3)
    m2 = generate_unit_cube_mesh(3)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.tets, m2.tets)
    assert np.array_equal(m1.edges, m2.edges)
    assert np.array_equal(m1.tet_edges, m2.tet_edges)


#: SHA-256 of the little-endian int64 bytes of each connectivity array;
#: the numbering is part of the output (dof order, hierarchies, histories)
MESH_DIGESTS = {
    "cube-3": {
        "tets": "30e28f2d38a1bc6ec52387b15092e2f99ac64903aa599b0faea5847d17b6c3f9",
        "edges": "ce79cc75cecb510c0b304974dd52c9a604a2b6ea6e7325473da6897af5c3805b",
        "tet_edges": "7716f36608c1f4de9cbdf71a8198d1f1ced24bbae57694bbf24d3819300af1d6",
        "boundary_faces": "180cbf41023b67f3ea29be38e67fd14ca2089f2eb6cb6d77ffd9b77785b73b2e",
    },
    "channel-4x2x2": {
        "tets": "e5cfef13b0fa627745b79a146d86a07c52d864464df85d7330b283c17d48b6fe",
        "edges": "ef66b0555ab4c5797a2d7820d5bd14deb5e1527582c22a91d650f4da295c1acd",
        "tet_edges": "9e827148d1fb83eb2dc632e17881cc346854923f181c06cf1a63cb74731af3eb",
        "boundary_faces": "bc235ef84a2aa02461a2a795674828c2fc551d691beeeaacfc683c7b5bad4c2b",
    },
}


@pytest.mark.parametrize("name", sorted(MESH_DIGESTS))
def test_mesh_numbering_is_pinned(name):
    mesh = (
        generate_unit_cube_mesh(3)
        if name == "cube-3"
        else generate_channel_mesh(4, 2, 2, 2.0, 1.0, 1.0)
    )
    digests = {
        key: hashlib.sha256(getattr(mesh, key).astype("<i8").tobytes()).hexdigest()
        for key in MESH_DIGESTS[name]
    }
    assert digests == MESH_DIGESTS[name]


def test_tag_cube1_all_corners_dirichlet(cube1):
    # every corner lies on z=0 or z=1
    assert cube1.dirichlet_vertices.sum() == 8


def test_tag_cube2_counts(cube2):
    # two 3x3 vertex grids; the centre vertex is on no boundary face
    assert cube2.dirichlet_vertices.sum() == 18
    assert np.setdiff1d(np.arange(cube2.n_vertices), cube2.boundary_faces).tolist() == [13]


def test_tag_edges_follow_faces(cube2):
    # a Dirichlet edge must have both endpoints inside one Dirichlet face,
    # a boundary face whose three vertices all satisfy the predicate
    on = z_faces(cube2.vertices)
    dir_faces = [set(f) for f in cube2.boundary_faces if on[f].all()]
    for e, marked in enumerate(cube2.dirichlet_edges):
        a, b = cube2.edges[e]
        covered = any({a, b} <= f for f in dir_faces)
        assert marked == covered


def test_tag_always_false_predicate():
    mesh = tag_boundary(generate_unit_cube_mesh(2), nowhere)
    assert not mesh.dirichlet_vertices.any()
    assert not mesh.dirichlet_edges.any()


def test_tag_calls_predicate_once_on_all_vertices():
    mesh = generate_unit_cube_mesh(2)
    calls = []

    def predicate(v):
        calls.append(v)
        return z_faces(v)

    tag_boundary(mesh, predicate)
    assert len(calls) == 1 and calls[0] is mesh.vertices


@pytest.mark.parametrize(
    "predicate",
    [lambda v: True, lambda v: z_faces(v)[:-1], lambda v: z_faces(v)[:, None]],
    ids=["scalar", "short", "column"],
)
def test_tag_rejects_predicate_of_wrong_shape(predicate):
    with pytest.raises(InvalidParameter):
        tag_boundary(generate_unit_cube_mesh(2), predicate)


def test_mesh_arrays_read_only(cube2):
    with pytest.raises(ValueError):
        cube2.vertices[0, 0] = 3.0
