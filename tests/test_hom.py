import random
import time

import pytest

from treehom import (
    HomError,
    RankedAlphabet,
    Tree,
    TreeHomomorphism,
    check_tetris_free,
    enumerate_trees,
    parse_term,
    preorder,
    tree_key,
)
import treehom.hom as hom
from treehom.cli import load_hom
from treehom.hom import images_clash
from oracles import (
    naive_preimage,
    naive_tetris_free,
    random_branching_hom,
    random_hom,
    root_blind_images_clash,
)

SIGMA = RankedAlphabet([("a", 0), ("g", 1), ("f", 1)])
DELTA = RankedAlphabet([("a", 0), ("g", 1), ("k", 2)])


def make_hom(images):
    parsed = {
        name: parse_term(text, DELTA, ext={"x1", "x2"})
        for name, text in images.items()
    }
    return TreeHomomorphism(SIGMA, DELTA, parsed)


@pytest.fixture(scope="module")
def dup():
    return make_hom({"a": "a", "g": "g(x1)", "f": "k(x1,g(x1))"})


def test_validation_requires_every_symbol():
    with pytest.raises(HomError):
        make_hom({"a": "a", "g": "g(x1)"})


def test_validation_rejects_erasing():
    # An image that is a bare variable erases its symbol.
    with pytest.raises(HomError):
        make_hom({"a": "a", "g": "x1", "f": "g(x1)"})


def test_validation_rejects_deleting():
    two = RankedAlphabet([("a", 0), ("f", 2)])
    images = {
        "a": parse_term("a", DELTA),
        "f": parse_term("g(x1)", DELTA, ext={"x1"}),
    }
    with pytest.raises(HomError):
        TreeHomomorphism(two, DELTA, images)


def test_validation_rejects_stray_variable():
    with pytest.raises(HomError):
        make_hom({"a": "a", "g": "k(x1,x2)", "f": "g(x1)"})


def test_validation_rejects_unknown_target_symbol():
    images = {
        "a": parse_term("a", DELTA),
        "g": parse_term("g(x1)", DELTA, ext={"x1"}),
        "f": parse_term("f(x1)", SIGMA, ext={"x1"}),
    }
    with pytest.raises(HomError):
        TreeHomomorphism(SIGMA, DELTA, images)


def test_apply(dup):
    s = parse_term("f(g(g(a)))", SIGMA)
    assert dup.apply(s).text == "k(g(g(a)),g(g(g(a))))"
    assert dup.apply(parse_term("a", SIGMA)).text == "a"


def test_apply_repeated_variable():
    h = make_hom({"a": "a", "g": "k(x1,x1)", "f": "g(x1)"})
    s = parse_term("g(f(a))", SIGMA)
    assert h.apply(s).text == "k(g(a),g(a))"


def test_preimage_golden(dup):
    t = parse_term("k(g(a),g(g(a)))", DELTA)
    pre = dup.preimage(t)
    assert [s.text for s in pre] == ["f(g(a))"]
    empty = dup.preimage(parse_term("k(a,a)", DELTA))
    assert empty == ()


def test_preimage_matches_brute_force(dup):
    # Nondeleting and nonerasing means |s| <= |h(s)|, so searching source
    # trees whose size is bounded by the image size is exhaustive.
    pool = [s for s in enumerate_trees(SIGMA, 5) if s.size <= 6]
    for t in enumerate_trees(DELTA, 3):
        expected = sorted(
            (s for s in pool if dup.apply(s) == t and s.size <= t.size),
            key=tree_key,
        )
        assert list(dup.preimage(t)) == expected


def test_preimage_random_homs_match_brute_force():
    rng = random.Random(7)
    for _ in range(8):
        h = random_hom(rng)
        pool = enumerate_trees(h.source, 3)
        for t in enumerate_trees(h.target, 2):
            expected = sorted(naive_preimage(h, t, 3, pool), key=tree_key)
            got = [s for s in h.preimage(t) if s.height <= 3]
            assert got == expected


def test_preimage_with_shared_image():
    h2 = TreeHomomorphism(
        RankedAlphabet([("a", 0), ("b", 0), ("g", 1)]),
        RankedAlphabet([("c", 0), ("k", 2)]),
        {
            "a": parse_term("c", None),
            "b": parse_term("k(c,c)", None),
            "g": parse_term("k(x1,c)", None, ext={"x1"}),
        },
    )
    t = parse_term("k(c,c)", h2.target)
    assert [s.text for s in h2.preimage(t)] == ["b", "g(a)"]


def test_tetris_free_accepts_duplicator(dup):
    verdict = check_tetris_free(dup, 4)
    assert verdict.is_ok
    assert verdict.bound == 4


def test_tetris_free_rejects_shape_mismatch():
    h2 = TreeHomomorphism(
        RankedAlphabet([("a", 0), ("b", 0), ("g", 1)]),
        RankedAlphabet([("c", 0), ("k", 2)]),
        {
            "a": parse_term("c", None),
            "b": parse_term("k(c,c)", None),
            "g": parse_term("k(x1,c)", None, ext={"x1"}),
        },
    )
    verdict = check_tetris_free(h2, 4)
    assert not verdict.is_ok
    s1, s2 = verdict.witness
    assert {s1.text, s2.text} == {"b", "g(a)"}


def test_tetris_free_allows_symbol_level_collisions():
    # Collapsing two constants onto the same image is fine: the non-injective
    # behaviour stays at the symbol level.
    sigma = RankedAlphabet([("a", 0), ("b", 0), ("g", 1)])
    h = TreeHomomorphism(
        sigma,
        RankedAlphabet([("c", 0), ("k", 2)]),
        {
            "a": parse_term("c", None),
            "b": parse_term("c", None),
            "g": parse_term("k(x1,x1)", None, ext={"x1"}),
        },
    )
    assert check_tetris_free(h, 4).is_ok


def test_tetris_free_rejects_label_mismatch():
    # g(a) and f(b) share positions and the image k(c,c), yet the root
    # symbols have different images.
    sigma = RankedAlphabet([("a", 0), ("b", 0), ("g", 1), ("f", 1)])
    h = TreeHomomorphism(
        sigma,
        RankedAlphabet([("c", 0), ("k", 2)]),
        {
            "a": parse_term("c", None),
            "b": parse_term("c", None),
            "g": parse_term("k(x1,c)", None, ext={"x1"}),
            "f": parse_term("k(c,x1)", None, ext={"x1"}),
        },
    )
    verdict = check_tetris_free(h, 3)
    assert not verdict.is_ok
    s1, s2 = verdict.witness
    assert h.apply(s1) == h.apply(s2)
    assert {s1.label, s2.label} == {"g", "f"}


def test_tetris_free_rejects_a_negative_bound(dup):
    # One hom proved by clashing images, one that needs the walk.
    overlap = TreeHomomorphism(
        RankedAlphabet([("a", 0), ("g", 1), ("f", 1)]),
        RankedAlphabet([("c", 0), ("k", 2)]),
        {
            "a": parse_term("c", None),
            "g": parse_term("k(x1,c)", None, ext={"x1"}),
            "f": parse_term("k(c,x1)", None, ext={"x1"}),
        },
    )
    assert images_clash(dup) and not images_clash(overlap)
    for h in (dup, overlap):
        with pytest.raises(HomError, match="height bound must be nonnegative"):
            check_tetris_free(h, -1)


def test_identity_is_tetris_free():
    ident = TreeHomomorphism(SIGMA, SIGMA, {
        "a": parse_term("a", SIGMA),
        "g": parse_term("g(x1)", SIGMA, ext={"x1"}),
        "f": parse_term("f(x1)", SIGMA, ext={"x1"}),
    })
    assert check_tetris_free(ident, 4).is_ok


def test_image_of(dup):
    assert dup.image_of("f").text == "k(x1,g(x1))"
    with pytest.raises(HomError):
        dup.image_of("z")


def verdict_key(v):
    witness = None if v.witness is None else tuple(s.text for s in v.witness)
    return (v.status, v.bound, witness, v.detail)


def test_tetris_free_matches_naive_on_branching_homs():
    # Some homs clash only by the root rule: a variable facing a node whose
    # (label, arity) is no image's root.
    # Both kinds of violation occur: position sets that differ, and equal
    # position sets with a symbol image that differs.
    rng = random.Random(2309)
    paths = set()
    details = set()
    for _ in range(200):
        h = random_branching_hom(rng)
        clash = images_clash(h)
        for bound in range(4):
            expected = naive_tetris_free(h, bound)
            assert verdict_key(check_tetris_free(h, bound)) == verdict_key(expected)
            assert expected.is_ok or not clash
            if not expected.is_ok:
                details.add(expected.detail.split(" differ")[0])
        paths.add("root rule" if clash and not root_blind_images_clash(h) else clash)
    assert paths == {True, False, "root rule"}
    assert details == {"position sets", "symbol images"}


def test_tetris_free_builds_no_labels_for_one_member_groups(monkeypatch):
    # d -> m(x1,x1) and e -> m(x1,g(x1)) overlap only through a repeated
    # variable, so the images do not clash and the check walks; yet h is
    # injective, so every image group has one member and no tree's symbol
    # images are listed.  The tetris hom's groups of two are listed.
    walked = []
    monkeypatch.setattr(hom, "preorder", lambda t: walked.append(t) or preorder(t))
    source = RankedAlphabet([("a", 0), ("g", 1), ("d", 1), ("e", 1)])
    target = RankedAlphabet([("a", 0), ("g", 1), ("m", 2)])
    h = TreeHomomorphism(source, target, {
        name: parse_term(text, target, ext={"x1"})
        for name, text in {"a": "a", "g": "g(x1)", "d": "m(x1,x1)", "e": "m(x1,g(x1))"}.items()
    })
    assert not images_clash(h)
    verdict = check_tetris_free(h, 4)
    assert verdict.is_ok and not walked
    assert verdict_key(verdict) == verdict_key(naive_tetris_free(h, 4))
    tetris = make_hom({"a": "a", "g": "g(x1)", "f": "g(g(x1))"})
    assert not check_tetris_free(tetris, 2).is_ok and walked


BRANCHING = RankedAlphabet([("a", 0), ("b", 0), ("f", 1), ("g", 1), ("m", 2)])
BRANCHING_SHAPES = {
    # duplicating, injective: distinct image roots
    "dup": ({"a": "a", "b": "b", "f": "f(x1)", "g": "k(x1,x1)", "m": "m(x1,x2)"},
            [("a", 0), ("b", 0), ("f", 1), ("g", 1), ("k", 2), ("m", 2)]),
    # h(a) = h(b): tetris-free, the collision stays at the symbol level
    "merge": ({"a": "c", "b": "c", "f": "f(x1)", "g": "g(x1)", "m": "m(x2,x1)"},
              [("c", 0), ("f", 1), ("g", 1), ("m", 2)]),
    # h(f(a)) = h(g(g(a))): not tetris-free
    "tetris": ({"a": "a", "b": "b", "f": "g(g(x1))", "g": "g(x1)", "m": "m(x1,x2)"},
               [("a", 0), ("b", 0), ("g", 1), ("m", 2)]),
}


@pytest.mark.parametrize("kind", sorted(BRANCHING_SHAPES))
def test_tetris_free_cost_does_not_follow_the_bound(kind, memory_cap):
    # BRANCHING has about 2.8e33 trees of height <= 6; the verdict must come
    # from the symbol images and the first colliding group.
    images, target = BRANCHING_SHAPES[kind]
    h = TreeHomomorphism(BRANCHING, RankedAlphabet(target), {
        name: parse_term(text, None, ext={"x1", "x2"}) for name, text in images.items()
    })
    start = time.perf_counter()
    with memory_cap():
        verdict = check_tetris_free(h, 6)
    assert time.perf_counter() - start < 1.0
    if kind == "tetris":
        assert verdict_key(verdict) == (
            "witness", 6, ("f(a)", "g(g(a))"),
            "position sets differ for preimages of g(g(a))")
    else:
        assert verdict_key(verdict) == ("ok", 6, None, "")


def test_apply_and_preimage_of_tall_trees(data_dir):
    h = load_hom(data_dir / "duplicating_hom.hom")  # g -> g(x1), f -> k(x1,g(x1))
    s = Tree("a")
    for _ in range(100_000):
        s = Tree("g", (s,))
    s = Tree("f", (Tree("f", (s,)),))
    image = h.apply(s)
    assert (image.height, image.size) == (100_004, 4 * 100_001 + 6)
    assert image.label == "k" and image.children[1] == Tree("g", (image.children[0],))
    assert h.preimage(image) == (s,)


def test_apply_reports_the_first_unknown_symbol_in_preorder(dup):
    with pytest.raises(HomError, match="unknown source symbol y"):
        dup.apply(Tree("g", (Tree("f", (Tree("y"),)),)))
    with pytest.raises(HomError, match="unknown source symbol z"):
        dup.apply(Tree("z", (Tree("y"),)))
