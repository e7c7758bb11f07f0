"""The value classes: field equality, hashing, immutability, pickling, and
sequence arguments stored as tuples."""

import pickle

import pytest

from sigperm.core import Pattern, SignedPermutation, find_occurrence_positions, parse
from sigperm.gentree import PermTreeNode, TreeLabel, level_counts
from sigperm.oracle import avoider_counts

# (class, constructor keyword arguments): the fields as tuples
FROZEN = [
    (Pattern, {"values": (2, 1, 4, 3)}),
    (SignedPermutation, {"neg_images": (-3, 4, 2, 1)}),
]
IDS = [cls.__name__ for cls, _ in FROZEN]


@pytest.mark.parametrize("cls, fields", FROZEN, ids=IDS)
class TestFrozenContract:
    def test_equal_fields_equal_objects(self, cls, fields):
        a, b = cls(**fields), cls(*fields.values())
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert not a != b

    def test_list_arguments_stored_as_tuples(self, cls, fields):
        x = cls(**{name: list(value) for name, value in fields.items()})
        assert x == cls(**fields) and hash(x) == hash(cls(**fields))
        assert all(type(getattr(x, name)) is tuple for name in fields)

    def test_not_equal_to_its_fields(self, cls, fields):
        x = cls(**fields)
        assert x != tuple(fields.values())
        if len(fields) == 1:
            assert x != next(iter(fields.values()))

    def test_assignment_and_deletion_refused(self, cls, fields):
        x = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = 1
        assert x == cls(**fields)

    def test_pickle_round_trip(self, cls, fields):
        x = cls(**fields)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and type(y) is cls

    def test_repr_is_a_constructor_call(self, cls, fields):
        x = cls(**fields)
        assert repr(x).startswith(f"{cls.__name__}(")
        assert eval(repr(x), {cls.__name__: cls}) == x


def test_signed_permutation_keeps_its_size():
    w = SignedPermutation([-3, 4, 2, 1])
    assert w.n == 4
    assert pickle.loads(pickle.dumps(w)).n == 4
    with pytest.raises(AttributeError):
        w.n = 5


def test_validation_unchanged():
    with pytest.raises(ValueError, match=r"pattern length 0 outside 1\.\.9"):
        Pattern([])
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
        Pattern([1, 2, 2])
    with pytest.raises(ValueError, match="repeated absolute value 1"):
        SignedPermutation([1, -1])
    with pytest.raises(ValueError, match="out of range for size 2"):
        SignedPermutation([1, 3])
    # bool and float entries compare equal to ints but are not ints
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.2"):
        Pattern([True, 2])
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.2"):
        Pattern([2.0, 1.0])
    with pytest.raises(ValueError, match="entry True out of range for size 2"):
        SignedPermutation([True, -2])


class TestListArguments:
    """A list given for a sequence field behaves as the tuple would."""

    def test_equal_to_parsed(self):
        assert Pattern([2, 1, 4, 3]) == Pattern.parse("2143")
        assert SignedPermutation([1, 2]) == parse("[1,2]")

    def test_containment(self):
        assert find_occurrence_positions((1, 2, 3, 4, 5), Pattern([2, 1, 4, 3])) is None
        assert find_occurrence_positions((2, 1, 4, 3), Pattern([2, 1, 4, 3])) == [0, 1, 2, 3]

    def test_exhaustive_counts(self):
        assert avoider_counts(3, Pattern([2, 1, 4, 3])) == avoider_counts(
            3, Pattern.parse("2143")
        )

    def test_tree_route(self):
        assert level_counts(Pattern([2, 1, 4, 3]), 0, 3) == level_counts(
            Pattern.parse("2143"), 0, 3
        )


class TestPermTreeNode:
    def test_equal_by_fields(self):
        w = parse("[1]")
        label = TreeLabel(1, 2, 1)
        a = PermTreeNode(w, label, [PermTreeNode(parse("[1,2]"), label)])
        b = PermTreeNode(parse("[1]"), label, [PermTreeNode(parse("[1,2]"), label)])
        assert a == b
        assert a != PermTreeNode(w, label)
        assert a != (w, label, a.children)

    def test_children_can_be_appended(self):
        node = PermTreeNode(parse("[1]"), TreeLabel(1, 2, 1))
        other = PermTreeNode(parse("[1]"), TreeLabel(1, 2, 1))
        assert node.children == [] and node.children is not other.children
        node.children.append(other)
        assert node.children == [other] and other.children == []
        assert node != other

    def test_mutable_and_unhashable(self):
        node = PermTreeNode(parse("[1]"), TreeLabel(1, 2, 1))
        node.label = TreeLabel(1, 1, 1)
        assert node.label == TreeLabel(1, 1, 1)
        with pytest.raises(TypeError):
            hash(node)

    def test_pickle_round_trip(self):
        node = PermTreeNode(parse("[1]"), TreeLabel(1, 2, 1))
        node.children.append(PermTreeNode(parse("[1,2]"), TreeLabel(2, 3, 1)))
        assert pickle.loads(pickle.dumps(node)) == node
