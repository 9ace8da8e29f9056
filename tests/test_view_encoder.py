"""Property tests: ``serve.views.dumps_view`` writes ``json.dumps``'s bytes.

Every CLI ``--json`` view and every REST body goes through
``dumps_view``.  Its contract is ``json.dumps(payload, indent=1)``,
byte for byte, for every payload ``json.dumps`` accepts, and the same
exception for every payload it refuses.  ``json.dumps`` itself stays
the reference here, so an escape, number, key or indentation
difference fails, and so does an error the fast path raises
differently.
"""

from __future__ import annotations

import enum
import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import views
from repro.serve.views import dumps_view


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


class _Kind(str, enum.Enum):
    YES = "yes"
    BRACES = '{"a": [1]},\n'


def _reference(payload: object) -> str:
    return json.dumps(payload, indent=1)


def _outcome(encode, payload: object) -> tuple[str, str]:
    """``("ok", text)``, or the exception's type name and message."""
    try:
        return "ok", encode(payload)
    except Exception as exc:
        return type(exc).__name__, str(exc)


#: Characters a JSON string encoder must escape or spell out, and
#: text that looks like the encoder's own separators and brackets.
_SPECIALS = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", " ",
             "\ud800", "\udfff", "é", "\U0001f600", "{", "}", "[",
             "]", ",\n ", ": "]

texts = st.lists(st.one_of(st.characters(exclude_categories=()),
                           st.sampled_from(_SPECIALS)),
                 max_size=6).map("".join)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-7, 1e300, -1e300, math.nan,
                     math.inf, -math.inf]))
scalars = st.one_of(
    st.none(), st.booleans(), texts, floats,
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.sampled_from(list(_Level) + list(_Kind)))
#: Every key type json coerces: str, int, float, bool, None, enums.
keys = st.one_of(texts, texts, scalars)
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(keys, children, max_size=5)),
    max_leaves=40)


class TestSameBytes:
    @settings(max_examples=150, deadline=None)
    @given(payloads)
    def test_any_payload(self, payload):
        assert dumps_view(payload) == _reference(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.dictionaries(texts, scalars, max_size=5),
                    max_size=6))
    def test_lists_of_flat_dicts(self, payload):
        """The shape of a diff's flips and a listing's rows."""
        wrapped = {"cells": [{"flips": payload, "n": len(payload)}]}
        assert dumps_view(wrapped) == _reference(wrapped)

    @pytest.mark.parametrize("payload", [
        {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[]]],
        {"a": [{}, {"b": ()}]}, "text", 7, None, math.nan,
    ], ids=repr)
    def test_empty_containers_and_scalars(self, payload):
        assert dumps_view(payload) == _reference(payload)

    @pytest.mark.parametrize("payload", [
        {1: "int key", 2.5: "float", True: "bool", None: "none"},
        {"nested": {1: [1, 2], "b": {"c": 3}}},
        {_Level.HIGH: {"x": [1]}, _Kind.YES: [2]},
        [{math.nan: 1, -math.inf: [2]}],
    ], ids=repr)
    def test_non_str_keys_flat_and_nested(self, payload):
        assert dumps_view(payload) == _reference(payload)

    @pytest.mark.parametrize("depth", [views._DEPTHS - 2,
                                       views._DEPTHS - 1,
                                       views._DEPTHS, 3 * views._DEPTHS])
    def test_deeper_than_the_encoder_table(self, depth):
        payload: object = {"leaf": [1, "two", 3.0]}
        for level in range(depth):
            payload = ([payload, level] if level % 2
                       else {"k": payload, "n": level})
        assert dumps_view(payload) == _reference(payload)

    def test_container_subclasses(self):
        """The C encoder sizes a dict by its storage, json's Python
        encoder by ``len()``: a subclass must not reach the C call."""
        class Mapping(dict):
            pass

        class Hollow(dict):
            def __len__(self):
                return 0

        class Phantom(dict):
            def __len__(self):
                return 1

        class Items(list):
            def __iter__(self):
                return reversed(list(super().__iter__()))

        payload = {"m": Mapping(a=1), "i": Items([1, 2, 3]),
                   "h": Hollow(a=1), "p": Phantom(),
                   "deep": [Items([{"x": Items([4, 5])}])]}
        for value in (payload, Items([1, 2]), Hollow(a=1), Phantom()):
            assert dumps_view(value) == _reference(value)


class TestSameErrors:
    # An object's repr holds its address; a fixed id keeps the name
    # the same from run to run.
    @pytest.mark.parametrize("payload", [
        pytest.param(object(), id="object()"),
        pytest.param([object()], id="[object()]"),
        {"a": {1, 2}}, {"a": [1, b"bytes"]},
        {(1, 2): "tuple key"}, {"a": {(1, 2): [1]}},
        [{"flat": 1}, [complex(1, 2)]],
    ], ids=repr)
    def test_unsupported_values(self, payload):
        assert _outcome(dumps_view, payload) == \
            _outcome(_reference, payload)
        assert _outcome(dumps_view, payload)[0] != "ok"

    def test_cycles(self):
        listed: list = [1]
        listed.append({"again": listed})
        mapped: dict = {"a": [1, 2]}
        mapped["self"] = mapped
        for payload in (listed, mapped, {"outer": [listed]}):
            got = _outcome(dumps_view, payload)
            assert got == _outcome(_reference, payload)
            assert got[0] == "ValueError"

    @settings(max_examples=100, deadline=None)
    @given(payloads, st.sampled_from([object(), {1, 2}, b"x"]))
    def test_one_bad_value_anywhere(self, payload, bad):
        mixed = [payload, {"bad": [bad]}]
        assert _outcome(dumps_view, mixed) == _outcome(_reference, mixed)


class TestThreads:
    def test_shared_encoders_under_fast_switching(self):
        """Handler threads share the per-level encoders; a switch at
        any bytecode must never hand one level another's separator."""
        shapes = [{"a": [1, 2], "b": {"c": [3, {"d": "e"}]}},
                  [[[["deep", 1.5]]], {"x": None}],
                  {"flips": [{"uid": str(i), "a": "yes", "b": "no"}
                             for i in range(30)]},
                  [{"k": [i, [i, [i]]]} for i in range(10)]]
        expected = [_reference(shape) for shape in shapes]
        failures: list[str] = []
        stop = threading.Event()

        def hammer(offset: int) -> None:
            for turn in range(300):
                if stop.is_set():
                    return
                index = (offset + turn) % len(shapes)
                if dumps_view(shapes[index]) != expected[index]:
                    failures.append(f"shape {index}")
                    stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
