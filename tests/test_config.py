import json
import random
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vmcheck import cli, config
from vmcheck.machine import Reg
from vmcheck.config import (
    ConfigError,
    StateConfig,
    dump_config,
    load_config,
)

from gen import multi_space_fixture


def test_roundtrip_is_byte_identical():
    state, registry, roots = multi_space_fixture()
    cfg = StateConfig.of(state, registry, free_list=(0x20_0000,))
    text = dump_config(cfg)
    assert dump_config(load_config(text)) == text


def test_dump_is_canonical_regardless_of_insertion_order():
    a = StateConfig(registers={Reg.RAX: 1, Reg.RBX: 2},
                    memory={2: {8: 5, 0: 6}, 1: {0: 7}},
                    registry={0x2000: {4: 8}, 0x1000: {8: 9, 0: 10}},
                    free_list=(0x3000,))
    b = StateConfig(registers={Reg.RBX: 2, Reg.RAX: 1},
                    memory={1: {0: 7}, 2: {0: 6, 8: 5}},
                    registry={0x1000: {0: 10, 8: 9}, 0x2000: {4: 8}},
                    free_list=(0x3000,))
    assert dump_config(a) == dump_config(b)


def test_to_machine_state():
    text = """
    {
      "registers": {"cr3": "0x100000", "rax": "0x7"},
      "memory": {"0x5": {"0x0": "0x1111"}},
      "registry": {"0x100000": {"0x200000": "0x5000"}},
      "free_list": ["0x200000"]
    }
    """
    cfg = load_config(text)
    state = cfg.to_machine_state()
    assert state.reg(Reg.CR3) == 0x100000
    assert state.reg(Reg.RAX) == 7
    assert state.mem[5][0] == 0x1111
    assert cfg.registry == {0x100000: {0x200000: 0x5000}}
    assert cfg.free_list == (0x200000,)


@pytest.mark.parametrize("text", [
    "[]",
    '{"registers": {"nope": "0x1"}}',
    '{"memory": {"0x5": {"0x4": "0x1"}}}',
    '{"registry": {"0x1001": {}}}',
    '{"memory": {"0x5": {"0x0": 17}}}',
    "not json",
    '{"registers": []}',
    '{"memory": []}',
    '{"memory": {"0x1": []}}',
    '{"registry": []}',
    '{"registry": {"0x1000": []}}',
    '{"free_list": "0x1000"}',
    '{"free_list": {"0x1000": "0x1"}}',
    '{"registry": {"0x1000": {"0x3": "0x5000"}}}',
    '{"registry": {"0x1000": {"0x10000000000000000": "0x5000"}}}',
    '{"registry": {"0x1000": {"0x8": "0x5004"}}}',
    '{"registry": {"0x1000": {"0x8": "0x10000000000000000"}}}',
    '{"registry": {"-4096": {}}}',
    '{"registry": {"0x100000000000000000": {}}}',
    '{"free_list": ["-4096"]}',
    '{"free_list": ["0x100000000000000000"]}',
    '{"free_list": ["0x200008"]}',
    '{"free_list": ["1_0_0_0"]}',
    '{"registers": {"rax": "0X10"}}',
    '{"registers": {"rax": " 0x10"}}',
    '{"registers": {"rax": "-0"}}',
    # one key spelled two ways: the later spelling must not drop state
    '{"memory": {"0x5": {"0x0": "0x1"}, "5": {"0x8": "0x2"}}}',
    '{"registry": {"0x100000": {"0x1000": "0x2000"}, "1048576": {}}}',
])
def test_rejects_malformed(text):
    with pytest.raises(ConfigError):
        load_config(text)


@pytest.mark.parametrize("text, message", [
    ('{"memory": {"0x5": {"0x0": "0x1"}, "5": {"0x8": "0x2"}}}',
     "memory frame 0x5 spelled '0x5' and '5'"),
    ('{"memory": {"0x5": {"0x0": "0x1", "0x8": "0x2", "0": "0x3"}}}',
     "memory frame 0x5 offset 0x0 spelled '0x0' and '0'"),
    ('{"registry": {"0x100000": {"0x1000": "0x2000"}, "1048576": {}}}',
     "space root 0x100000 spelled '0x100000' and '1048576'"),
    ('{"registry": {"0x1000": {"0x8": "0x5000", "8": "0x6000"}}}',
     "walk map 0x1000 key 0x8 spelled '0x8' and '8'"),
])
def test_a_key_spelled_two_ways_names_both_spellings(text, message):
    with pytest.raises(ConfigError) as err:
        load_config(text)
    assert str(err.value) == message


def test_to_machine_state_shares_frames_until_a_write():
    cfg = load_config('{"memory": {"0x5": {"0x0": "0x1111"}}}')
    state = cfg.to_machine_state()
    assert state.mem[5] is cfg.memory[5]
    assert state.write_word(5, 0, 0x2222) is None
    assert state.mem[5][0] == 0x2222
    assert cfg.memory[5][0] == 0x1111
    assert cfg.to_machine_state().mem[5][0] == 0x1111


# Memory-frame spellings for the differential test below: the dumper's
# own, and the ones only the word-by-word path accepts or rejects.

_WORDS = st.one_of(st.integers(0, (1 << 64) - 1),
                   st.integers(1 << 64, 1 << 70), st.integers(-16, -1))


@st.composite
def _spelling(draw, value: int):
    digits = f"{abs(value):x}"
    sign = "-" if value < 0 else ""
    return draw(st.sampled_from([
        f"{sign}0x{digits}",
        f"{sign}0X{digits}",
        f"{sign}0x{digits.upper()}",
        f"{sign}0x{digits.zfill(16)}",
        f"{sign}0x{digits.zfill(17)}",
        f"{sign}0x{'0' * 20}{digits}",
        str(value),
        f"{sign}0x{digits[:1]}_{digits[1:]}" if len(digits) > 1
        else f"{sign}0x_{digits}",
        f"{sign}0x{digits}_",
        f"{sign}0x{digits[:1]}__{digits[1:]}",
        f" {sign}0x{digits}",
        f"{sign}0x{digits}\t",
        f"{sign}0x{digits}\n0x1",
        f"{sign}0x{digits}\n",
        f"{sign}0x",
        "0xg",
        "",
    ]))


_CANONICAL_SLOTS = st.integers(0, 511).map(lambda i: f"{i * 8:#x}")
_CANONICAL_WORDS = st.integers(0, (1 << 64) - 1).map(hex)
_HOSTILE_SLOTS = st.one_of(
    st.integers(-16, 5000).flatmap(_spelling),
    st.sampled_from(["0x1000", "0xff9", "0x4", "-0x8", "0x08", "8"]))
_HOSTILE_WORDS = st.one_of(
    _WORDS.flatmap(_spelling),
    # one step from the dumper's spelling: too wide, `_`, two words in one
    st.integers(1 << 64, 1 << 70).map(hex),
    _CANONICAL_WORDS.flatmap(lambda v: st.sampled_from(
        [f"{v}_", f"{v[:3]}_{v[3:]}", f"{v}__1", f"{v}\n0x1"])),
    st.one_of(st.integers(0, 99), st.none(), st.booleans(),
              st.floats(allow_nan=False), st.lists(st.just("0x1"),
                                                   max_size=2)))


# a pool of at most four value spellings, mostly the dumper's, so that the
# words of a frame drawn from it repeat as page-table words do
_POOLS = st.lists(st.one_of(st.just("0x0"), _CANONICAL_WORDS,
                            _CANONICAL_WORDS, _HOSTILE_WORDS),
                  min_size=1, max_size=4)
_CLEAN_POOLS = st.lists(st.one_of(st.just("0x0"), _CANONICAL_WORDS),
                        min_size=1, max_size=4)
_ALL_SLOTS = [f"{off:#x}" for off in range(0, 4096, 8)]


@st.composite
def _full_frame(draw, shuffled: bool):
    """All 512 slots, in the dumper's order or shuffled, each holding a
    word of one pool; a drawn seed picks them, so that a failure shrinks
    quickly."""
    pool = draw(st.one_of(_CLEAN_POOLS, _POOLS))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    slots = list(_ALL_SLOTS)
    if shuffled:
        rng.shuffle(slots)
    return {slot: rng.choice(pool) for slot in slots}


def _frames():
    """Up to four frames: canonical words, some with a few hostile
    entries mixed in, or words that repeat, drawn from a small pool, over
    a few slots or over all 512 (in the dumper's order or shuffled)."""
    clean = st.dictionaries(_CANONICAL_SLOTS, _CANONICAL_WORDS, max_size=16)
    hostile = st.dictionaries(
        st.one_of(_CANONICAL_SLOTS, _CANONICAL_SLOTS, _HOSTILE_SLOTS),
        _HOSTILE_WORDS, min_size=1, max_size=2)
    mixed = st.tuples(clean, hostile).map(lambda p: {**p[0], **p[1]})
    pooled = _POOLS.flatmap(lambda pool: st.dictionaries(
        st.one_of(_CANONICAL_SLOTS, _CANONICAL_SLOTS, _HOSTILE_SLOTS),
        st.sampled_from(pool), min_size=1, max_size=32))
    return st.dictionaries(st.integers(0, 64).map(hex),
                           st.one_of(clean, mixed, pooled, _full_frame(False),
                                     _full_frame(True)), max_size=4)


def _outcome(text: str):
    try:
        return "ok", load_config(text).memory
    except ConfigError as err:
        return "error", str(err)


@seed(7)
@settings(max_examples=150, deadline=None)
@given(_frames())
def test_bulk_frame_decode_matches_the_word_by_word_path(memory):
    text = json.dumps({"memory": memory})
    got = _outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        # every frame word by word: no offset is a slot, no value a word
        patch.setattr(config, "_SLOTS", {})
        patch.setattr(config, "_HEX_WORDS", re.compile(r"(?!)"))
        want = _outcome(text)
    assert got == want


@pytest.mark.parametrize("words, message", [
    # one value that holds two words, at two offsets: the distinct values
    # hold one newline, which the word count alone would let through
    ({"0x0": "0x1\n0x2", "0x8": "0x1\n0x2"},
     "bad number '0x1\\n0x2' for memory word 0x5:0x0"),
    # values that set() cannot hash
    ({"0x0": ["0x1"], "0x8": ["0x1"]},
     "memory word 0x5:0x0 must be a 0x-hex string, got ['0x1']"),
])
def test_frames_the_bulk_path_refuses_keep_their_word_by_word_error(
        words, message):
    with pytest.raises(ConfigError) as err:
        load_config(json.dumps({"memory": {"0x5": words}}))
    assert str(err.value) == message


def test_dumped_frames_never_take_the_word_by_word_path(monkeypatch):
    # the dumper's spelling is the bulk path's: a change to either that
    # loses the match sends every word back through _word
    words = {off: (off * 0x9E3779B97F4A7C15) % (1 << 64)
             for off in range(0, 4096, 8)}
    assert len(set(words.values())) == 512
    cfg = StateConfig(registers={Reg.RAX: 1},
                      memory={0x5: words, 0x6: {0: 0, 8: (1 << 64) - 1},
                              0x7: dict.fromkeys(range(0, 4096, 8), 0)})
    fields = []
    real_word = config._word

    def counted(value, what):
        fields.append(what)
        return real_word(value, what)

    monkeypatch.setattr(config, "_word", counted)
    assert load_config(dump_config(cfg)) == cfg
    assert fields == ["register rax"]


def test_the_shared_parser_gives_identical_runs(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    state, registry, roots = multi_space_fixture()
    state_path = tmp_path / "state.json"
    state_path.write_text(dump_config(StateConfig.of(state, registry)))
    good = ["walk", "--state", str(state_path), "--root", f"{roots[0]:#x}",
            "--va", "0x200000"]
    runs = []
    for argv in (good, ["walk", "--state", str(state_path)], good):
        code = cli.main(argv)
        runs.append((code, capsys.readouterr()))
    (code1, out1), (bad, err), (code2, out2) = runs
    assert bad == 2 and err.out == "" and "required" in err.err
    assert code1 == code2 == 0 and out1.err == out2.err == ""
    assert out1.out == out2.out and out1.out.endswith("pa 0x5000\n")
