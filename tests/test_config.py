import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vmcheck import cli, config
from vmcheck.cases import CASE_NAMES, case_study
from vmcheck.machine import Reg, synth_tables
from vmcheck.config import (
    ConfigError,
    StateConfig,
    dump_config,
    load_config,
)

from gen import multi_space_fixture
from test_multispace_reports import SCRIPTS, multispace


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
    # both spellings 0x-hex in lower case, one of them zero-padded
    ('{"registry": {"0x1000": {"0x8": "0x5000", "0x08": "0x6000"}}}',
     "walk map 0x1000 key 0x8 spelled '0x8' and '0x08'"),
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
    st.sampled_from(["0x1000", "0xff9", "0x4", "-0x8", "0x08", "8", "*"]))
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
    # one value that holds two words, at two offsets: the joined values
    # match the pattern as four words, so the newline count refuses them
    ({"0x0": "0x1\n0x2", "0x8": "0x1\n0x2"},
     "bad number '0x1\\n0x2' for memory word 0x5:0x0"),
    # values that are not strings, which "\n".join refuses
    ({"0x0": ["0x1"], "0x8": ["0x1"]},
     "memory word 0x5:0x0 must be a 0x-hex string, got ['0x1']"),
])
def test_frames_the_bulk_path_refuses_keep_their_word_by_word_error(
        words, message):
    with pytest.raises(ConfigError) as err:
        load_config(json.dumps({"memory": {"0x5": words}}))
    assert str(err.value) == message


@pytest.mark.parametrize("bad, message", [
    ("0x1000", "offset 0x1000 is not a word slot"),
    ("0x4", "offset 0x4 is not a word slot"),
    ("0x08", "memory frame 0x6 offset 0x8 spelled '0x8' and '0x08'"),
])
def test_a_bad_offset_after_a_good_full_frame_keeps_its_error(bad, message):
    # a load checks a full frame's keys once: a later frame whose keys
    # differ in one offset is still checked, and read word by word
    good = {f"{off:#x}": "0x0" for off in range(0, 4096, 8)}
    later = {(bad if key == "0xff8" else key): word
             for key, word in good.items()}
    with pytest.raises(ConfigError) as err:
        load_config(json.dumps({"memory": {"0x5": good, "0x6": later}}))
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



_HOSTILE_WORDS = (
    "0x0", "0x1f", "0x8", "0x1000", "0x1008", "0xffffffffffffffff",
    "0x0ffffffffffffffff", "0x10000000000000000", "0x00000000000000000",
    "0X1f", "0x_1", "0x1_0", " 0x1", "0x1 ", "0x1\n", "\t0x1", "0xAB",
    "0xaB", "0x", "x1", "1f", "-0x1", "+0x1", "0x-1", "0x+1", "0b1", "0o7",
    "16", "-8", "", "0x\u0661", "0x\uff11", "\u0661\u0662", "0xg",
    "0x1.0", "0x1e3", "1" * 30, "0x" + "f" * 40)


def _word_outcome(value, align):
    try:
        return config._word(value, "field", align)
    except ConfigError as err:
        return str(err)


@pytest.mark.parametrize("align", (1, 8, 4096))
def test_the_word_readers_fast_path_agrees_with_the_grammar(
        monkeypatch, align):
    # the fast path reads 0x and 1 to 16 lower-case hex digits with int(),
    # which alone would also take 0X, 0x_1 and surrounding whitespace:
    # every spelling, fast or not, reads as the grammar path reads it
    values = (*_HOSTILE_WORDS, config._JsonInt("16"), None, 16, ["0x1"])
    fast = [_word_outcome(value, align) for value in values]
    monkeypatch.setattr(config, "_HEX_WORD", lambda _value: None)
    assert [_word_outcome(value, align) for value in values] == fast
    outcome = dict(zip(_HOSTILE_WORDS, fast))
    assert outcome["0x1000"] == 0x1000
    assert outcome["0x10000000000000000"] == \
        "field 0x10000000000000000 is not a 64-bit word"
    for spelling in ("0X1f", "0x_1", " 0x1", "0x1\n"):
        assert outcome[spelling] == f"bad number {spelling!r} for field"


_WORD64 = st.integers(0, (1 << 64) - 1)
_ALIGNED = {align: _WORD64.map(lambda word, align=align: word - word % align)
            for align in (8, 4096)}
# a word-aligned va with bits 63..48 equal to bit 47, as walk-map keys are
_CANONICAL_VA = st.one_of(
    st.integers(0, (1 << 44) - 1),
    st.integers((1 << 61) - (1 << 44), (1 << 61) - 1)).map(lambda k: 8 * k)


@st.composite
def _loadable_frame(draw):
    """A frame of a few slots or of all 512, whose words repeat (drawn
    from a pool of up to four words and 0) or seldom do; a drawn seed
    picks them, so that a failure shrinks quickly."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    pool = draw(st.lists(_WORD64, min_size=1, max_size=4)) + [0]
    slots = range(0, 4096, 8)
    if not draw(st.booleans()):
        slots = rng.sample(slots, draw(st.integers(0, 16)))
    distinct = draw(st.booleans())
    return {off: rng.getrandbits(64) if distinct else rng.choice(pool)
            for off in slots}


_CONFIGS = st.builds(
    StateConfig,
    registers=st.dictionaries(st.sampled_from(list(Reg)), _WORD64),
    memory=st.dictionaries(st.integers(0, (1 << 52) - 1), _loadable_frame(),
                           max_size=4),
    registry=st.dictionaries(
        _ALIGNED[4096], st.dictionaries(_CANONICAL_VA, _ALIGNED[8],
                                        max_size=8),
        max_size=3),
    free_list=st.lists(_ALIGNED[4096], max_size=4).map(tuple))


def _in_decimal(node):
    """A decoded state file with every 0x-hex number spelled in decimal."""
    if isinstance(node, dict):
        return {_in_decimal(key): _in_decimal(value)
                for key, value in node.items()}
    if isinstance(node, list):
        return list(map(_in_decimal, node))
    return str(int(node, 16)) if node.startswith("0x") else node


@settings(max_examples=100, deadline=None)
@given(_CONFIGS)
def test_a_dumped_state_loads_back_in_either_spelling(cfg):
    # the dumper's spelling takes the bulk frame decode; decimal, which
    # no bulk pattern matches, takes the word-by-word path
    text = dump_config(cfg)
    assert load_config(text) == cfg
    assert load_config(json.dumps(_in_decimal(json.loads(text)))) == cfg


def _full_frame_state() -> str:
    """A state of one full frame, 0x5, holding three words other than 0,
    and one partial frame, 0x6."""
    words = dict.fromkeys(range(0, 4096, 8), 0)
    words[0x8], words[0x10], words[0xff8] = 0x1, 0x1234, 0x6007
    return dump_config(StateConfig(memory={0x5: words, 0x6: {0: 7}}))


class _CountedFrame(dict):
    copies = 0

    def copy(self):
        _CountedFrame.copies += 1
        return dict(self)


def test_a_full_frame_starts_as_a_copy_of_the_zero_frame(monkeypatch):
    monkeypatch.setattr(config, "_ZERO_FRAME",
                        _CountedFrame(config._ZERO_FRAME))
    monkeypatch.setattr(_CountedFrame, "copies", 0)
    memory = load_config(_full_frame_state()).memory
    assert _CountedFrame.copies == 1
    assert memory[0x6] == {0: 7}
    assert memory[0x5] == {**dict.fromkeys(range(0, 4096, 8), 0),
                           0x8: 0x1, 0x10: 0x1234, 0xff8: 0x6007}
    assert list(memory[0x5]) == list(range(0, 4096, 8))


def test_loaded_frames_share_no_dict_with_each_other_or_the_zero_frame():
    text = _full_frame_state()
    first, second = load_config(text), load_config(text)
    for frame in (0x5, 0x6):
        assert first.memory[frame] is not second.memory[frame]
        assert first.memory[frame] is not config._ZERO_FRAME
    first.memory[0x5][0] = 0xdead
    assert second.memory[0x5][0] == config._ZERO_FRAME[0] == 0
    assert set(config._ZERO_FRAME.values()) == {0}


def test_a_machine_write_changes_neither_the_config_nor_the_zero_frame():
    cfg = load_config(_full_frame_state())
    loaded = {frame: dict(words) for frame, words in cfg.memory.items()}
    state = cfg.to_machine_state()
    assert state.write_word(0x5, 0x18, 0xbeef) is None
    assert state.read_word(0x5, 0x18) == 0xbeef
    assert cfg.memory == loaded
    assert set(config._ZERO_FRAME.values()) == {0}


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


# --------------------------------------------------------------------------
# Sparse frames: "*" gives the word of every slot a frame does not list


def _memory(text: str) -> dict:
    return load_config(text).memory


_SLOTS_OF = range(0, 4096, 8)


def test_a_star_frame_is_every_slot_holding_its_word_but_those_listed():
    assert _memory('{"memory": {"0x5": {"*": "0x7", "0x10": "0x9"}}}') == \
        {5: {**dict.fromkeys(_SLOTS_OF, 7), 0x10: 9}}
    # "*" may come anywhere among the keys, in any spelling of a word
    assert _memory('{"memory": {"0x5": {"8": "0", "*": "7"}}}') == \
        {5: {**dict.fromkeys(_SLOTS_OF, 7), 8: 0}}
    # a repeated "*" collapses as any repeated JSON key does: the last wins
    assert _memory('{"memory": {"0x5": {"*": "0x1", "*": "0x2"}}}') == \
        {5: dict.fromkeys(_SLOTS_OF, 2)}
    assert list(_memory('{"memory": {"0x5": {"*": "0x0"}}}')[5]) == \
        list(_SLOTS_OF)


@pytest.mark.parametrize("words, message", [
    ({"*": "0xg"}, "bad number '0xg' for memory word 0x5:*"),
    ({"*": None}, "memory word 0x5:* must be a 0x-hex string, got None"),
    ({"*": "0x10000000000000000"},
     "memory word 0x5:* 0x10000000000000000 is not a 64-bit word"),
    # its other fields keep the errors they have in a frame without "*"
    ({"*": "0x0", "0x4": "0x1"}, "offset 0x4 is not a word slot"),
    ({"*": "0x0", "0x8": "0x1", "8": "0x2"},
     "memory frame 0x5 offset 0x8 spelled '0x8' and '8'"),
    ({"*": "0x0", "0x8": "0x1_0"},
     "bad number '0x1_0' for memory word 0x5:0x8"),
])
def test_a_star_frame_refuses_a_bad_field_naming_it(words, message):
    with pytest.raises(ConfigError) as err:
        load_config(json.dumps({"memory": {"0x5": words}}))
    assert str(err.value) == message


def test_a_full_frame_dumps_its_most_common_word_as_star_first():
    common = {**dict.fromkeys(_SLOTS_OF, 7), 0x8: 0, 0x10: 9}
    tie = {off: off // 8 % 2 for off in _SLOTS_OF}
    body = json.loads(dump_config(StateConfig(
        memory={0x5: common, 0x6: tie, 0x7: {0: 7, 8: 7}})))["memory"]
    assert body["0x5"] == {"*": "0x7", "0x8": "0x0", "0x10": "0x9"}
    assert list(body["0x5"]) == ["*", "0x8", "0x10"]
    # a tie goes to the least word; a frame of fewer slots lists them all
    assert body["0x6"] == {"*": "0x0", **{f"{off:#x}": "0x1"
                                          for off in _SLOTS_OF if off % 16}}
    assert body["0x7"] == {"0x0": "0x7", "0x8": "0x7"}


def _dense(cfg: StateConfig) -> str:
    """`cfg` dumped with every word of every frame spelled out."""
    body = json.loads(dump_config(cfg))
    body["memory"] = {f"{frame:#x}": {f"{off:#x}": f"{val:#x}"
                                      for off, val in sorted(words.items())}
                      for frame, words in sorted(cfg.memory.items())}
    return json.dumps(body, indent=2)


def _spellings(dense: str) -> list:
    """A state spelled dense, as dump_config spells it (sparse), and each
    of those with every number in decimal."""
    sparse = dump_config(load_config(dense))
    assert '"*": "0x0"' in sparse and len(sparse) < len(dense) / 4
    return [dense, sparse, *(json.dumps(_in_decimal(json.loads(text)))
                             for text in (dense, sparse))]


def test_the_seed_1_multispace_states_load_alike_in_every_spelling(tmp_path):
    tables = multispace.build_tables(synth_tables)
    for index, script in enumerate(SCRIPTS):
        *_, path = multispace.write(script, tmp_path / f"s{index:03d}",
                                    tables)
        memory = multispace.initial_memory(script, tables)
        for text in _spellings(Path(path).read_text()):
            assert _memory(text) == memory


@pytest.mark.parametrize("name", CASE_NAMES)
def test_the_case_states_load_alike_in_every_spelling(name):
    case = case_study(name)
    cfg = StateConfig.of(case.state, case.registry, case.free_list)
    for text in _spellings(_dense(cfg)):
        assert load_config(text) == cfg
