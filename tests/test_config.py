import pytest

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
])
def test_rejects_malformed(text):
    with pytest.raises(ConfigError):
        load_config(text)
