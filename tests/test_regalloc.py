"""Tests for register allocation and the spill model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import o3_setting
from repro.compiler.ir import (
    DEP_KINDS,
    BasicBlock,
    DataRegion,
    Function,
    Instruction,
    Opcode,
    Program,
    TAG_SPILL,
)
from repro.compiler.passes.base import PassStats, insert_instructions
from repro.compiler.regalloc import (
    ALLOCATABLE_REGISTERS,
    MAX_SPILLS_PER_BLOCK,
    STACK_REGION,
    RegisterAllocationPass,
)
from repro.compiler.passes.schedule import (
    BASELINE_LIVE,
    block_pressure,
    pressure_and_calls,
)


def _high_pressure_block(values: int) -> BasicBlock:
    """``values`` simultaneously-live producers consumed at the end."""
    instructions = [
        Instruction(opcode=Opcode.ADD, expr=f"v{i}") for i in range(values)
    ]
    instructions.append(
        Instruction(
            opcode=Opcode.ADD,
            expr="sum",
            deps=tuple((distance, "alu") for distance in range(1, values + 1)),
        )
    )
    return BasicBlock("hot", instructions, exec_count=100.0)


def _program_with(block: BasicBlock) -> Program:
    function = Function(
        name="main", blocks={block.label: block}, layout=[block.label], entry_count=1.0
    )
    return Program(
        name="t",
        functions={"main": function},
        entry="main",
        regions={},
    )


def _spill_count(block: BasicBlock) -> int:
    return sum(1 for insn in block.instructions if insn.has_tag(TAG_SPILL))


class TestSpilling:
    def test_low_pressure_no_spills(self):
        block = _high_pressure_block(3)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert _spill_count(block) == 0

    def test_high_pressure_spills(self):
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 3
        block = _high_pressure_block(values)
        program = _program_with(block)
        stats = PassStats()
        RegisterAllocationPass().apply(program, o3_setting(), stats)
        assert stats["regalloc.spilled_values"] > 0
        assert _spill_count(block) == 2 * stats["regalloc.spilled_values"]

    def test_spills_are_store_reload_pairs(self):
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 2
        block = _high_pressure_block(values)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        stores = [
            insn
            for insn in block.instructions
            if insn.has_tag(TAG_SPILL) and insn.opcode is Opcode.STORE
        ]
        reloads = [
            insn
            for insn in block.instructions
            if insn.has_tag(TAG_SPILL) and insn.opcode is Opcode.LOAD
        ]
        assert len(stores) == len(reloads)
        assert {insn.expr for insn in stores} == {insn.expr for insn in reloads}

    def test_spill_cap(self):
        block = _high_pressure_block(40)
        program = _program_with(block)
        stats = PassStats()
        RegisterAllocationPass().apply(program, o3_setting(), stats)
        assert stats["regalloc.spilled_values"] <= MAX_SPILLS_PER_BLOCK

    def test_stack_region_created(self):
        block = _high_pressure_block(3)
        program = _program_with(block)
        assert "stack" not in program.regions
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert program.regions["stack"].kind == "stack"

    def test_spills_reference_stack(self):
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 2
        block = _high_pressure_block(values)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        for insn in block.instructions:
            if insn.has_tag(TAG_SPILL):
                assert insn.region == "stack"
        program.validate()


class TestAllocationFlags:
    def _marginal_block(self) -> BasicBlock:
        # Pressure exactly one above the register count: fregmove saves it.
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 1
        return _high_pressure_block(values)

    def test_regmove_relieves_one_unit(self):
        block = self._marginal_block()
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert _spill_count(block) == 0  # regmove on at O3

        block = self._marginal_block()
        program = _program_with(block)
        RegisterAllocationPass().apply(
            program, o3_setting().with_values(fregmove=False), PassStats()
        )
        assert _spill_count(block) > 0

    def test_caller_saves_policy_around_calls(self):
        def block_with_call():
            block = self._marginal_block()
            block.instructions.insert(
                0, Instruction(opcode=Opcode.CALL, callee="main")
            )
            return block

        # Without caller-saves: blunt save/restore per call.
        block = block_with_call()
        program = _program_with(block)
        RegisterAllocationPass().apply(
            program,
            o3_setting().with_values(fcaller_saves=False, fregmove=False),
            PassStats(),
        )
        without = _spill_count(block)

        block = block_with_call()
        program = _program_with(block)
        RegisterAllocationPass().apply(
            program,
            o3_setting().with_values(fcaller_saves=True, fregmove=False),
            PassStats(),
        )
        with_flag = _spill_count(block)
        assert with_flag <= without

    def test_empty_blocks_skipped(self):
        block = BasicBlock("empty", [], exec_count=10.0)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert block.instructions == []


# ----------------------------------------------------------------- oracles
def reference_block_pressure(block: BasicBlock) -> int:
    """Peak live values by sorting ``(position, ±1)`` interval events."""
    last_use: dict[int, int] = {}
    for index, insn in enumerate(block.instructions):
        for distance, _ in insn.deps:
            producer = index - distance
            if producer >= 0:
                last_use[producer] = max(last_use.get(producer, producer), index)
    events: list[tuple[int, int]] = []
    for producer, last in last_use.items():
        events.append((producer, +1))
        events.append((last, -1))
    events.sort()
    live = 0
    peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    return peak + BASELINE_LIVE


def reference_spill_count(block: BasicBlock, regmove: bool, caller_saves: bool) -> int:
    """The allocator's spill policy over the reference pressure."""
    pressure = reference_block_pressure(block)
    if regmove:
        pressure -= 1
    calls = sum(1 for insn in block.instructions if insn.opcode is Opcode.CALL)
    spilled = max(0, pressure - ALLOCATABLE_REGISTERS)
    if calls:
        if caller_saves:
            spilled = max(0, pressure + 1 - ALLOCATABLE_REGISTERS)
        else:
            spilled += calls
    return min(spilled, MAX_SPILLS_PER_BLOCK)


def reference_insert_spills(function_name: str, block: BasicBlock, spilled: int) -> None:
    """Reloads at two thirds, then stores at one third, each through
    ``insert_instructions``."""
    stores = []
    reloads = []
    for slot in range(spilled):
        slot_key = f"spill:{function_name}:{block.label}:{slot}"
        for opcode, out in ((Opcode.STORE, stores), (Opcode.LOAD, reloads)):
            out.append(
                Instruction(
                    opcode=opcode,
                    expr=slot_key,
                    region=STACK_REGION,
                    stride=0,
                    tags=frozenset({TAG_SPILL}),
                )
            )
    length = len(block.instructions)
    reload_position = max((2 * length) // 3, 1)
    insert_instructions(block, reload_position, reloads)
    store_position = min(length // 3, reload_position)
    insert_instructions(block, store_position, stores)


#: Body opcodes of the random blocks, CALLs and memory included.
_ALLOC_OPCODES = (
    [Opcode.ADD, Opcode.SUB, Opcode.MOV, Opcode.MUL, Opcode.SHL]
    + [Opcode.LOAD, Opcode.STORE, Opcode.CALL]
)


@st.composite
def _allocation_blocks(draw):
    """Random blocks from one instruction up: deps at every distance,
    some reaching past the block start (cross-block producers), CALLs,
    and an optional terminator."""
    count = draw(st.integers(1, 60))
    instructions = []
    for index in range(count):
        opcode = draw(st.sampled_from(_ALLOC_OPCODES))
        deps = tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(1, index + 3), st.sampled_from(DEP_KINDS)
                    ),
                    max_size=4,
                )
            )
        )
        instructions.append(
            Instruction(
                opcode=opcode,
                expr=f"e{index}",
                region="data" if opcode.is_memory else None,
                callee="main" if opcode is Opcode.CALL else None,
                deps=deps,
            )
        )
    if draw(st.booleans()):
        instructions.append(Instruction(opcode=Opcode.BR, deps=((1, "alu"),)))
    return BasicBlock("b", instructions, exec_count=1.0)


class TestAllocatorMatchesReference:
    @given(block=_allocation_blocks())
    @settings(max_examples=100, deadline=None)
    def test_pressure_and_calls(self, block):
        pressure, calls = pressure_and_calls(block)
        assert pressure == block_pressure(block) == reference_block_pressure(block)
        assert calls == sum(
            1 for insn in block.instructions if insn.opcode is Opcode.CALL
        )

    @given(
        block=_allocation_blocks(),
        regmove=st.booleans(),
        caller_saves=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_spill_count(self, block, regmove, caller_saves):
        assert RegisterAllocationPass._spill_count(
            block, regmove, caller_saves
        ) == reference_spill_count(block, regmove, caller_saves)

    @given(block=_allocation_blocks(), spilled=st.integers(1, MAX_SPILLS_PER_BLOCK))
    @settings(max_examples=100, deadline=None)
    def test_insert_spills(self, block, spilled):
        reference = block.clone()
        reference_insert_spills("main", reference, spilled)
        RegisterAllocationPass._insert_spills("main", block, spilled)
        assert block.instructions == reference.instructions

    @given(
        block=_allocation_blocks(),
        regmove=st.booleans(),
        caller_saves=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_pass_output(self, block, regmove, caller_saves):
        reference = block.clone()
        spilled = reference_spill_count(reference, regmove, caller_saves)
        if spilled:
            reference_insert_spills("main", reference, spilled)
        stats = PassStats()
        RegisterAllocationPass().apply(
            _program_with(block),
            o3_setting().with_values(fregmove=regmove, fcaller_saves=caller_saves),
            stats,
        )
        assert block.instructions == reference.instructions
        assert stats["regalloc.spilled_values"] == spilled
