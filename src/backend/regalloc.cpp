#include "backend/regalloc.h"

#include <algorithm>

#include "analysis/liveness.h"
#include "transform/reverse_if_convert.h"

namespace chf {

namespace {

/**
 * Rewrite one block to load/store every spilled register it touches.
 * @p spill_index maps a register to its position in the spill order
 * (slot @p slot_base + position), or -1 when it has a physical
 * register. A spilled value is reloaded at block entry if the block
 * reads it before (re)defining it, or if a predicated def may not fire
 * while the exit store runs unconditionally (the flow-through value
 * must be in the register); it is stored at block exit when a (possibly
 * new) value defined here flows out. Reloads come first in reverse
 * spill order and stores last in spill order -- the layout of applying
 * one value at a time, each wrapping the previous rewrite.
 */
size_t
spillInBlock(BasicBlock &bb, const std::vector<int32_t> &spill_index,
             const std::vector<Vreg> &spilled, int64_t slot_base,
             const BitVector &live_in, const BitVector &live_out,
             std::vector<uint8_t> &flags)
{
    // Spilled registers the block touches, by spill position, with
    // their flags: kDef (defined here), kPredDef (some def is
    // predicated); live-in ones join with neither. @p flags is zero on
    // entry and cleared again before returning.
    constexpr uint8_t kSeen = 1, kDef = 2, kPredDef = 4;
    std::vector<int32_t> touched;
    auto note = [&](Vreg reg, uint8_t bits) {
        if (spill_index[reg] < 0)
            return;
        if (!flags[reg])
            touched.push_back(spill_index[reg]);
        flags[reg] |= kSeen | bits;
    };
    for (const auto &inst : bb.insts) {
        if (inst.hasDest())
            note(inst.dest, inst.pred.valid() ? kDef | kPredDef : kDef);
    }
    live_in.forEach([&](uint32_t reg) { note(reg, 0); });
    if (touched.empty())
        return 0;
    std::sort(touched.begin(), touched.end());

    BitVector uses = blockUses(bb, live_in.size());
    std::vector<Instruction> out;
    out.reserve(bb.insts.size() + 2 * touched.size());
    size_t inserted = 0;
    for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
        Vreg reg = spilled[static_cast<size_t>(*it)];
        bool store_at_exit = (flags[reg] & kDef) && live_out.test(reg);
        if (live_in.test(reg) &&
            (uses.test(reg) ||
             (store_at_exit && (flags[reg] & kPredDef)))) {
            out.push_back(Instruction::load(
                reg, Operand::makeImm(slot_base + *it),
                Operand::makeImm(0)));
            ++inserted;
        }
    }
    out.insert(out.end(), bb.insts.begin(), bb.insts.end());
    for (int32_t idx : touched) {
        Vreg reg = spilled[static_cast<size_t>(idx)];
        if ((flags[reg] & kDef) && live_out.test(reg)) {
            out.push_back(Instruction::store(
                Operand::makeImm(slot_base + idx), Operand::makeImm(0),
                Operand::makeReg(reg)));
            ++inserted;
        }
        flags[reg] = 0;
    }
    if (inserted > 0)
        bb.insts = std::move(out);
    return inserted;
}

} // namespace

RegAllocResult
allocateRegisters(Program &program, const RegAllocOptions &options)
{
    Function &fn = program.fn;
    RegAllocResult result;

    Liveness liveness(fn);
    uint32_t nv = fn.numVregs();

    // Cross-block values: live into any block, plus the arguments.
    BitVector cross(liveness.universe());
    for (BlockId id : fn.blockIds())
        cross.unionWith(liveness.liveIn(id));
    for (Vreg arg : fn.argRegs) {
        if (arg < nv)
            cross.set(arg);
    }
    result.crossBlockValues = cross.count();

    // Weight each value by the frequency of the blocks that touch it.
    std::vector<double> weight(nv, 0.0);
    for (BlockId id : fn.blockIds()) {
        const BasicBlock *bb = fn.block(id);
        double f = std::max(bb->frequency(), 1.0);
        for (const auto &inst : bb->insts) {
            inst.forEachUse([&](Vreg v) { weight[v] += f; });
            if (inst.hasDest())
                weight[inst.dest] += f;
        }
    }

    std::vector<Vreg> values = cross.bits();
    std::sort(values.begin(), values.end(), [&](Vreg a, Vreg b) {
        if (weight[a] != weight[b])
            return weight[a] > weight[b];
        return a < b;
    });

    // Hot values get registers (round-robin banks via id order); the
    // rest spill.
    std::vector<Vreg> spilled;
    for (size_t i = 0; i < values.size(); ++i) {
        if (i < options.numPhysRegs) {
            result.assignment[values[i]] =
                static_cast<uint32_t>(i);
        } else {
            spilled.push_back(values[i]);
        }
    }
    result.spilledValues = spilled.size();

    if (!spilled.empty()) {
        if (!program.memory.hasRegion("spill"))
            program.memory.allocate("spill",
                                    static_cast<int64_t>(spilled.size()));
        const GlobalRegion &region = program.memory.region("spill");
        std::vector<int32_t> spill_index(liveness.universe(), -1);
        for (size_t i = 0; i < spilled.size(); ++i)
            spill_index[spilled[i]] = static_cast<int32_t>(i);
        std::vector<uint8_t> flags(liveness.universe(), 0);
        for (BlockId id : fn.blockIds()) {
            result.spillInstsInserted += spillInBlock(
                *fn.block(id), spill_index, spilled, region.base,
                liveness.liveIn(id), liveness.liveOut(id), flags);
        }
        // Arguments arrive in registers, not in their (zero-filled)
        // spill slots: materialize each spilled argument at function
        // entry, ahead of any entry-block reload spillInBlock added.
        for (size_t i = 0; i < spilled.size(); ++i) {
            Vreg reg = spilled[i];
            if (std::find(fn.argRegs.begin(), fn.argRegs.end(), reg) ==
                fn.argRegs.end())
                continue;
            int64_t slot = region.base + static_cast<int64_t>(i);
            BasicBlock *entry = fn.block(fn.entry());
            entry->insts.insert(entry->insts.begin(),
                                Instruction::store(
                                    Operand::makeImm(slot),
                                    Operand::makeImm(0),
                                    Operand::makeReg(reg)));
            ++result.spillInstsInserted;
        }
        // Spill code may have blown the structural limits: reverse
        // if-convert (split) the offenders.
        result.blocksSplit =
            splitOversizedBlocks(fn, options.target);
    }

    return result;
}

} // namespace chf
