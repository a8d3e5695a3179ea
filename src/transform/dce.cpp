#include "transform/dce.h"

#include "analysis/liveness.h"

namespace chf {

size_t
eliminateDeadCode(BasicBlock &bb, const BitVector &live_out,
                  DceScratch *scratch, size_t *min_touched)
{
    DceScratch local;
    DceScratch &t = scratch ? *scratch : local;
    BitVector &live = t.live;
    live = live_out;
    std::vector<uint8_t> &keep = t.keep;
    keep.assign(bb.insts.size(), 1);
    size_t removed = 0;
    size_t first_removed = bb.insts.size();

    for (size_t i = bb.insts.size(); i-- > 0;) {
        const Instruction &inst = bb.insts[i];
        bool has_effect = !opcodeIsPure(inst.op) || inst.isBranch();
        if (inst.op == Opcode::Load) {
            // Loads are removable when dead: this IR's loads cannot
            // fault on any address the program can compute.
            has_effect = false;
        }
        if (!has_effect && inst.hasDest() && !live.test(inst.dest)) {
            keep[i] = 0;
            ++removed;
            first_removed = i;
            continue;
        }
        // Unpredicated writes kill; predicated ones merge.
        if (inst.hasDest() && !inst.pred.valid())
            live.clear(inst.dest);
        inst.forEachUse([&](Vreg v) { live.set(v); });
    }

    if (removed > 0) {
        std::vector<Instruction> &kept = t.kept;
        kept.clear();
        kept.reserve(bb.insts.size() - removed);
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            if (keep[i])
                kept.push_back(bb.insts[i]);
        }
        bb.insts.swap(kept);
    }
    if (min_touched)
        *min_touched = first_removed;
    return removed;
}

size_t
eliminateDeadCodeFunction(Function &fn, Liveness &liveness)
{
    size_t total = 0;
    DceScratch scratch;
    // Removing uses in one block can make defs in another dead, so
    // iterate; bounded by a few rounds in practice.
    for (int round = 0; round < 8; ++round) {
        if (round > 0)
            liveness.refresh(fn);
        size_t removed = 0;
        for (BlockId id : fn.blockIds()) {
            BasicBlock *bb = fn.block(id);
            removed += eliminateDeadCode(
                *bb, liveness.liveOutOf(fn, *bb), &scratch);
        }
        total += removed;
        if (removed == 0)
            break;
    }
    return total;
}

} // namespace chf
