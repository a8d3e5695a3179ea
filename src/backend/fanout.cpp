#include "backend/fanout.h"

#include <algorithm>

namespace chf {

size_t
insertFanout(Function &fn, BasicBlock &bb, FanoutScratch *scratch)
{
    // Collect, per producing instruction index, its in-block consumer
    // positions (src or predicate reads) up to the next redefinition.
    // Values read from outside the block (live-ins) arrive through the
    // register file, which broadcasts; only in-block producers fan out.
    FanoutScratch local;
    FanoutScratch &t = scratch ? *scratch : local;
    std::vector<size_t> &provider = t.provider;
    std::vector<uint32_t> &stamp = t.stamp;
    auto &consumers = t.consumers;
    size_t moves = 0;
    bool changed = true;

    // One mov is inserted per rescan (indices go stale); the guard
    // bounds pathological blocks.
    int guard = 0;
    while (changed && guard++ < 4096) {
        changed = false;
        if (++t.epoch == 0) {
            // Stamp wraparound (2^32 rescans): flush everything once.
            std::fill(stamp.begin(), stamp.end(), 0u);
            t.epoch = 1;
        }
        const uint32_t epoch = t.epoch;
        if (stamp.size() < fn.numVregs()) {
            stamp.resize(fn.numVregs(), 0);
            provider.resize(fn.numVregs(), 0);
        }
        if (consumers.size() < bb.insts.size())
            consumers.resize(bb.insts.size());
        for (size_t i = 0; i < bb.insts.size(); ++i)
            consumers[i].clear();

        auto consume = [&](Vreg v, size_t i, int slot) {
            if (v < stamp.size() && stamp[v] == epoch)
                consumers[provider[v]].emplace_back(i, slot);
        };
        for (size_t i = 0; i < bb.insts.size(); ++i) {
            const Instruction &inst = bb.insts[i];
            for (int s = 0; s < inst.numSrcs(); ++s) {
                if (inst.srcs[s].isReg())
                    consume(inst.srcs[s].reg, i, s);
            }
            if (inst.pred.valid())
                consume(inst.pred.reg, i, -1);
            if (inst.hasDest() && inst.dest < stamp.size()) {
                provider[inst.dest] = i;
                stamp[inst.dest] = epoch;
            }
        }

        // Find the first over-subscribed producer. Rather than peeling
        // one consumer per mov (a latency-linear chain), split the
        // consumer set in half across two movs; recursion over rescans
        // yields a balanced tree of logarithmic depth, matching the
        // fanout trees a real EDGE scheduler builds.
        for (size_t prod_idx = 0; prod_idx < bb.insts.size();
             ++prod_idx) {
            auto &uses = consumers[prod_idx];
            if (uses.size() <= kMaxTargets)
                continue;

            Vreg orig = bb.insts[prod_idx].dest;
            auto rewire = [&](size_t from, size_t to, Vreg copy) {
                for (size_t u = from; u < to; ++u) {
                    auto [ci, slot] = uses[u];
                    Instruction &consumer = bb.insts[ci];
                    if (slot < 0)
                        consumer.pred.reg = copy;
                    else
                        consumer.srcs[slot] = Operand::makeReg(copy);
                }
            };

            if (uses.size() <= kMaxTargets + 1) {
                // One mov suffices: producer keeps the first consumer,
                // the mov serves the rest.
                Vreg copy = fn.newVreg();
                rewire(kMaxTargets - 1, uses.size(), copy);
                bb.insts.insert(bb.insts.begin() +
                                    static_cast<long>(prod_idx) + 1,
                                Instruction::unary(
                                    Opcode::Mov, copy,
                                    Operand::makeReg(orig)));
                ++moves;
            } else {
                // Two movs, half the consumers each; deeper levels are
                // handled when the rescan finds the movs themselves
                // over-subscribed.
                Vreg left = fn.newVreg();
                Vreg right = fn.newVreg();
                size_t half = uses.size() / 2;
                rewire(0, half, left);
                rewire(half, uses.size(), right);
                bb.insts.insert(
                    bb.insts.begin() + static_cast<long>(prod_idx) + 1,
                    Instruction::unary(Opcode::Mov, right,
                                       Operand::makeReg(orig)));
                bb.insts.insert(
                    bb.insts.begin() + static_cast<long>(prod_idx) + 1,
                    Instruction::unary(Opcode::Mov, left,
                                       Operand::makeReg(orig)));
                moves += 2;
            }
            changed = true;
            break; // indices are stale; rescan
        }
    }
    return moves;
}

size_t
insertFanoutFunction(Function &fn)
{
    FanoutScratch scratch;
    size_t total = 0;
    for (BlockId id : fn.blockIds())
        total += insertFanout(fn, *fn.block(id), &scratch);
    return total;
}

} // namespace chf
