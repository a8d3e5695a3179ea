#include "transform/optimize.h"

#include <algorithm>
#include <memory>

#include "analysis/liveness.h"
#include "support/timer.h"
#include "transform/copy_prop.h"
#include "transform/dce.h"
#include "transform/gvn.h"
#include "transform/pred_opt.h"

namespace chf {

size_t
optimizeBlock(Function &fn, BasicBlock &bb, const BitVector &live_out,
              BlockOptScratch *scratch)
{
    return optimizeBlockFrom(fn, bb, live_out, 0, scratch, nullptr,
                             nullptr);
}

size_t
optimizeBlockFrom(Function &fn, BasicBlock &bb,
                  const BitVector &live_out, size_t seam_begin,
                  BlockOptScratch *scratch, bool *fixpoint_out,
                  OptPassStats *stats)
{
    BlockOptScratch local;
    BlockOptScratch &t = scratch ? *scratch : local;
    size_t total = 0;
    size_t begin = std::min(seam_begin, bb.insts.size());
    bool fixpoint = false;
    // Two rounds: predicate merging exposes value-numbering hits and
    // vice versa; gains beyond two rounds are negligible.
    for (int round = 0; round < 2; ++round) {
        size_t changes = 0;
        size_t min_pred = bb.insts.size();
        size_t min_dce = bb.insts.size();
        size_t min_coalesce = bb.insts.size();
        if (stats) {
            stats->instsVisited += bb.insts.size() - begin;
            stats->instsTotal += bb.insts.size();
            Timer timer;
            int64_t last = 0;
            auto lap = [&](uint64_t &slot) {
                int64_t now = timer.elapsedMicros();
                slot += static_cast<uint64_t>(now - last);
                last = now;
            };
            changes += copyPropagateBlock(bb, &t.copyProp, begin);
            lap(stats->usCopyProp);
            changes += valueNumberBlock(fn, bb, &t.gvn, begin);
            lap(stats->usGvn);
            changes += optimizePredicates(bb, live_out, &t.predOpt,
                                          begin, &min_pred);
            lap(stats->usPredOpt);
            changes += eliminateDeadCode(bb, live_out, &t.dce,
                                         &min_dce);
            lap(stats->usDce);
            changes += coalesceMoves(bb, live_out, &t.coalesce,
                                     &min_coalesce);
            lap(stats->usCoalesce);
        } else {
            changes += copyPropagateBlock(bb, &t.copyProp, begin);
            changes += valueNumberBlock(fn, bb, &t.gvn, begin);
            changes += optimizePredicates(bb, live_out, &t.predOpt,
                                          begin, &min_pred);
            changes += eliminateDeadCode(bb, live_out, &t.dce,
                                         &min_dce);
            changes += coalesceMoves(bb, live_out, &t.coalesce,
                                     &min_coalesce);
        }
        total += changes;
        if (changes == 0) {
            fixpoint = true;
            break;
        }
        // The copy-prop/GVN rewrites only touch [begin, n); the
        // position-reporting passes may have modified or shifted
        // instructions below it, so the next round's prefix shrinks to
        // the lowest touched position.
        begin = std::min(std::min(begin, min_pred),
                         std::min(min_dce, min_coalesce));
    }
    if (fixpoint_out)
        *fixpoint_out = fixpoint;
    return total;
}

size_t
optimizeFunction(Function &fn)
{
    // One liveness for the whole pipeline, refreshed before each pass
    // that reads it: a pass changes few blocks, and a refresh re-solves
    // only what those changes reach.
    std::unique_ptr<Liveness> liveness;
    auto current_liveness = [&]() -> Liveness & {
        if (liveness)
            liveness->refresh(fn);
        else
            liveness = std::make_unique<Liveness>(fn);
        return *liveness;
    };
    size_t total = 0;
    for (int round = 0; round < 3; ++round) {
        size_t changes = 0;
        changes += copyPropagateFunction(fn);
        changes += valueNumberFunction(fn);
        changes += valueNumberFunctionDominator(fn);
        changes += optimizePredicatesFunction(fn, current_liveness());
        changes += eliminateDeadCodeFunction(fn, current_liveness());
        changes += coalesceMovesFunction(fn, current_liveness());
        total += changes;
        if (changes == 0)
            break;
    }
    return total;
}

} // namespace chf
