/**
 * @file
 * Dead code elimination.
 *
 * Removes pure instructions whose destination is not read before being
 * killed and is not live out of the block. Predication is respected: a
 * predicated write does not kill the old value.
 */

#ifndef CHF_TRANSFORM_DCE_H
#define CHF_TRANSFORM_DCE_H

#include "ir/function.h"
#include "support/bitvector.h"

namespace chf {

class Liveness;

/** Reusable working storage for eliminateDeadCode. */
struct DceScratch
{
    BitVector live;
    std::vector<uint8_t> keep;
    std::vector<Instruction> kept;
};

/**
 * Remove dead pure instructions from @p bb given the registers live on
 * exit. If @p min_touched is non-null it receives the smallest
 * removed instruction index (bb.insts.size() when nothing was
 * removed) -- instructions below it kept both content and position,
 * which is the watermark input for seam-scoped re-optimization.
 * @return number of instructions removed.
 */
size_t eliminateDeadCode(BasicBlock &bb, const BitVector &live_out,
                         DceScratch *scratch = nullptr,
                         size_t *min_touched = nullptr);

/**
 * Whole-function DCE to a fixed point (removing a use can kill an
 * upstream def in another block), starting from @p live, which must be
 * current; it is refreshed (Liveness::refresh) between rounds.
 * @return total removed.
 */
size_t eliminateDeadCodeFunction(Function &fn, Liveness &live);

} // namespace chf

#endif // CHF_TRANSFORM_DCE_H
