/**
 * @file
 * Predicate optimizations (the "dataflow predication" cleanups of
 * Smith et al. the paper applies in its Optimize step):
 *
 * 1. Instruction merging: identical pure instructions guarded by
 *    complementary predicates (p,true)/(p,false) collapse into one
 *    unpredicated instruction, combining code from distinct
 *    control-flow paths.
 *
 * 2. Implicit predication: interior instructions of a predicated
 *    dependence chain drop their predicates when every consumer of the
 *    result is guarded by the same predicate, so only the chain
 *    boundary instructions read the predicate. (The paper predicates
 *    the head of the chain; under this IR's program-order semantics the
 *    guarded boundary is the consumer side -- the predicate-use count
 *    falls identically.)
 */

#ifndef CHF_TRANSFORM_PRED_OPT_H
#define CHF_TRANSFORM_PRED_OPT_H

#include "ir/function.h"
#include "support/bitvector.h"

namespace chf {

class Liveness;

/**
 * Reusable working storage for optimizePredicates, epoch-stamped so a
 * call touches only the registers the block mentions (plus lazily the
 * live-out ones) instead of allocating per-register maps.
 */
struct PredOptScratch
{
    // dropImplicit: per-register reader requirement (lazily seeded
    // from live_out on first touch) and predicate-use flags.
    std::vector<uint8_t> reqKind;   ///< Requirement::Kind as uint8_t
    std::vector<Predicate> reqPred; ///< valid when reqKind == Single
    std::vector<uint32_t> reqStamp;
    std::vector<uint8_t> usedAsPred;
    std::vector<uint32_t> usedStamp;
    // mergeComplementary: set of registers written under a predicate
    // in the dirty region [begin, n) -- a conservative superset of the
    // destinations a prefix instruction could pair with.
    std::vector<uint32_t> dirtyDestStamp;
    uint32_t epoch = 0;
};

/**
 * Optimize predicates in @p bb given the live-out registers.
 *
 * The prefix [0, begin) is known to be at the pass's fixpoint (see
 * optimizeBlockFrom): complementary-merge scanning for a prefix
 * instruction is skipped unless the dirty region writes its
 * destination under a predicate. The implicit-predication walk always
 * covers the whole block (it is driven by live_out, which changes per
 * trial). begin == 0 is the full pass. If @p min_touched is non-null
 * it receives the smallest instruction index whose content or
 * position changed (bb.insts.size() when nothing changed).
 *
 * @return number of instructions merged plus predicates dropped.
 */
size_t optimizePredicates(BasicBlock &bb, const BitVector &live_out,
                          PredOptScratch *scratch = nullptr,
                          size_t begin = 0,
                          size_t *min_touched = nullptr);

/**
 * Apply to every block of @p fn, reading live-outs from @p live, which
 * must be current. @return total changes.
 */
size_t optimizePredicatesFunction(Function &fn, const Liveness &live);

} // namespace chf

#endif // CHF_TRANSFORM_PRED_OPT_H
