/**
 * @file
 * Fanout insertion (paper Fig. 6).
 *
 * TRIPS instructions encode at most two consumer targets; a value with
 * more consumers needs a tree/chain of mov instructions to replicate
 * it. This pass inserts those moves after each over-subscribed
 * producer and rewires the extra consumers, adding both the
 * instruction count and the serialization latency the size estimator
 * predicted during formation.
 */

#ifndef CHF_BACKEND_FANOUT_H
#define CHF_BACKEND_FANOUT_H

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/function.h"

namespace chf {

/** Maximum consumers a producer can target directly. */
constexpr size_t kMaxTargets = 2;

/**
 * Reusable tables for insertFanout, flat instead of ordered maps:
 * provider[v] is the index of the instruction that currently provides
 * register v (valid iff stamp[v] == epoch, so a rescan starts with one
 * increment), and consumers[i] lists producer i's in-block reads as
 * (instruction index, operand slot), slot -1 being the predicate.
 */
struct FanoutScratch
{
    std::vector<size_t> provider;
    std::vector<uint32_t> stamp;
    uint32_t epoch = 0;
    std::vector<std::vector<std::pair<size_t, int>>> consumers;
};

/** Insert fanout moves in @p bb. @return moves inserted. */
size_t insertFanout(Function &fn, BasicBlock &bb,
                    FanoutScratch *scratch = nullptr);

/** Insert fanout moves everywhere. @return total moves. */
size_t insertFanoutFunction(Function &fn);

} // namespace chf

#endif // CHF_BACKEND_FANOUT_H
