#include "backend/scheduler.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>

namespace chf {

int
tileDistance(int a, int b, const SchedulerOptions &options)
{
    int ax = a % options.gridWidth, ay = a / options.gridWidth;
    int bx = b % options.gridWidth, by = b / options.gridWidth;
    return std::abs(ax - bx) + std::abs(ay - by);
}

Placement
scheduleBlock(const BasicBlock &bb, const SchedulerOptions &options)
{
    const int tiles = options.numTiles();
    const int width = options.gridWidth;
    Placement placement(bb.size(), 0);
    std::vector<size_t> used(tiles, 0);
    std::vector<double> tile_free(tiles, 0.0);

    // Ready time and placement of the latest producer per register.
    std::map<Vreg, std::pair<double, int>> producer;

    // In-block producers of the current instruction's operands, looked
    // up once and scored against every tile.
    struct Source
    {
        double done;
        int x, y;
    };
    std::array<Source, 4> sources; // 3 sources + predicate

    for (size_t i = 0; i < bb.insts.size(); ++i) {
        const Instruction &inst = bb.insts[i];

        size_t num_sources = 0;
        inst.forEachUse([&](Vreg v) {
            auto it = producer.find(v);
            if (it != producer.end()) {
                const int tile = it->second.second;
                sources[num_sources++] = {it->second.first, tile % width,
                                          tile / width};
            }
        });

        // Evaluate each tile: the instruction can issue once all its
        // operands have arrived (producer done + hop latency) and the
        // tile is free.
        int best_tile = -1;
        double best_start = 0.0;
        for (int t = 0, tx = 0, ty = 0; t < tiles; ++t) {
            bool full = used[t] >= options.slotsPerTile;
            double start = tile_free[t];
            for (size_t k = 0; k < num_sources; ++k) {
                const Source &src = sources[k];
                double arrival = src.done + (std::abs(src.x - tx) +
                                             std::abs(src.y - ty));
                start = std::max(start, arrival);
            }
            if (++tx == width) {
                tx = 0;
                ++ty;
            }
            // Prefer non-full tiles; among them the earliest start,
            // breaking ties toward lower occupancy to spread load.
            if (best_tile < 0 && !full) {
                best_tile = t;
                best_start = start;
                continue;
            }
            if (!full &&
                (start < best_start ||
                 (start == best_start && used[t] < used[best_tile]))) {
                best_tile = t;
                best_start = start;
            }
        }
        if (best_tile < 0) {
            // All tiles nominally full (block larger than the window
            // slice); fall back to the least-used tile.
            best_tile = static_cast<int>(
                std::min_element(used.begin(), used.end()) -
                used.begin());
            best_start = tile_free[best_tile];
        }

        placement[i] = best_tile;
        used[best_tile]++;
        double done = best_start + opcodeLatency(inst.op);
        tile_free[best_tile] = best_start + 1.0; // one issue per cycle
        if (inst.hasDest())
            producer[inst.dest] = {done, best_tile};
    }
    return placement;
}

std::map<BlockId, Placement>
scheduleFunction(const Function &fn, const SchedulerOptions &options)
{
    std::map<BlockId, Placement> out;
    for (BlockId id : fn.blockIds())
        out.emplace_hint(out.end(), id,
                         scheduleBlock(*fn.block(id), options));
    return out;
}

} // namespace chf
