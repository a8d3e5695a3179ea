#include "sim/timing_sim.h"

#include <algorithm>

#include "analysis/liveness.h"
#include "support/fatal.h"

namespace chf {

namespace {

/** Functional machine state shared with the timing walk. */
struct Machine
{
    std::vector<int64_t> regs;
    MemoryImage memory;

    int64_t
    value(const Operand &op) const
    {
        switch (op.kind) {
          case Operand::Kind::Reg:
            return regs[op.reg];
          case Operand::Kind::Imm:
            return op.imm;
          case Operand::Kind::None:
            return 0;
        }
        return 0;
    }

    bool
    predicateHolds(const Predicate &pred) const
    {
        if (!pred.valid())
            return true;
        bool truth = regs[pred.reg] != 0;
        return pred.onTrue ? truth : !truth;
    }
};

/** One static instruction, decoded once per run. */
struct DecodedInst
{
    /** Cycles after map before fetch delivers it (floor(i / bandwidth)). */
    double fetchDelay;
    /** opcodeLatency(op). */
    double latency;
    /** Execution tile from the placement. */
    int tile;
    /** Load or store: waits for earlier same-address stores. */
    bool memory;
    /** Writes a register live out of its block (gates commit). */
    bool writesLiveOut;
    /** Instruction::hasDest(). */
    bool hasDest;
    /** opcodeNumSrcs(op). */
    uint8_t numSrcs;
};

/**
 * Everything static about a run: per-instruction records laid out
 * block after block, and the tile-to-tile hop counts.
 */
struct DecodedProgram
{
    /** first[b] .. first[b + 1]: block b's records (empty if removed). */
    std::vector<uint32_t> first;
    std::vector<DecodedInst> insts;
    /** hops[a * numTiles + b] = tileDistance(a, b). */
    std::vector<int> hops;
};

/**
 * Decode @p fn for one run. Blocks missing from @p placement, or whose
 * placement no longer matches their size, are scheduled here with the
 * config's grid. The dense Liveness lives only long enough to extract
 * one live-out bit per instruction, so it is released before the
 * records and the simulation state are allocated.
 */
DecodedProgram
decodeProgram(const Function &fn,
              const std::map<BlockId, Placement> &placement,
              const TimingConfig &config)
{
    DecodedProgram d;
    const size_t table = fn.blockTableSize();
    d.first.assign(table + 1, 0);
    for (BlockId b = 0; b < table; ++b) {
        const BasicBlock *bb = fn.block(b);
        d.first[b + 1] =
            d.first[b] + static_cast<uint32_t>(bb ? bb->size() : 0);
    }

    // A block commits when its architectural outputs are produced:
    // live-out register writes, stores, and the branch. Dead or
    // speculative (falsely-speculated-path) computation does not gate
    // commit -- the EDGE early-completion property (paper §5).
    BitVector writes_live_out(d.first[table]);
    {
        Liveness liveness(fn);
        for (BlockId b = 0; b < table; ++b) {
            const BasicBlock *bb = fn.block(b);
            if (!bb)
                continue;
            const BitVector &out = liveness.liveOut(b);
            for (size_t i = 0; i < bb->insts.size(); ++i) {
                const Instruction &inst = bb->insts[i];
                if (inst.hasDest() && inst.dest < out.size() &&
                    out.test(inst.dest))
                    writes_live_out.set(d.first[b] + i);
            }
        }
    }

    d.insts.resize(d.first[table]);
    for (BlockId b = 0; b < table; ++b) {
        const BasicBlock *bb = fn.block(b);
        if (!bb)
            continue;
        Placement scheduled;
        const Placement *tiles;
        auto it = placement.find(b);
        if (it != placement.end() && it->second.size() == bb->size()) {
            tiles = &it->second;
        } else {
            scheduled = scheduleBlock(*bb, config.grid);
            tiles = &scheduled;
        }
        for (size_t i = 0; i < bb->insts.size(); ++i) {
            const Instruction &inst = bb->insts[i];
            const uint32_t k = d.first[b] + static_cast<uint32_t>(i);
            d.insts[k] = {static_cast<double>(i / config.fetchBandwidth),
                          static_cast<double>(opcodeLatency(inst.op)),
                          (*tiles)[i],
                          opcodeIsMemory(inst.op),
                          writes_live_out.test(k),
                          inst.hasDest(),
                          static_cast<uint8_t>(inst.numSrcs())};
        }
    }

    const int tiles = config.grid.numTiles();
    d.hops.resize(static_cast<size_t>(tiles) * tiles);
    for (int a = 0; a < tiles; ++a) {
        for (int b = 0; b < tiles; ++b)
            d.hops[a * tiles + b] = tileDistance(a, b, config.grid);
    }
    return d;
}

/** Producer of a register's value in the current block instance. */
struct LocalValue
{
    /** Block instance that wrote it last; 0 = none yet. */
    uint32_t stamp = 0;
    int32_t tile = 0;
};

} // namespace

TimingResult
runTiming(const Program &program,
          const std::map<BlockId, Placement> &placement,
          const TimingConfig &config, const std::vector<int64_t> &args)
{
    CHF_ASSERT(config.maxInFlightBlocks >= 1,
               "timing model needs a block window of at least 1");
    const Function &fn = program.fn;
    TimingResult result;

    const DecodedProgram decoded = decodeProgram(fn, placement, config);

    Machine m;
    m.regs.assign(fn.numVregs(), 0);
    m.memory = program.memory;
    const std::vector<int64_t> &actual_args =
        args.empty() ? program.defaultArgs : args;
    CHF_ASSERT(actual_args.size() >= fn.argRegs.size(),
               "too few arguments for program");
    for (size_t i = 0; i < fn.argRegs.size(); ++i)
        m.regs[fn.argRegs[i]] = actual_args[i];

    NextBlockPredictor predictor(config.predictorBits);

    // When each register's current value becomes available (absolute
    // cycles). Register-file reads add regReadLatency at consumption.
    std::vector<double> reg_ready(fn.numVregs(), 0.0);

    // Values produced in the current block instance: those whose stamp
    // equals the instance's. Their completion time is reg_ready[v].
    std::vector<LocalValue> local(fn.numVregs());
    uint32_t stamp = 0;

    // Per-instance state, reset (not reallocated) for every block.
    const int num_tiles = config.grid.numTiles();
    std::vector<double> tile_free(num_tiles);
    // Operand-network injection port per tile (optional model).
    std::vector<double> send_free(num_tiles);
    // Store completion times by exact address: the load/store queue
    // with LSIDs and dependence prediction resolves independent
    // accesses, so only true (same-address) dependences serialize. A
    // block holds few stores, so a linear search beats any map.
    std::vector<std::pair<int64_t, double>> store_done;

    // Commit times of in-flight blocks (window occupancy), as a ring.
    const size_t window = static_cast<size_t>(config.maxInFlightBlocks);
    std::vector<double> in_flight(window);
    size_t in_flight_head = 0, in_flight_count = 0;

    double next_fetch_start = 0.0;
    double last_commit = 0.0;
    bool returned = false;
    BlockId current = fn.entry();

    while (!returned) {
        const BasicBlock *bb = fn.block(current);
        CHF_ASSERT(bb, "timing simulation reached a removed block");
        if (result.blocksExecuted >= config.maxBlocks)
            fatal("timing simulation exceeded block budget");
        const DecodedInst *code = &decoded.insts[decoded.first[current]];

        // --- Fetch/map: window slot + dispatch pipelining ---
        double fetch_start = next_fetch_start;
        if (in_flight_count >= window) {
            fetch_start = std::max(fetch_start, in_flight[in_flight_head]);
            in_flight_head = (in_flight_head + 1) % window;
            --in_flight_count;
        }
        double map_done = fetch_start + config.fetchMapLatency;

        // --- Dataflow execution of the fired instructions ---
        if (++stamp == 0) { // wrapped: forget every old producer
            std::fill(local.begin(), local.end(), LocalValue{});
            stamp = 1;
        }
        std::fill(tile_free.begin(), tile_free.end(), 0.0);
        std::fill(send_free.begin(), send_free.end(), 0.0);
        store_done.clear();
        double outputs_done = map_done;
        double branch_resolve = map_done;
        BlockId next = kNoBlock;
        size_t fired_branches = 0;

        result.instsFetched += bb->size();
        ++result.blocksExecuted;

        for (size_t i = 0; i < bb->insts.size(); ++i) {
            const Instruction &inst = bb->insts[i];
            if (!m.predicateHolds(inst.pred))
                continue;
            ++result.instsExecuted;
            const DecodedInst &d = code[i];
            const int tile = d.tile;

            double eligible = map_done + d.fetchDelay;

            // Operand arrival: in-block producers pay hop latency;
            // cross-block values pay the register read latency.
            double ready = eligible;
            auto use = [&](Vreg v) {
                const LocalValue &lv = local[v];
                if (lv.stamp == stamp) {
                    const int src_tile = lv.tile;
                    int hops = decoded.hops[src_tile * num_tiles + tile];
                    double send = reg_ready[v];
                    if (config.modelNetworkContention && hops > 0) {
                        send = std::max(send, send_free[src_tile]);
                        send_free[src_tile] = send + 1.0;
                    }
                    ready = std::max(ready, send + hops);
                } else {
                    ready = std::max(ready, reg_ready[v] +
                                                config.regReadLatency);
                }
            };
            // Instruction::forEachUse order: sources, then predicate.
            for (int k = 0; k < d.numSrcs; ++k) {
                if (inst.srcs[k].isReg())
                    use(inst.srcs[k].reg);
            }
            if (inst.pred.valid())
                use(inst.pred.reg);

            int64_t addr = 0;
            std::pair<int64_t, double> *prior_store = nullptr;
            if (d.memory) {
                addr = m.value(inst.srcs[0]) + m.value(inst.srcs[1]);
                for (auto &st : store_done) {
                    if (st.first == addr) {
                        prior_store = &st;
                        ready = std::max(ready, st.second);
                        break;
                    }
                }
            }

            double issue = std::max(ready, tile_free[tile]);
            tile_free[tile] = issue + 1.0;
            double done = issue + d.latency;

            // Functional effect.
            switch (inst.op) {
              case Opcode::Load:
                m.regs[inst.dest] = m.memory.read(addr);
                break;
              case Opcode::Store:
                m.memory.write(addr, m.value(inst.srcs[2]));
                if (prior_store)
                    prior_store->second = done;
                else
                    store_done.emplace_back(addr, done);
                outputs_done = std::max(outputs_done, done);
                break;
              case Opcode::Br:
                ++fired_branches;
                next = inst.target;
                branch_resolve = done;
                outputs_done = std::max(outputs_done, done);
                break;
              case Opcode::Ret:
                ++fired_branches;
                returned = true;
                result.returnValue = m.value(inst.srcs[0]);
                branch_resolve = done;
                outputs_done = std::max(outputs_done, done);
                break;
              default:
                m.regs[inst.dest] =
                    evalOpcode(inst.op, m.value(inst.srcs[0]),
                               m.value(inst.srcs[1]));
                break;
            }

            if (d.hasDest) {
                local[inst.dest] = {stamp, tile};
                // Forward to younger blocks as produced.
                reg_ready[inst.dest] = done;
                if (d.writesLiveOut)
                    outputs_done = std::max(outputs_done, done);
            }
        }

        if (fired_branches != 1) {
            panic(concat("timing sim: block bb", current, " fired ",
                         fired_branches, " branches"));
        }

        // --- Commit: in order, one block per cycle ---
        double commit = std::max(outputs_done + config.commitLatency,
                                 last_commit + 1.0);
        last_commit = commit;
        in_flight[(in_flight_head + in_flight_count) % window] = commit;
        ++in_flight_count;

        if (returned) {
            result.cycles = static_cast<uint64_t>(commit);
            break;
        }

        // --- Next-block prediction ---
        BlockId predicted = predictor.predict(current);
        predictor.update(current, next);
        ++result.branchPredictions;
        if (predicted == next) {
            next_fetch_start =
                fetch_start + config.blockDispatchInterval;
        } else {
            ++result.branchMispredicts;
            next_fetch_start = branch_resolve + config.mispredictPenalty;
        }

        current = next;
    }

    result.memoryHash = m.memory.hash();
    return result;
}

TimingResult
runTiming(const Program &program, const TimingConfig &config,
          const std::vector<int64_t> &args)
{
    auto placement = scheduleFunction(program.fn, config.grid);
    return runTiming(program, placement, config, args);
}

} // namespace chf
