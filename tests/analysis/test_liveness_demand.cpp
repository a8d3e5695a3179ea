/**
 * @file
 * Demand-driven liveness (DESIGN.md §6) and the linear backend rewrites
 * that ride with it.
 *
 *  - Differential: during formation, every live-in set a trial can
 *    query through the AnalysisManager -- the targets of the seed
 *    block and of every candidate, and the seed itself -- must equal a
 *    from-scratch Liveness of the function at that moment, at every
 *    step, on synth64 and on generated programs (default, irreducible
 *    and melded shapes), serially and with speculative parallel trials.
 *  - Complexity pin, on counts rather than wall time: liveness work
 *    per trial (block sets solved, whole-function builds included, and
 *    reachability re-walks) must not grow with the function (synth256
 *    vs synth64).
 *  - Liveness::refresh picks up unreported edits exactly.
 *  - Register allocation rewrites a block once for all spilled values
 *    with a fixed layout: reloads in reverse spill order, the body,
 *    stores in spill order.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "analysis/liveness.h"
#include "backend/regalloc.h"
#include "hyperblock/convergent.h"
#include "hyperblock/merge.h"
#include "hyperblock/phase_ordering.h"
#include "hyperblock/policy.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "sim/functional_sim.h"
#include "support/thread_pool.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf {
namespace {

/**
 * Breadth-first selection that first checks, against a fresh solve,
 * every live-in the upcoming trial may read. select() runs after each
 * commit and before each trial, on the compiling thread, so these are
 * the engine's own demand-driven queries at the point it makes them.
 */
class CheckingPolicy : public BreadthFirstPolicy
{
  public:
    explicit CheckingPolicy(MergeEngine &engine) : engine(engine) {}

    int
    select(const Function &fn, BlockId hb,
           const std::vector<MergeCandidate> &candidates) override
    {
        Liveness fresh(fn);
        auto check = [&](BlockId b) {
            ++checks;
            std::vector<uint32_t> got =
                engine.analyses().liveIn(b).bits();
            std::vector<uint32_t> want = fresh.liveIn(b).bits();
            if (got != want) {
                ++mismatches;
                ADD_FAILURE() << "live-in of bb" << b << " differs after "
                              << engine.stats().get("blocksMerged")
                              << " merges (seed bb" << hb << ")";
            }
        };
        auto check_targets = [&](BlockId b) {
            for (BlockId t : fn.block(b)->successors())
                check(t);
        };
        check(hb);
        check_targets(hb);
        for (const MergeCandidate &c : candidates)
            check_targets(c.block);
        return BreadthFirstPolicy::select(fn, hb, candidates);
    }

    size_t checks = 0;
    size_t mismatches = 0;

  private:
    MergeEngine &engine;
};

struct Formed
{
    std::string ir;
    size_t checks = 0;
    int64_t merges = 0;
};

/** Form @p prepared over every seed; @p checked selects through the
 *  CheckingPolicy, @p workers >= 2 runs on a pool (speculative trials). */
Formed
form(const Program &prepared, bool checked, size_t workers = 0)
{
    Function fn = prepared.fn.clone();
    Formed out;
    auto run = [&] {
        MergeEngine engine(fn, MergeOptions{});
        CheckingPolicy checking(engine);
        BreadthFirstPolicy plain;
        Policy &policy = checked ? static_cast<Policy &>(checking)
                                 : static_cast<Policy &>(plain);
        for (BlockId seed : fn.reversePostOrder()) {
            if (fn.block(seed))
                expandBlock(engine, policy, seed);
        }
        // End state: everything still pending solves exactly too.
        Liveness fresh(fn);
        const Liveness &cached = engine.analyses().liveness();
        for (BlockId id : fn.blockIds())
            EXPECT_EQ(cached.liveIn(id).bits(), fresh.liveIn(id).bits())
                << "final live-in of bb" << id;
        out.checks = checking.checks;
        out.merges = engine.stats().get("blocksMerged");
    };
    if (workers >= 2) {
        WorkStealingPool pool(workers);
        pool.submit(run);
        pool.waitIdle();
    } else {
        run();
    }
    fn.removeUnreachable();
    out.ir = toString(fn);
    return out;
}

Program
preparedSynth(int regions)
{
    Program p = buildWorkload(synthFormationWorkload(regions));
    prepareProgram(p);
    return p;
}

Program
preparedGenerated(const std::string &shape_name, uint64_t seed)
{
    GeneratorShape shape;
    EXPECT_TRUE(namedShape(shape_name, &shape)) << shape_name;
    Program p = buildGenerated(generateTinyC(seed, shape));
    prepareProgram(p);
    return p;
}

void
expectQueriesExact(const Program &prepared, const std::string &what)
{
    Formed checked = form(prepared, true);
    Formed plain = form(prepared, false);
    EXPECT_GT(checked.checks, 0u) << what;
    EXPECT_GT(checked.merges, 0) << what;
    // Observing the queries must not perturb formation.
    EXPECT_EQ(checked.ir, plain.ir) << what;
    EXPECT_EQ(checked.merges, plain.merges) << what;
}

TEST(DemandLiveness, QueriesMatchFreshSolveOnSynth64)
{
    expectQueriesExact(preparedSynth(64), "synth64");
}

TEST(DemandLiveness, QueriesMatchFreshSolveOnGeneratedShapes)
{
    for (const char *shape : {"default", "irreducible", "melded"}) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            expectQueriesExact(preparedGenerated(shape, seed),
                               std::string(shape) + " seed " +
                                   std::to_string(seed));
        }
    }
}

TEST(DemandLiveness, QueriesMatchFreshSolveWithParallelTrials)
{
    // Speculative rounds freeze the manager (beginConcurrentReads
    // materializes the full solution) between demand-driven queries.
    for (const char *shape : {"default", "irreducible"}) {
        Program p = preparedGenerated(shape, 2);
        Formed serial = form(p, true);
        Formed pooled = form(p, true, 4);
        EXPECT_GT(pooled.checks, 0u) << shape;
        EXPECT_EQ(pooled.ir, serial.ir) << shape;
    }
}

/** Formation counters for one synth function (backend off). */
StatSet
formationStats(int regions)
{
    // Trial cache off: memo hits left by earlier formations in this
    // process would skip trials and skew the per-trial ratio.
    Program p = preparedSynth(regions);
    BreadthFirstPolicy policy;
    FormationOptions options;
    options.merge.useTrialCache = false;
    return formHyperblocks(p.fn, policy, options).stats;
}

TEST(DemandLiveness, SolvedBlocksPerTrialFlatFromSynth64ToSynth256)
{
    // A trial re-solves only the pending region its queries reach (a
    // loop body here), not the function: the per-trial count must stay
    // flat as the function grows 4x. The count charges every block the
    // solver touches, whole-function builds and reachability re-walks
    // included, so a fall back to per-trial rebuilds or to the old
    // eager update (which re-walked every block that could reach the
    // merge) is O(function) per trial and fails here.
    auto per_trial = [](const StatSet &s) {
        double trials = static_cast<double>(s.get("trialsRun"));
        EXPECT_GT(trials, 0);
        EXPECT_GT(s.get("livenessQueries"), 0);
        return static_cast<double>(s.get("livenessBlocksSolved")) /
               trials;
    };
    double small = per_trial(formationStats(64));
    double large = per_trial(formationStats(256));
    EXPECT_GT(small, 0.0);
    EXPECT_LE(large, 2.0 * small)
        << "synth64 " << small << " vs synth256 " << large
        << " blocks solved per trial";
}

TEST(DemandLiveness, RefreshPicksUpUnreportedEdits)
{
    Program p = preparedSynth(4);
    Function &fn = p.fn;
    Liveness live(fn);

    // Add a use of a fresh register to one block and a def of it to
    // the entry, without telling the analysis; refresh must see both.
    Vreg v = fn.newVreg();
    std::vector<BlockId> ids = fn.blockIds();
    BlockId user = ids[ids.size() / 2];
    BasicBlock *bb = fn.block(user);
    bb->insts.insert(bb->insts.begin(),
                     Instruction::binary(Opcode::Add, fn.newVreg(),
                                         Operand::makeReg(v),
                                         Operand::makeImm(1)));
    BasicBlock *entry = fn.block(fn.entry());
    entry->insts.insert(entry->insts.begin(),
                        Instruction::unary(Opcode::Mov, v,
                                           Operand::makeImm(5)));
    live.refresh(fn);

    Liveness fresh(fn);
    EXPECT_FALSE(live.anyPending());
    EXPECT_GE(live.universe(), fn.numVregs());
    EXPECT_TRUE(live.liveIn(user).test(v));
    for (BlockId id : fn.blockIds()) {
        EXPECT_EQ(live.liveIn(id).bits(), fresh.liveIn(id).bits())
            << "live-in of bb" << id;
        EXPECT_EQ(live.liveOut(id).bits(), fresh.liveOut(id).bits())
            << "live-out of bb" << id;
    }
}

// ----- One-pass spill rewrite -----

TEST(RegAllocSpill, OneBlockRewriteLayoutAndSemantics)
{
    // Four cross-block values a > b > c > d by use count (8, 6, 5, 4
    // uses and defs, all blocks at frequency 1); with one
    // physical register, a keeps it and b, c, d spill in that order to
    // slots base+0, base+1, base+2. The middle block reads all three
    // spilled values, redefines b unconditionally and d under a
    // predicate, so it needs three reloads and two stores.
    Program p;
    Function &fn = p.fn;
    IRBuilder b(fn);
    BlockId entry = b.makeBlock("entry");
    BlockId mid = b.makeBlock("mid");
    BlockId exit = b.makeBlock("exit");
    fn.setEntry(entry);

    Vreg a = fn.newVreg(), vb = fn.newVreg(), vc = fn.newVreg(),
         vd = fn.newVreg();
    b.setBlock(entry);
    b.movTo(a, IRBuilder::imm(10));
    b.movTo(vb, IRBuilder::imm(20));
    b.movTo(vc, IRBuilder::imm(30));
    b.movTo(vd, IRBuilder::imm(40));
    b.br(mid);

    b.setBlock(mid);
    Vreg t1 = b.add(IRBuilder::r(vb), IRBuilder::r(vc));
    Vreg t2 = b.add(IRBuilder::r(t1), IRBuilder::r(vd));
    b.emit(Instruction::binary(Opcode::Add, vb, IRBuilder::r(t2),
                               IRBuilder::imm(1)));
    Vreg p1 = b.binary(Opcode::Tlt, IRBuilder::r(t2), IRBuilder::imm(100));
    Instruction pred_def =
        Instruction::unary(Opcode::Mov, vd, IRBuilder::imm(7));
    pred_def.pred = Predicate::onReg(p1, true);
    b.emit(pred_def);
    b.br(exit);

    b.setBlock(exit);
    Vreg s = b.add(IRBuilder::r(a), IRBuilder::r(a));
    for (int i = 0; i < 5; ++i)
        s = b.add(IRBuilder::r(s), IRBuilder::r(a));
    for (int i = 0; i < 3; ++i) {
        s = b.add(IRBuilder::r(s), IRBuilder::r(vb));
        s = b.add(IRBuilder::r(s), IRBuilder::r(vc));
    }
    s = b.add(IRBuilder::r(s), IRBuilder::r(vd));
    b.ret(IRBuilder::r(s));

    // a = 10 (x7), b = 20 + 30 + 40 + 1 (x3), c = 30 (x3), and d = 7:
    // the predicated redefinition fires (90 < 100).
    const int64_t expected = 10 * 7 + 91 * 3 + 30 * 3 + 7;
    ASSERT_EQ(runFunctional(p).returnValue, expected);
    size_t body = fn.block(mid)->insts.size();

    RegAllocOptions options;
    options.numPhysRegs = 1;
    RegAllocResult result = allocateRegisters(p, options);
    ASSERT_EQ(result.spilledValues, 3u);
    EXPECT_EQ(result.assignment.count(a), 1u);
    ASSERT_EQ(result.blocksSplit, 0u);
    const int64_t base = p.memory.region("spill").base;

    const std::vector<Instruction> &insts = fn.block(mid)->insts;
    ASSERT_EQ(insts.size(), 3 + body + 2);
    // Reloads first, in reverse spill order.
    const Vreg reload_regs[] = {vd, vc, vb};
    for (int i = 0; i < 3; ++i) {
        const Instruction &ld = insts[i];
        EXPECT_EQ(ld.op, Opcode::Load) << i;
        EXPECT_EQ(ld.dest, reload_regs[i]) << i;
        EXPECT_EQ(ld.srcs[0].imm, base + 2 - i) << i;
    }
    // The original body, untouched, in between.
    EXPECT_EQ(insts[3].dest, t1);
    EXPECT_EQ(insts[3 + body - 1].op, Opcode::Br);
    // Stores last, in spill order: b (unconditional redef) then d
    // (predicated redef); c is not written here.
    const Instruction &st_b = insts[3 + body];
    const Instruction &st_d = insts[3 + body + 1];
    EXPECT_EQ(st_b.op, Opcode::Store);
    EXPECT_EQ(st_b.srcs[0].imm, base + 0);
    EXPECT_EQ(st_b.srcs[2].reg, vb);
    EXPECT_EQ(st_d.op, Opcode::Store);
    EXPECT_EQ(st_d.srcs[0].imm, base + 2);
    EXPECT_EQ(st_d.srcs[2].reg, vd);

    EXPECT_EQ(runFunctional(p).returnValue, expected);
}

} // namespace
} // namespace chf
