#include "hyperblock/merge.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "support/fatal.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "support/timer.h"
#include "transform/cfg_utils.h"
#include "transform/reverse_if_convert.h"

namespace chf {

const char *
mergeKindName(MergeKind kind)
{
    switch (kind) {
      case MergeKind::Simple: return "simple";
      case MergeKind::TailDup: return "tail-dup";
      case MergeKind::Peel: return "peel";
      case MergeKind::Unroll: return "unroll";
    }
    return "?";
}

bool
MergeEngine::trialCacheEnabledByEnv()
{
    const char *env = std::getenv("CHF_TRIAL_CACHE");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

bool
MergeEngine::parallelTrialsEnabledByEnv()
{
    const char *env = std::getenv("CHF_PARALLEL_TRIALS");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

bool
MergeEngine::incrementalOptEnabledByEnv()
{
    const char *env = std::getenv("CHF_INCR_OPT");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

MergeEngine::MergeEngine(Function &fn, const MergeOptions &options)
    : fn(fn), opts(options),
      am(fn, options.useAnalysisCache &&
             AnalysisManager::cacheEnabledByEnv()),
      fastPath(options.useTrialCache && trialCacheEnabledByEnv()),
      parallelEnabled(options.parallelTrials &&
                      parallelTrialsEnabledByEnv()),
      incrOpt(options.incrementalOpt && incrementalOptEnabledByEnv())
{
}

void
MergeEngine::invalidateFixpoints()
{
    std::fill(fixpointKnown.begin(), fixpointKnown.end(),
              static_cast<uint8_t>(0));
}

const StatSet &
MergeEngine::stats() const
{
    if (trialTimes.ran) {
        counters.set("usMergeCombine", trialTimes.combineNs / 1000);
        counters.set("usMergeLegal", trialTimes.legalNs / 1000);
    }
    if (trialTimes.optimized) {
        counters.set("usMergeOptimize", trialTimes.optimizeNs / 1000);
        const OptPassStats &o = trialTimes.opt;
        counters.set("usOptCopyProp", static_cast<int64_t>(o.usCopyProp));
        counters.set("usOptGvn", static_cast<int64_t>(o.usGvn));
        counters.set("usOptPredOpt", static_cast<int64_t>(o.usPredOpt));
        counters.set("usOptDce", static_cast<int64_t>(o.usDce));
        counters.set("usOptCoalesce",
                     static_cast<int64_t>(o.usCoalesce));
        counters.set("optSeamVisited",
                     static_cast<int64_t>(o.instsVisited));
        counters.set("optSeamTotal", static_cast<int64_t>(o.instsTotal));
    }
    return counters;
}

bool
MergeEngine::parallelTrialsActive() const
{
    // The fast path supplies the machinery speculation rides on (memo
    // keys, persistent arenas, epoch-stable candidate descriptors);
    // block splitting mutates the CFG on *failed* trials, which breaks
    // the trials-are-side-effect-free premise. Both force serial.
    if (!parallelEnabled || !fastPath || opts.enableBlockSplitting)
        return false;
    WorkStealingPool *pool = WorkStealingPool::current();
    return pool != nullptr && pool->workerCount() >= 2;
}

size_t
MergeEngine::speculationWidth() const
{
    if (!parallelTrialsActive())
        return 0;
    // Speculating deeper than ~2x the worker count mostly buys wasted
    // work when an early candidate commits; shallower leaves workers
    // idle on long failure chains.
    return std::max<size_t>(4,
                            2 * WorkStealingPool::current()->workerCount());
}

namespace {

/**
 * Natural-loop header test from dominators and predecessors alone: a
 * block is a header iff some reachable predecessor's edge into it is a
 * back edge. Equivalent to LoopInfo::isLoopHeader but avoids building
 * (and re-building, after every committed merge) the loop bodies the
 * classifier never looks at.
 */
bool
isNaturalLoopHeader(const DominatorTree &dom, const PredecessorMap &preds,
                    BlockId s)
{
    if (s >= preds.size())
        return false;
    for (BlockId p : preds[s]) {
        if (dom.reachable(p) && dom.dominates(s, p))
            return true;
    }
    return false;
}

/** Stream one instruction into the trial hash, freq bits included.
 *  Fields are packed into whole words (hashing runs once per trial
 *  over both participants, so it is per-instruction hot). */
void
hashInstruction(Hash64 &h, const Instruction &inst)
{
    h.word(static_cast<uint64_t>(inst.op) |
           static_cast<uint64_t>(inst.pred.onTrue ? 1 : 0) << 8 |
           static_cast<uint64_t>(inst.dest) << 32);
    h.word(static_cast<uint64_t>(inst.pred.reg) |
           static_cast<uint64_t>(inst.target) << 32);
    for (const Operand &src : inst.srcs) {
        h.word(static_cast<uint64_t>(src.kind) |
               static_cast<uint64_t>(src.reg) << 32);
        h.word(static_cast<uint64_t>(src.imm));
    }
    uint64_t freq_bits;
    std::memcpy(&freq_bits, &inst.freq, sizeof(freq_bits));
    h.word(freq_bits);
}

void
hashBlockContents(Hash64 &h, const BasicBlock &bb)
{
    h.u32(bb.id());
    h.u64(bb.insts.size());
    for (const Instruction &inst : bb.insts)
        hashInstruction(h, inst);
}

/** A memoized failed trial: the reason it failed (interned, see
 *  internReason) and how many vregs the failing combine allocated
 *  (replayed on hit). */
struct FailedTrial
{
    const std::string *reason = nullptr;
    uint32_t vregsBurned = 0;
};

/**
 * Failure reasons come from a small vocabulary (a few legality
 * messages over a narrow range of counts), while the memo holds one
 * entry per distinct failed trial for the life of the process. Entries
 * point into this pool instead of owning a string each, which keeps an
 * entry at a third of the size. Strings are never erased, and
 * unordered_set nodes never move, so the pointers stay valid.
 */
const std::string *
internReason(const std::string &reason)
{
    static std::mutex mu;
    static std::unordered_set<std::string> pool;
    std::lock_guard<std::mutex> lock(mu);
    return &*pool.insert(reason).first;
}

/** Total entry capacity; one entry is ~50 bytes with its hash-table
 *  node, so this caps resident memo memory near 50 MB. */
constexpr size_t kTrialMemoCapacity = size_t(1) << 20;

/** Striped-lock shard count. 64 shards keep lock hold times (a hash
 *  probe) uncontended even with every pool worker storing speculative
 *  failures at once; the shard index comes from the key's top bits so
 *  the hash's well-mixed high half spreads entries evenly. */
constexpr size_t kTrialMemoShards = 64;
constexpr size_t kTrialMemoShardCap = kTrialMemoCapacity / kTrialMemoShards;

/**
 * Process-wide failed-trial store, sharded. The key covers every input
 * a trial reads (contents, kind, constraint config, live-out context),
 * so an entry recorded by one engine answers identically for any other
 * -- including engines on other Session worker threads and speculative
 * trial tasks, which is why every shard is mutex-guarded. Hits never
 * change output bytes (the stored reason and vreg burn are exactly
 * what re-running the trial would produce), so racy hit/miss
 * interleavings stay deterministic. Overflow flushes one shard, not
 * the whole store, and the counters make eviction thrashing visible
 * (trialMemoStats / Session totals / pass_speed JSON).
 */
struct TrialMemoShard
{
    std::mutex mu;
    std::unordered_map<uint64_t, FailedTrial> map;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

struct TrialMemoStore
{
    std::array<TrialMemoShard, kTrialMemoShards> shards;

    TrialMemoShard &
    shardFor(uint64_t key)
    {
        return shards[(key >> 58) % kTrialMemoShards];
    }
};

TrialMemoStore &
trialMemo()
{
    static TrialMemoStore store;
    return store;
}

bool
lookupFailedTrial(uint64_t key, FailedTrial *out)
{
    TrialMemoShard &shard = trialMemo().shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        ++shard.misses;
        return false;
    }
    ++shard.hits;
    *out = it->second;
    return true;
}

void
storeFailedTrial(uint64_t key, FailedTrial entry)
{
    TrialMemoShard &shard = trialMemo().shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.size() >= kTrialMemoShardCap) {
        shard.evictions += shard.map.size();
        shard.map.clear();
    }
    shard.map.emplace(key, entry);
}

} // namespace

TrialMemoStats
trialMemoStats()
{
    TrialMemoStats out;
    out.shards = kTrialMemoShards;
    out.capacity = kTrialMemoShardCap * kTrialMemoShards;
    for (TrialMemoShard &shard : trialMemo().shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        out.hits += shard.hits;
        out.misses += shard.misses;
        out.evictions += shard.evictions;
        out.entries += shard.map.size();
        out.maxShardEntries =
            std::max<uint64_t>(out.maxShardEntries, shard.map.size());
    }
    return out;
}

MergeKind
MergeEngine::classify(BlockId hb, BlockId s)
{
    if (hb == s)
        return MergeKind::Unroll;

    const DominatorTree &dom = am.dominators();
    const PredecessorMap &preds = am.predecessors();

    bool back_edge = dom.reachable(hb) && dom.dominates(s, hb);
    bool header = isNaturalLoopHeader(dom, preds, s);

    if (preds[s].size() == 1 && preds[s][0] == hb && !back_edge)
        return MergeKind::Simple;
    if (header && !back_edge)
        return MergeKind::Peel;
    // Per Fig. 5: the back-edge-to-another-header case falls through to
    // tail duplication.
    return MergeKind::TailDup;
}

bool
MergeEngine::blocksExist(BlockId hb, BlockId s, std::string *why) const
{
    auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    if (hb >= fn.blockTableSize() || !fn.block(hb))
        return fail("hyperblock does not exist");
    if (s >= fn.blockTableSize() || !fn.block(s))
        return fail("successor does not exist");
    if (s == fn.entry())
        return fail("cannot duplicate the entry block");
    if (branchesTo(*fn.block(hb), s).empty())
        return fail("not a successor");
    return true;
}

bool
MergeEngine::legalForKind(BlockId s, MergeKind kind, std::string *why)
{
    auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    if (!opts.enableHeadDuplication) {
        if (kind == MergeKind::Peel || kind == MergeKind::Unroll)
            return fail("head duplication disabled");
        // Without head duplication the classical algorithm keeps loop
        // headers as hyperblock seeds rather than growing into them.
        if (isNaturalLoopHeader(am.dominators(), am.predecessors(), s))
            return fail("loop header (head duplication disabled)");
    }
    return true;
}

bool
MergeEngine::legalMerge(BlockId hb, BlockId s, std::string *why)
{
    if (!blocksExist(hb, s, why))
        return false;
    return legalForKind(s, classify(hb, s), why);
}

MergeOutcome
MergeEngine::record(BlockId hb, BlockId s, MergeOutcome outcome)
{
    if (opts.recordMergeTrace) {
        MergeTraceEntry entry;
        entry.hb = hb;
        entry.s = s;
        entry.success = outcome.success;
        entry.kind = outcome.kind;
        entry.reason = outcome.reason;
        mergeTrace.push_back(std::move(entry));
    }
    return outcome;
}

template <typename LiveIn>
uint64_t
MergeEngine::trialKey(BlockId hb, BlockId s, MergeKind kind,
                      const BasicBlock &hb_block, const BasicBlock &source,
                      LiveIn &&live_in) const
{
    Hash64 h;
    h.u32(hb);
    h.u32(s);
    h.u8(static_cast<uint8_t>(kind));

    // Target configuration: a memo entry must never answer for a
    // differently-configured engine. Every TargetModel knob the trial
    // reads participates (the registry name does not -- two models
    // with equal knobs behave identically and may share entries).
    h.u64(opts.target.maxInsts);
    h.u64(opts.target.maxMemOps);
    h.u64(opts.target.lsqDepth);
    h.u64(opts.target.numRegBanks);
    h.u64(opts.target.maxReadsPerBank);
    h.u64(opts.target.maxWritesPerBank);
    h.u64(opts.target.maxBranches);
    h.u64(opts.sizeHeadroom);
    h.u8(opts.optimizeDuringMerge ? 1 : 0);
    h.u8(opts.enableHeadDuplication ? 1 : 0);
    h.u8(opts.enableBlockSplitting ? 1 : 0);

    // Contents of both participants, branch frequencies included
    // (entryShare feeds the appended branch frequencies, which feed
    // the size estimate only through instruction identity -- but a
    // committed merge elsewhere can change either block's insts or
    // freqs, and must change the key).
    hashBlockContents(h, hb_block);
    hashBlockContents(h, source);

    // Live-out context of the would-be combined block: the union the
    // trial takes is over the live-ins of the combined block's
    // targets, which are HB's non-consumed targets plus the source's
    // targets. A merge committed elsewhere can change those live-ins
    // without touching HB or S, so they are part of the key.
    bool self_loop = false;
    auto hash_targets = [&](const BasicBlock &b, bool skip_source) {
        for (const Instruction &inst : b.insts) {
            if (inst.op != Opcode::Br)
                continue;
            if (skip_source && inst.target == source.id())
                continue;
            if (inst.target == hb) {
                self_loop = true;
                continue;
            }
            h.u32(inst.target);
            h.bits(live_in(inst.target));
        }
    };
    hash_targets(hb_block, true);
    hash_targets(source, false);
    h.u8(self_loop ? 1 : 0);
    if (self_loop)
        h.bits(live_in(hb));

    return h.digest();
}

template <typename LiveIn>
void
MergeEngine::combinedLiveOut(BlockId hb, const BasicBlock &merged,
                             uint32_t universe, LiveIn &&live_in,
                             TrialScratch &t) const
{
    BitVector &live_out = t.liveOut;
    live_out.resize(universe);
    live_out.reset();
    bool self_loop = false;
    for (BlockId succ : merged.successors()) {
        if (succ == hb) {
            self_loop = true;
            continue;
        }
        live_out.unionWith(live_in(succ));
    }
    if (self_loop) {
        blockUsesInto(merged, universe, t.legal.uses, t.legal.killed);
        live_out.unionWith(t.legal.uses);
        live_out.unionWith(live_in(hb));
    }
}

size_t
MergeEngine::trialSizeFloor(const BasicBlock &hb_block,
                            const BasicBlock &source) const
{
    // Provable lower bound on the size estimate of the combined block
    // (estimatedInsts = insts + fanout + nullWrites >= insts):
    //  - combineBlocks keeps every HB instruction except the branches
    //    it consumes, keeps every source instruction, and only ever
    //    adds more (entry materialization);
    //  - when optimizing, every pass of optimizeBlock can only remove
    //    pure non-branch instructions and dead loads, so branches
    //    (Br/Ret) and stores provably survive.
    size_t floor = 0;
    for (const Instruction &inst : hb_block.insts) {
        if (inst.op == Opcode::Br && inst.target == source.id())
            continue; // consumed by the combine
        if (!opts.optimizeDuringMerge || inst.isBranch() ||
            inst.op == Opcode::Store) {
            ++floor;
        }
    }
    for (const Instruction &inst : source.insts) {
        if (!opts.optimizeDuringMerge || inst.isBranch() ||
            inst.op == Opcode::Store) {
            ++floor;
        }
    }
    return floor;
}

MergeOutcome
MergeEngine::tryMerge(BlockId hb, BlockId s)
{
    MergeOutcome outcome;
    std::string why;
    if (!blocksExist(hb, s, &why)) {
        outcome.reason = why;
        return record(hb, s, outcome);
    }

    // Classify once; legality and the commit path share the result.
    MergeKind kind = classify(hb, s);
    if (!legalForKind(s, kind, &why)) {
        outcome.reason = why;
        return record(hb, s, outcome);
    }

    BasicBlock *hb_block = fn.block(hb);
    BasicBlock *s_block = fn.block(s);

    // Choose the source for the appended code: for unrolling, the
    // pristine saved body (first unroll saves it); otherwise S itself.
    const BasicBlock *source = s_block;
    if (kind == MergeKind::Unroll) {
        auto it = pristineBodies.find(hb);
        if (it != pristineBodies.end()) {
            // The pristine body can reference blocks that were since
            // simple-merged away; if so it is stale -- drop it and fall
            // back to the current body (coarser, power-of-two-style
            // unrolling, the limitation the pristine copy normally
            // avoids).
            bool stale = false;
            for (BlockId succ : it->second->successors()) {
                if (succ >= fn.blockTableSize() || !fn.block(succ))
                    stale = true;
            }
            if (stale)
                pristineBodies.erase(it);
            else
                source = it->second.get();
        }
    }

    // --- Fast path: pre-screen, then consult the failed-trial memo ---
    std::string illegal;
    uint64_t memo_key = 0;
    bool have_memo_key = false;
    if (fastPath) {
        if (trialSizeFloor(*hb_block, *source) + opts.sizeHeadroom >
            opts.target.maxInsts) {
            counters.add("trialsPrescreened");
            // The slow path would burn combine's fresh registers
            // before rejecting; replay the burn so numbering stays
            // bit-identical.
            fn.skipVregs(combineVregCost(*hb_block, *source));
            illegal = blockSizeReason(opts.target,
                                      opts.sizeHeadroom);
        } else {
            memo_key = trialKey(hb, s, kind, *hb_block, *source,
                                [this](BlockId b) -> const BitVector & {
                                    return am.liveIn(b);
                                });
            FailedTrial hit;
            if (lookupFailedTrial(memo_key, &hit)) {
                counters.add("trialsMemoHit");
                fn.skipVregs(hit.vregsBurned);
                outcome.reason = *hit.reason;
                return record(hb, s, outcome);
            }
            have_memo_key = true;
        }
    }

    uint32_t vregs_before = fn.numVregs();
    bool opt_fixpoint = false;

    if (illegal.empty()) {
        counters.add("trialsRun");

        // The slow path constructs fresh scratch state per trial so
        // differential runs (CHF_TRIAL_CACHE=0) exercise exactly the
        // allocate-from-scratch behavior the arena replaces.
        std::unique_ptr<TrialScratch> fresh;
        TrialScratch *t = &arena;
        if (!fastPath) {
            fresh = std::make_unique<TrialScratch>();
            t = fresh.get();
        }

        // --- Scratch-space combine (Copy / Combine / Optimize) ---
        BasicBlock &scratch = t->scratch;
        scratch.assignFrom(*hb_block);
        t->sourceCopy.assignFrom(*source);

        double share = kind == MergeKind::Simple
                           ? 1.0
                           : entryShare(*hb_block, *source);
        trialTimes.ran = true;
        Timer combine_timer;
        bool combined = combineBlocks(fn, scratch, t->sourceCopy, share,
                                      &t->combine);
        trialTimes.combineNs += combine_timer.elapsedNanos();
        if (!combined) {
            outcome.reason = "no branch to successor";
            return record(hb, s, outcome);
        }

        // Live-out of the merged block. The query comes after
        // combineBlocks so the universe covers the predicate registers
        // if-conversion just allocated; the manager times the solves.
        combinedLiveOut(hb, scratch, am.livenessUniverse(),
                        [this](BlockId b) -> const BitVector & {
                            return am.liveIn(b);
                        },
                        *t);
        const BitVector &live_out = t->liveOut;

        if (opts.optimizeDuringMerge) {
            Timer optimize_timer;
            // Seam-scoped start: sound only when HB's body is a known
            // optimizer fixpoint -- the combine copied [0, firstDirty)
            // from it verbatim, so the prefix's certification carries
            // over (DESIGN.md §14). Otherwise run the full pass.
            size_t seam = (incrOpt && isFixpoint(hb))
                              ? t->combine.firstDirty
                              : 0;
            optimizeBlockFrom(fn, scratch, live_out, seam, &t->opt,
                              &opt_fixpoint, &trialTimes.opt);
            trialTimes.optimized = true;
            trialTimes.optimizeNs += optimize_timer.elapsedNanos();
        }

        // --- LegalBlock: structural constraints on the result ---
        Timer legal_timer;
        illegal = checkBlockLegal(fn, scratch, live_out,
                                  opts.target, opts.sizeHeadroom,
                                  &t->legal);
        trialTimes.legalNs += legal_timer.elapsedNanos();

        if (illegal.empty()) {
            // --- Commit: transform the CFG ---
            if (kind == MergeKind::Unroll && !pristineBodies.count(hb)) {
                auto pristine = std::make_unique<BasicBlock>(
                    hb_block->id(), hb_block->name());
                pristine->insts = hb_block->insts;
                pristineBodies[hb] = std::move(pristine);
            }

            std::vector<BlockId> hb_old_succs = hb_block->successors();
            hb_block->insts.swap(scratch.insts);
            if (kind != MergeKind::Simple)
                am.branchesRewritten(hb, hb_old_succs);
            // The installed body came out of the optimizer; record
            // whether it is a certified fixpoint the next trial may
            // seam from.
            setFixpoint(hb, opts.optimizeDuringMerge && opt_fixpoint);

            switch (kind) {
              case MergeKind::Simple: {
                // One combined event so the analysis manager can
                // recognize the splice and patch dominators/loops
                // instead of invalidating.
                std::vector<BlockId> s_succs = s_block->successors();
                fn.removeBlock(s);
                setFixpoint(s, false);
                am.blockAbsorbed(hb, s, hb_old_succs, s_succs);
                break;
              }
              case MergeKind::TailDup:
                // Frequencies only: no analysis depends on them.
                scaleBranchFreqs(*s_block, 1.0 - share);
                setFixpoint(s, false);
                counters.add("tailDuplicated");
                break;
              case MergeKind::Peel:
                scaleBranchFreqs(*s_block, 1.0 - share);
                setFixpoint(s, false);
                counters.add("peeledIterations");
                break;
              case MergeKind::Unroll:
                counters.add("unrolledIterations");
                break;
            }
            counters.add("blocksMerged");
            ++mutations;

            outcome.success = true;
            outcome.kind = kind;
            return record(hb, s, outcome);
        }
    }

    // --- Failure path (shared by full trials and the pre-screen) ---
    // Basic-block splitting (paper §9): a too-large single-predecessor
    // candidate can donate its first piece.
    bool split_path_taken = false;
    if (opts.enableBlockSplitting && kind == MergeKind::Simple &&
        illegal == blockSizeReason(opts.target, opts.sizeHeadroom) &&
        s_block->size() >= 16 &&
        hb_block->size() + 8 < opts.target.maxInsts) {
        // splitBlockAt mutates the function whether or not it splits
        // (it stabilizes branch predicates in place first), so trials
        // that reach here are never memoized.
        split_path_taken = true;
        size_t room = opts.target.maxInsts - opts.sizeHeadroom -
                      hb_block->size();
        size_t piece = std::min(room / 2, s_block->size() / 2);
        BlockId rest = splitBlockAt(fn, s, piece);
        // Both outcomes rewrite S's instructions in place (predicate
        // stabilization), so any fixpoint certification is stale.
        setFixpoint(s, false);
        if (rest != kNoBlock) {
            // A new block exists; no incremental patch applies.
            am.invalidateAll();
            ++mutations;
            counters.add("blocksSplitForMerge");
            // Retry: S is now its small first piece.
            MergeOutcome retried = tryMerge(hb, s);
            if (retried.success)
                return retried;
        } else {
            // splitBlockAt stabilizes branch predicates in place even
            // when it declines to split.
            am.instructionsRewritten(s);
            ++mutations;
        }
    }

    if (have_memo_key && !split_path_taken) {
        FailedTrial entry;
        entry.reason = internReason(illegal);
        entry.vregsBurned = fn.numVregs() - vregs_before;
        storeFailedTrial(memo_key, entry);
    }

    outcome.reason = illegal;
    return record(hb, s, outcome);
}

MergeEngine::TrialPlan
MergeEngine::planTrial(BlockId hb, BlockId s, uint32_t vreg_base)
{
    TrialPlan plan;
    plan.hb = hb;
    plan.s = s;
    plan.vregBase = vreg_base;

    // Mirror tryMerge's prologue exactly: these checks are cheap and
    // need the engine's analyses, so they stay on the compiling thread.
    std::string why;
    if (!blocksExist(hb, s, &why)) {
        plan.immediate = true;
        plan.immediateReason = std::move(why);
        return plan;
    }
    plan.kind = classify(hb, s);
    if (!legalForKind(s, plan.kind, &why)) {
        plan.immediate = true;
        plan.immediateReason = std::move(why);
        return plan;
    }

    plan.source = fn.block(s);
    if (plan.kind == MergeKind::Unroll) {
        // Unroll trials stay serial: tryMerge's pristine-body
        // bookkeeping (save on first unroll, erase on staleness)
        // mutates engine state. The source is still resolved here --
        // with the same staleness test, minus the erase -- because the
        // burn prediction below must match whatever tryMerge will do
        // at this trial's serial position (staleness is monotonic:
        // dead blocks never come back, so the answer cannot flip in
        // between).
        plan.serialOnly = true;
        auto it = pristineBodies.find(hb);
        if (it != pristineBodies.end()) {
            bool stale = false;
            for (BlockId succ : it->second->successors()) {
                if (succ >= fn.blockTableSize() || !fn.block(succ))
                    stale = true;
            }
            if (!stale)
                plan.source = it->second.get();
        }
    }

    plan.burn = combineVregCost(*fn.block(hb), *plan.source);
    return plan;
}

void
MergeEngine::runTrialSpeculative(const TrialPlan &plan,
                                 const Liveness &liveness, TrialScratch &t,
                                 TrialResult &out)
{
    // Read-only with respect to the engine and the function: scratch
    // state is per-thread, registers come from a local cursor seeded at
    // the predicted base, and the memo store is internally locked. The
    // structure mirrors tryMerge's fast-path middle section; consume
    // replays the serial bookkeeping.
    const BasicBlock *hb_block = fn.block(plan.hb);
    const BasicBlock *source = plan.source;

    if (trialSizeFloor(*hb_block, *source) + opts.sizeHeadroom >
        opts.target.maxInsts) {
        out.prescreened = true;
        out.vregsBurned = plan.burn;
        out.reason = blockSizeReason(opts.target, opts.sizeHeadroom);
        return;
    }

    auto frozen_live_in = [&liveness](BlockId b) -> const BitVector & {
        return liveness.liveIn(b);
    };
    uint64_t memo_key = trialKey(plan.hb, plan.s, plan.kind, *hb_block,
                                 *source, frozen_live_in);
    FailedTrial hit;
    if (lookupFailedTrial(memo_key, &hit)) {
        out.memoHit = true;
        out.vregsBurned = hit.vregsBurned;
        out.reason = *hit.reason;
        return;
    }

    out.ran = true;
    BasicBlock &scratch = t.scratch;
    scratch.assignFrom(*hb_block);
    t.sourceCopy.assignFrom(*source);

    out.share = plan.kind == MergeKind::Simple
                    ? 1.0
                    : entryShare(*hb_block, *source);
    VregCursor vregs{plan.vregBase};
    {
        Timer timer;
        bool merged = combineBlocksAt(vregs, scratch, t.sourceCopy,
                                      out.share, &t.combine);
        out.nsCombine = timer.elapsedNanos();
        if (!merged) {
            // tryMerge returns without memoizing this case.
            out.combineFailed = true;
            out.reason = "no branch to successor";
            out.vregsBurned = vregs.next - plan.vregBase;
            return;
        }
    }

    // Same live-out computation as tryMerge, against the frozen
    // liveness (its universe was pre-padded past this round's highest
    // predicted register, so every vector is already big enough).
    combinedLiveOut(plan.hb, scratch, liveness.universe(), frozen_live_in,
                    t);
    const BitVector &live_out = t.liveOut;

    if (opts.optimizeDuringMerge) {
        Timer timer;
        // Safe to read the fixpoint flag from a worker: flags only
        // change at commit time, and no commit runs between fan-out
        // and wait (the consume loop is strictly after).
        size_t seam = (incrOpt && isFixpoint(plan.hb))
                          ? t.combine.firstDirty
                          : 0;
        optimizeBlockFrom(fn, scratch, live_out, seam, &t.opt,
                          &out.fixpoint, &out.optStats);
        out.nsOptimize = timer.elapsedNanos();
    }

    Timer legal_timer;
    std::string illegal = checkBlockLegal(fn, scratch, live_out,
                                          opts.target,
                                          opts.sizeHeadroom, &t.legal);
    out.nsLegal = legal_timer.elapsedNanos();
    out.vregsBurned = vregs.next - plan.vregBase;
    CHF_ASSERT(out.vregsBurned == plan.burn,
               "speculative trial burned a different register count "
               "than combineVregCost predicted");

    if (illegal.empty()) {
        out.success = true;
        out.mergedInsts.swap(scratch.insts);
        return;
    }

    out.reason = illegal;
    // Storing from the worker is safe even if this result is later
    // discarded: the key covers every input, so the entry is exactly
    // what any future trial with the same key would compute.
    FailedTrial entry;
    entry.reason = internReason(illegal);
    entry.vregsBurned = out.vregsBurned;
    storeFailedTrial(memo_key, entry);
}

MergeOutcome
MergeEngine::consumeTrial(const TrialPlan &plan, TrialResult &r)
{
    MergeOutcome outcome;
    if (r.prescreened) {
        counters.add("trialsPrescreened");
        fn.skipVregs(r.vregsBurned);
        outcome.reason = std::move(r.reason);
        return record(plan.hb, plan.s, outcome);
    }
    if (r.memoHit) {
        counters.add("trialsMemoHit");
        fn.skipVregs(r.vregsBurned);
        outcome.reason = std::move(r.reason);
        return record(plan.hb, plan.s, outcome);
    }

    counters.add("trialsRun");
    trialTimes.ran = true;
    trialTimes.combineNs += r.nsCombine;
    if (opts.optimizeDuringMerge) {
        trialTimes.optimized = true;
        trialTimes.optimizeNs += r.nsOptimize;
        trialTimes.opt.merge(r.optStats);
    }
    fn.skipVregs(r.vregsBurned);

    if (r.combineFailed) {
        outcome.reason = std::move(r.reason);
        return record(plan.hb, plan.s, outcome);
    }
    trialTimes.legalNs += r.nsLegal;

    if (!r.success) {
        // The worker already memoized the failure.
        outcome.reason = std::move(r.reason);
        return record(plan.hb, plan.s, outcome);
    }

    // --- Commit: identical to tryMerge's commit section ---
    CHF_ASSERT(plan.kind != MergeKind::Unroll,
               "unroll trials are serial-only");
    BasicBlock *hb_block = fn.block(plan.hb);
    BasicBlock *s_block = fn.block(plan.s);
    std::vector<BlockId> hb_old_succs = hb_block->successors();
    hb_block->insts = std::move(r.mergedInsts);
    if (plan.kind != MergeKind::Simple)
        am.branchesRewritten(plan.hb, hb_old_succs);
    setFixpoint(plan.hb, opts.optimizeDuringMerge && r.fixpoint);

    switch (plan.kind) {
      case MergeKind::Simple: {
        std::vector<BlockId> s_succs = s_block->successors();
        fn.removeBlock(plan.s);
        setFixpoint(plan.s, false);
        am.blockAbsorbed(plan.hb, plan.s, hb_old_succs, s_succs);
        break;
      }
      case MergeKind::TailDup:
        scaleBranchFreqs(*s_block, 1.0 - r.share);
        setFixpoint(plan.s, false);
        counters.add("tailDuplicated");
        break;
      case MergeKind::Peel:
        scaleBranchFreqs(*s_block, 1.0 - r.share);
        setFixpoint(plan.s, false);
        counters.add("peeledIterations");
        break;
      case MergeKind::Unroll:
        break; // unreachable: asserted above
    }
    counters.add("blocksMerged");
    ++mutations;

    outcome.success = true;
    outcome.kind = plan.kind;
    return record(plan.hb, plan.s, outcome);
}

size_t
MergeEngine::tryMergeRound(
    BlockId hb, const std::vector<BlockId> &sources,
    const std::function<void(size_t, const MergeOutcome &)> &sink)
{
    WorkStealingPool *pool =
        parallelTrialsActive() ? WorkStealingPool::current() : nullptr;
    if (pool == nullptr || sources.size() < 2) {
        // Serial oracle: the round is by definition the chain of
        // tryMerge calls the caller's order simulation predicted.
        for (size_t i = 0; i < sources.size(); ++i) {
            MergeOutcome outcome = tryMerge(hb, sources[i]);
            bool success = outcome.success;
            sink(i, outcome);
            if (success)
                return i + 1;
        }
        return sources.size();
    }

    counters.add("specRounds");
    const uint64_t round_epoch = mutations;

    // Plan every candidate at its predicted register base: within one
    // epoch every trial before the first success fails, and a failed
    // trial burns exactly combineVregCost, so base_i is the round's
    // starting counter plus the prefix sum of planned burns.
    std::vector<TrialPlan> plans;
    plans.reserve(sources.size());
    uint32_t base = fn.numVregs();
    for (BlockId s : sources) {
        TrialPlan plan = planTrial(hb, s, base);
        base += plan.burn;
        plans.push_back(std::move(plan));
    }

    // Freeze the analyses for lock-free concurrent reads; `base` is now
    // one past the highest register any trial in the round can create.
    const Liveness &liveness = am.beginConcurrentReads(base);

    const size_t arena_slots = pool->workerCount() + 1;
    while (specArenas.size() < arena_slots)
        specArenas.push_back(std::make_unique<TrialScratch>());

    std::vector<TrialResult> results(plans.size());
    size_t speculated = 0;
    {
        WorkStealingPool::TaskGroup group(*pool);
        for (size_t i = 0; i < plans.size(); ++i) {
            if (plans[i].immediate || plans[i].serialOnly)
                continue;
            ++speculated;
            const TrialPlan *plan = &plans[i];
            TrialResult *out = &results[i];
            group.spawn([this, pool, plan, &liveness, out] {
                // Publish the owning unit's token on this pool worker
                // and poll it before paying for the trial; a trip is
                // recorded as the task's error and rethrown at the
                // trial's exact serial position on the compiling
                // thread (DESIGN.md §12).
                CancellationScope cancel_scope(opts.cancel);
                if (opts.cancel.cancelled()) {
                    out->error = std::make_exception_ptr(
                        CancelledError(opts.cancel.kind()));
                    return;
                }
                TrialScratch &scratch =
                    *specArenas[pool->currentWorkerIndex()];
                try {
                    runTrialSpeculative(*plan, liveness, scratch, *out);
                } catch (...) {
                    out->error = std::current_exception();
                }
            });
        }
        group.wait();
    }
    am.endConcurrentReads();
    counters.add("trialsSpeculated", static_cast<int64_t>(speculated));

    // Consume in exact serial order; the first success ends the round
    // (its commit invalidates every later speculative result -- the
    // epoch check below is the guard, and the caller re-trials the
    // survivors in its next round).
    for (size_t i = 0; i < plans.size(); ++i) {
        const TrialPlan &plan = plans[i];
        MergeOutcome outcome;
        if (plan.immediate) {
            outcome.reason = plan.immediateReason;
            outcome = record(hb, plan.s, std::move(outcome));
        } else if (plan.serialOnly || mutations != round_epoch ||
                   fn.numVregs() != plan.vregBase) {
            // Serial re-trial at the exact serial position: the
            // function state here equals the serial path's state, so
            // tryMerge is bit-identical by construction.
            if (!plan.serialOnly)
                counters.add("trialsSpecInvalidated");
            outcome = tryMerge(hb, plan.s);
        } else {
            if (results[i].error)
                std::rethrow_exception(results[i].error);
            outcome = consumeTrial(plan, results[i]);
        }
        bool success = outcome.success;
        sink(i, outcome);
        if (success) {
            int64_t wasted = 0;
            for (size_t j = i + 1; j < plans.size(); ++j) {
                if (!plans[j].immediate && !plans[j].serialOnly)
                    ++wasted;
            }
            counters.add("trialsSpecWasted", wasted);
            return i + 1;
        }
    }
    return plans.size();
}

} // namespace chf
