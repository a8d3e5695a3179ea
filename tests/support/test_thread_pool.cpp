/**
 * @file
 * WorkStealingPool unit and stress tests: steal-heavy load, shutdown
 * racing in-flight steals, nested submission from inside a task, and
 * the thread-identity queries MergeEngine's parallel trials depend on.
 * All of these run under CHF_SANITIZE=thread in scripts/check_tsan.sh
 * (ctest -L parallel), which is the real gate — the assertions here
 * catch lost or double-run tasks, TSan catches ordering bugs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace chf {
namespace {

TEST(WorkStealingPool, InlinePoolRunsOnCallingThread)
{
    // 0 or 1 workers spawn no threads: submit() executes inline, so a
    // single-threaded Session takes the exact sequential code path.
    for (size_t workers : {0u, 1u}) {
        WorkStealingPool pool(workers);
        EXPECT_LE(pool.workerCount(), workers);
        const std::thread::id caller = std::this_thread::get_id();
        std::thread::id ran_on;
        pool.submit([&] { ran_on = std::this_thread::get_id(); });
        EXPECT_EQ(ran_on, caller);
        pool.waitIdle();
        EXPECT_EQ(pool.tasksCompleted(), 1u);
        EXPECT_EQ(pool.tasksStolen(), 0u);
    }
}

TEST(WorkStealingPool, ExternalSubmitCompletesEverything)
{
    WorkStealingPool pool(4);
    std::atomic<int> sum{0};
    constexpr int kTasks = 500;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&sum, i] { sum.fetch_add(i); });
    pool.waitIdle();
    EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
    EXPECT_EQ(pool.tasksCompleted(), static_cast<size_t>(kTasks));
}

TEST(WorkStealingPool, StealHeavyStress)
{
    // One producer task floods its *own* deque with tiny tasks (nested
    // submission is owner-local by design), then waits inside its own
    // body until all of them have run. A worker executing a task never
    // pops its own deque, so every tiny task must be stolen by the
    // other workers -- on any core count. All must run exactly once.
    WorkStealingPool pool(4);
    std::atomic<size_t> ran{0};
    bool drained = false;
    constexpr size_t kTiny = 4000;
    pool.submit([&] {
        for (size_t i = 0; i < kTiny; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        // Generous deadline: only a pool that stopped stealing misses it.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (ran.load() < kTiny &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        drained = ran.load() == kTiny;
    });
    pool.waitIdle();
    EXPECT_TRUE(drained) << "tiny tasks not all stolen within the deadline";
    EXPECT_EQ(ran.load(), kTiny);
    EXPECT_EQ(pool.tasksCompleted(), kTiny + 1);
    EXPECT_GE(pool.tasksStolen(), kTiny);
}

TEST(WorkStealingPool, ShutdownWhileStealing)
{
    // Destroy the pool immediately after a burst of submissions, with
    // workers mid-steal. The destructor contract: every accepted task
    // still executes, none twice. Iterate to shake schedules loose.
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> ran{0};
        constexpr int kTasks = 64;
        {
            WorkStealingPool pool(4);
            for (int i = 0; i < kTasks; ++i)
                pool.submit([&ran] { ran.fetch_add(1); });
            // No waitIdle: the destructor races the in-flight steals.
        }
        EXPECT_EQ(ran.load(), kTasks) << "round " << round;
    }
}

TEST(WorkStealingPool, NestedTaskGroupFromInsideATask)
{
    // The trial-parallelism shape: a pool task spawns a TaskGroup and
    // waits on it while still inside the pool. wait() must help run
    // pool tasks rather than sleep, so this cannot deadlock even when
    // every worker is blocked in a nested wait.
    WorkStealingPool pool(2);
    std::atomic<int> leaves{0};
    WorkStealingPool::TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i) {
        outer.spawn([&] {
            WorkStealingPool::TaskGroup inner(pool);
            for (int j = 0; j < 8; ++j)
                inner.spawn([&leaves] { leaves.fetch_add(1); });
            inner.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(leaves.load(), 64);
}

TEST(WorkStealingPool, TaskGroupIsolation)
{
    // A group's wait() returns when *its* tasks are done; unrelated
    // pool work may still be pending (waitIdle covers that).
    WorkStealingPool pool(2);
    std::atomic<int> grouped{0};
    std::atomic<int> loose{0};
    for (int i = 0; i < 32; ++i)
        pool.submit([&loose] { loose.fetch_add(1); });
    {
        WorkStealingPool::TaskGroup group(pool);
        for (int i = 0; i < 32; ++i)
            group.spawn([&grouped] { grouped.fetch_add(1); });
        group.wait();
        EXPECT_EQ(grouped.load(), 32);
    }
    pool.waitIdle();
    EXPECT_EQ(loose.load(), 32);
}

TEST(WorkStealingPool, CurrentAndWorkerIndex)
{
    WorkStealingPool pool(3);
    // Non-worker threads: no current pool, index == workerCount()
    // (the extra per-thread arena slot).
    EXPECT_EQ(WorkStealingPool::current(), nullptr);
    EXPECT_EQ(pool.currentWorkerIndex(), pool.workerCount());

    // A spawned task runs either on a pool worker (current() == &pool,
    // index < workerCount()) or on this thread while wait() helps
    // (current() == nullptr, index == workerCount() — the external
    // arena slot). Both identities must be consistent; anything else
    // would hand two concurrent tasks the same scratch arena.
    std::atomic<bool> identity_ok{true};
    const std::thread::id caller = std::this_thread::get_id();
    WorkStealingPool::TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
        group.spawn([&] {
            const bool on_worker =
                std::this_thread::get_id() != caller;
            WorkStealingPool *cur = WorkStealingPool::current();
            const size_t index = pool.currentWorkerIndex();
            const bool ok =
                on_worker ? (cur == &pool && index < pool.workerCount())
                          : (cur == nullptr &&
                             index == pool.workerCount());
            if (!ok)
                identity_ok = false;
        });
    }
    group.wait();
    EXPECT_TRUE(identity_ok.load());
}

TEST(WorkStealingPool, HardwareThreadsHasFloorOfOne)
{
    EXPECT_GE(WorkStealingPool::hardwareThreads(), 1u);
}

} // namespace
} // namespace chf
