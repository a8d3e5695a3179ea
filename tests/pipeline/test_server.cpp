/**
 * @file
 * Protocol tests for CompileServer (src/pipeline/server.h): request
 * parsing and error reporting, the content-addressed LRU cache,
 * overload shedding, per-request timeouts, and the stats counters —
 * all in-process, no sockets. The end-to-end daemon (transport,
 * concurrent connections, the replay client) is covered by
 * scripts/check_server.sh.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "pipeline/server.h"
#include "support/fault_inject.h"

namespace chf {
namespace {

bool
hasField(const std::string &response, const std::string &field)
{
    return response.find(field) != std::string::npos;
}

std::string
status(const std::string &response)
{
    size_t at = response.find("\"status\":\"");
    if (at == std::string::npos)
        return "";
    at += 10;
    return response.substr(at, response.find('"', at) - at);
}

const char *const kCompileGen =
    R"({"op":"compile","gen":"seed:3,shape:bench"})";

TEST(ServerProtocol, HealthAndStats)
{
    CompileServer server;
    std::string health = server.handle(R"({"op":"health"})");
    EXPECT_EQ(status(health), "ok");
    EXPECT_TRUE(hasField(health, "\"in_flight\":0"));

    std::string stats = server.handle(R"({"op":"stats"})");
    EXPECT_EQ(status(stats), "ok");
    EXPECT_TRUE(hasField(stats, "\"requests\":2"));
    EXPECT_EQ(server.stats().requests, 2u);
    EXPECT_EQ(server.stats().errors, 0u);

    // The incremental-opt hit ratio and the trial-memo occupancy are
    // reported side by side (DESIGN.md §14); zero before any compile.
    EXPECT_TRUE(hasField(stats, "\"opt_seam_visited\":0"));
    EXPECT_TRUE(hasField(stats, "\"opt_seam_total\":0"));
    EXPECT_TRUE(hasField(stats, "\"trial_memo_hits\":"));
    EXPECT_TRUE(hasField(stats, "\"trial_memo_entries\":"));
    EXPECT_TRUE(hasField(stats, "\"liveness_queries\":0"));
    EXPECT_TRUE(hasField(stats, "\"liveness_blocks_solved\":0"));

    // After a compile with real control flow (so formation runs merge
    // trials) the visit counters accumulate, and the seam may only
    // ever skip work, never invent it.
    std::string compiled = server.handle(
        R"({"op":"compile","source":"int main() { int acc = 0; for (int i = 0; i < 16; i += 1) { if ((i & 1) == 1) { acc += i; } else { acc -= 1; } if ((i & 6) == 2) { acc += 3; } } return acc; }"})");
    EXPECT_EQ(status(compiled), "ok");
    EXPECT_GT(server.stats().optSeamTotal, 0u);
    EXPECT_LE(server.stats().optSeamVisited, server.stats().optSeamTotal);

    // Formation's trials read live-ins on demand (DESIGN.md §6); the
    // stats op reports the queries and the block solves behind them.
    EXPECT_GT(server.stats().livenessQueries, 0u);
    EXPECT_GT(server.stats().livenessBlocksSolved, 0u);
    std::string after = server.handle(R"({"op":"stats"})");
    EXPECT_TRUE(hasField(after,
                         "\"liveness_queries\":" +
                             std::to_string(server.stats().livenessQueries)));
}

TEST(ServerProtocol, MalformedRequestsAreErrorsNotCrashes)
{
    CompileServer server;
    const char *bad[] = {
        "",
        "not json",
        "{\"op\":\"compile\"}",          // neither source nor gen
        R"({"op":"nosuch"})",            // unknown op
        R"({"op":"compile","source":"int main(){return 0;}","gen":"seed:1"})",
        R"({"op":"compile","gen":{"nested":1}})", // nested value
        R"({"op":"compile","gen":"seed:notanumber"})",
        R"({"op":"compile","source":"int main(){ syntax error"})",
    };
    for (const char *line : bad) {
        std::string response = server.handle(line);
        EXPECT_EQ(status(response), "error") << line << " -> " << response;
        EXPECT_TRUE(hasField(response, "\"message\":")) << response;
    }
    EXPECT_EQ(server.stats().errors,
              sizeof(bad) / sizeof(bad[0]));
}

TEST(ServerProtocol, CompilesAndEchoesId)
{
    CompileServer server;
    std::string response = server.handle(
        R"({"id":"req-17","op":"compile","gen":"seed:3,shape:bench",)"
        R"("emit_asm":true})");
    EXPECT_EQ(status(response), "ok") << response;
    EXPECT_TRUE(hasField(response, "\"id\":\"req-17\"")) << response;
    EXPECT_TRUE(hasField(response, "\"blocks\":")) << response;
    EXPECT_TRUE(hasField(response, "\"asm\":")) << response;
    EXPECT_EQ(server.stats().compiled, 1u);
}

TEST(ServerCache, RepeatRequestIsServedFromCacheByteIdentically)
{
    CompileServer server;
    std::string first = server.handle(kCompileGen);
    std::string second = server.handle(kCompileGen);
    EXPECT_EQ(status(first), "ok");
    EXPECT_EQ(status(second), "ok");
    EXPECT_FALSE(hasField(first, "\"cached\":true"));
    EXPECT_TRUE(hasField(second, "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 1u);
    EXPECT_EQ(server.stats().cacheHits, 1u);

    // Identical payload modulo the cached marker.
    std::string normalized = second;
    size_t marker = normalized.find("\"cached\":true");
    ASSERT_NE(marker, std::string::npos);
    normalized.replace(marker, 13, "\"cached\":false");
    EXPECT_EQ(normalized, first);

    // A different id still hits the cache and echoes correctly.
    std::string with_id = server.handle(
        R"({"id":"z","op":"compile","gen":"seed:3,shape:bench"})");
    EXPECT_TRUE(hasField(with_id, "\"id\":\"z\""));
    EXPECT_TRUE(hasField(with_id, "\"cached\":true"));
    EXPECT_EQ(server.stats().cacheHits, 2u);
}

TEST(ServerCache, DistinctRequestsMissAndLruEvicts)
{
    ServerOptions opts;
    opts.cacheCapacity = 2;
    CompileServer server(opts);

    auto gen = [](int seed) {
        return std::string(R"({"op":"compile","gen":"seed:)") +
               std::to_string(seed) + R"(,shape:bench"})";
    };
    server.handle(gen(1)); // cache {1}
    server.handle(gen(2)); // cache {2,1}
    server.handle(gen(3)); // evicts 1 -> {3,2}
    EXPECT_EQ(server.stats().cacheHits, 0u);
    EXPECT_TRUE(hasField(server.handle(gen(2)), "\"cached\":true"));
    EXPECT_FALSE(hasField(server.handle(gen(1)), "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 4u);
}

TEST(ServerCache, KeepGoingChangesTheKey)
{
    CompileServer server;
    server.handle(kCompileGen);
    std::string other = server.handle(
        R"({"op":"compile","gen":"seed:3,shape:bench","keep_going":false})");
    EXPECT_FALSE(hasField(other, "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 2u);
}

TEST(ServerCache, TargetsNeverShareCacheEntries)
{
    CompileServer server;
    auto compileFor = [&](const char *target) {
        return server.handle(
            std::string(R"({"op":"compile","gen":"seed:3,shape:bench",)"
                        R"("target":")") +
            target + R"("})");
    };

    std::string trips = compileFor("trips");
    std::string small = compileFor("small-block");
    EXPECT_EQ(status(trips), "ok") << trips;
    EXPECT_EQ(status(small), "ok") << small;
    // The second target must compile fresh, never hit trips's entry.
    EXPECT_FALSE(hasField(small, "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 2u);

    // Each target hits only its own entry on repeat.
    EXPECT_TRUE(hasField(compileFor("trips"), "\"cached\":true"));
    EXPECT_TRUE(hasField(compileFor("small-block"), "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 2u);
    EXPECT_EQ(server.stats().cacheHits, 2u);

    // An explicit "trips" and an omitted target are the same request.
    EXPECT_TRUE(hasField(server.handle(kCompileGen), "\"cached\":true"));
}

TEST(ServerProtocol, UnknownTargetIsRefusedWithTheRegistry)
{
    CompileServer server;
    std::string response = server.handle(
        R"({"op":"compile","gen":"seed:3,shape:bench","target":"vax"})");
    EXPECT_EQ(status(response), "error") << response;
    EXPECT_TRUE(hasField(response, "trips-wide")) << response;
    EXPECT_EQ(server.stats().compiled, 0u);
    EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServerTimeout, StalledRequestTimesOutAndIsNotCached)
{
    CompileServer server;
    const char *stalled =
        R"({"op":"compile","gen":"seed:3,shape:bench","timeout_ms":300,)"
        R"("fault":"phase:formation,fn:0,kind:stall:10000"})";
    std::string response = server.handle(stalled);
    EXPECT_EQ(status(response), "timeout") << response;
    EXPECT_TRUE(hasField(response, "\"degraded\":true"));
    EXPECT_TRUE(hasField(response, "\"timeout\""));
    EXPECT_EQ(server.stats().timeouts, 1u);

    // The injector must be disarmed afterwards, and the timed-out
    // response must not have poisoned the cache.
    EXPECT_FALSE(FaultInjector::instance().armed());
    std::string again = server.handle(stalled);
    EXPECT_EQ(status(again), "timeout");
    EXPECT_EQ(server.stats().cacheHits, 0u);
}

TEST(ServerShedding, OverCapacityBurstsAreRefused)
{
    ServerOptions opts;
    opts.maxInFlight = 1;
    CompileServer server(opts);

    // One request stalls inside the service for ~1s while a burst of
    // cheap requests arrives: with a single in-flight slot every one
    // of them must be shed immediately, not queued.
    std::thread stall([&server] {
        server.handle(
            R"({"op":"compile","gen":"seed:9,shape:bench","timeout_ms":900,)"
            R"("fault":"phase:formation,fn:0,kind:stall:10000"})");
    });
    // Wait for the stalled compile to own the only slot (health takes
    // none) so the burst below cannot race it for admission.
    for (int i = 0; i < 1000; ++i) {
        if (hasField(server.handle(R"({"op":"health"})"),
                     "\"in_flight\":1"))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    size_t shed = 0;
    for (int i = 0; i < 200 && shed == 0; ++i) {
        std::string response = server.handle(kCompileGen);
        if (status(response) == "shed")
            ++shed;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stall.join();
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(server.stats().shed, shed);

    // Capacity is released once the stalled compile finishes.
    EXPECT_EQ(status(server.handle(kCompileGen)), "ok");
}

TEST(ServerProtocol, ConcurrentMixedTrafficIsCoherent)
{
    ServerOptions opts;
    opts.maxInFlight = 8;
    CompileServer server(opts);
    server.handle(kCompileGen); // warm the cache

    constexpr int kThreads = 4, kPerThread = 25;
    std::vector<std::thread> workers;
    std::atomic<int> bad{0};
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&server, &bad] {
            for (int i = 0; i < kPerThread; ++i) {
                std::string s = status(server.handle(kCompileGen));
                if (s != "ok" && s != "shed")
                    bad.fetch_add(1);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(bad.load(), 0);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 1u + kThreads * kPerThread);
    EXPECT_EQ(stats.cacheHits + stats.shed + stats.compiled,
              stats.requests);
}

TEST(ServerProtocol, JsonQuoteEscapes)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(jsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

} // namespace
} // namespace chf
