#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench.h"

namespace chf::perfbench {

Quality
qualityOf(const StatSet &totals, int64_t blocks, int64_t insts)
{
    Quality q;
    q.blocks = blocks;
    q.insts = insts;
    q.trials = totals.get("trialsRun") + totals.get("trialsMemoHit") +
               totals.get("trialsPrescreened");
    q.merges = totals.get("blocksMerged");
    q.spilled = totals.get("spilledValues");
    return q;
}

Program
cloneProgram(const Program &program)
{
    Program copy;
    copy.fn = program.fn.clone();
    copy.memory = program.memory;
    copy.defaultArgs = program.defaultArgs;
    return copy;
}

Oracle
oracleOf(const Program &prepared)
{
    FuncSimResult ref = runFunctional(prepared);
    return {ref.returnValue, ref.memory.userHash()};
}

std::string
oracleProblems(const FuncSimResult &compiled, const Oracle &oracle)
{
    std::string why;
    if (compiled.returnValue != oracle.returnValue)
        why += " return value differs from the oracle;";
    if (compiled.memory.userHash() != oracle.userHash)
        why += " user memory differs from the oracle;";
    return why;
}

bool
resetPeakRss()
{
    // Set-up frees what it built on several threads; without the trim
    // that memory stays resident in malloc's arenas and the timed
    // phase reuses it without raising the mark.
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives exec and cannot be
    // reset, so it would report the launcher's or set-up's peak.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

void
RunResult::fail(const std::string &what)
{
    ++failed;
    std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

std::string
RunResult::recordQuality(const std::string &input, const Quality &q)
{
    auto [it, inserted] = quality.emplace(input, q);
    if (inserted || it->second == q)
        return "";
    const Quality &r = it->second;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  " nondeterministic: blocks %lld/%lld insts %lld/%lld "
                  "trials %lld/%lld merges %lld/%lld;",
                  (long long)r.blocks, (long long)q.blocks,
                  (long long)r.insts, (long long)q.insts,
                  (long long)r.trials, (long long)q.trials,
                  (long long)r.merges, (long long)q.merges);
    return buf;
}

} // namespace chf::perfbench
