/**
 * @file
 * In-memory span recorder of the benchmark driver.
 *
 * Spans are recorded only in the driver, around its calls into each
 * layer of the program (frontend, prepare, Session::compile, the
 * simulators, CompileServer::handle); nothing inside src/ is traced.
 * A span keeps its name, start, end, parent span and unit id. The
 * whole set is written as Chrome trace-event JSON when the run ends.
 */

#ifndef CHF_PERFBENCH_TRACE_H
#define CHF_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace chf::perfbench {

struct Span
{
    const char *name = "";
    double startUs = 0;
    double endUs = 0;
    /** Index of the enclosing span, or kNoSpan for a unit span. */
    uint32_t parent = 0;
    uint64_t unit = 0;
    uint32_t thread = 0;
    /** Counters attached to the span (compile spans carry the
     *  program's us* phase timers). */
    std::vector<std::pair<std::string, int64_t>> args;
};

constexpr uint32_t kNoSpan = UINT32_MAX;

/** Thread-safe span store; serve_mix records from four clients. */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span; returns its id. */
    uint32_t open(const char *name, uint64_t unit, uint32_t parent,
                  uint32_t thread = 0);

    /** Close span @p id, attaching @p args. */
    void close(uint32_t id,
               std::vector<std::pair<std::string, int64_t>> args = {});

    /** Per span name: summed self time (duration minus children). */
    std::map<std::string, double> selfTimes() const;

    /**
     * Share of the unit spans' wall time covered by their child layer
     * spans; the rest is driver bookkeeping between layer calls.
     */
    double coverage() const;

    size_t size() const;

    /** Copies of spans @p first onward, in id order. */
    std::vector<Span> spansFrom(size_t first) const;

    /**
     * Append @p more, whose ids (parents included) continue this
     * tracer's numbering: spans a forked child recorded on its copy.
     */
    void append(std::vector<Span> more);

    /** Write Chrome trace-event JSON; false on I/O failure. */
    bool writeChrome(const std::string &path) const;

  private:
    mutable std::mutex lock;
    std::vector<Span> spans; ///< guarded by lock
};

/**
 * RAII span, inactive (recording nothing) when @p tracer is null. The
 * driver passes a null tracer for untraced units.
 */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, uint64_t unit,
              uint32_t parent, uint32_t thread = 0)
        : tracer(tracer),
          id(tracer ? tracer->open(name, unit, parent, thread) : kNoSpan)
    {
    }

    ~SpanScope()
    {
        if (tracer)
            tracer->close(id, std::move(args));
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint32_t spanId() const { return id; }

    /** Counters to attach when the span closes. */
    std::vector<std::pair<std::string, int64_t>> args;

  private:
    Tracer *tracer;
    uint32_t id;
};

} // namespace chf::perfbench

#endif // CHF_PERFBENCH_TRACE_H
