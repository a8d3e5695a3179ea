#include "trace.h"

#include <fstream>

#include "bench.h"

namespace chf::perfbench {

uint32_t
Tracer::open(const char *name, uint64_t unit, uint32_t parent,
             uint32_t thread)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.unit = unit;
    span.thread = thread;
    span.startUs = nowUs();
    std::lock_guard<std::mutex> guard(lock);
    spans.push_back(std::move(span));
    return static_cast<uint32_t>(spans.size() - 1);
}

void
Tracer::close(uint32_t id,
              std::vector<std::pair<std::string, int64_t>> args)
{
    double end = nowUs();
    std::lock_guard<std::mutex> guard(lock);
    spans[id].endUs = end;
    spans[id].args = std::move(args);
}

std::map<std::string, double>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> guard(lock);
    std::vector<double> childUs(spans.size(), 0.0);
    for (const Span &span : spans)
        if (span.parent != kNoSpan)
            childUs[span.parent] += span.endUs - span.startUs;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] +=
            spans[i].endUs - spans[i].startUs - childUs[i];
    return self;
}

double
Tracer::coverage() const
{
    std::lock_guard<std::mutex> guard(lock);
    double unitUs = 0, childUs = 0;
    for (const Span &span : spans) {
        double us = span.endUs - span.startUs;
        if (span.parent == kNoSpan)
            unitUs += us;
        else if (spans[span.parent].parent == kNoSpan)
            childUs += us;
    }
    return unitUs > 0 ? childUs / unitUs : 0.0;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> guard(lock);
    return spans.size();
}

std::vector<Span>
Tracer::spansFrom(size_t first) const
{
    std::lock_guard<std::mutex> guard(lock);
    if (first >= spans.size())
        return {};
    return {spans.begin() + static_cast<std::ptrdiff_t>(first), spans.end()};
}

void
Tracer::append(std::vector<Span> more)
{
    std::lock_guard<std::mutex> guard(lock);
    for (Span &span : more)
        spans.push_back(std::move(span));
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> guard(lock);
    std::ofstream out(path);
    if (!out)
        return false;
    double origin = spans.empty() ? 0.0 : spans.front().startUs;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
            << ",\"ts\":" << (span.startUs - origin)
            << ",\"dur\":" << (span.endUs - span.startUs)
            << ",\"args\":{\"span\":" << i << ",\"unit\":" << span.unit;
        if (span.parent != kNoSpan)
            out << ",\"parent\":" << span.parent;
        for (const auto &[key, value] : span.args)
            out << ",\"" << key << "\":" << value;
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace chf::perfbench
