// Shared pieces of the qfa benchmark: clock, order statistics, the metric
// report, the tape hash and the in-memory span tracer.
//
// The benchmark drives the library from outside through its public API
// only.  Every span is recorded here, around a call into one of the
// library's modules; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

[[nodiscard]] inline double us_between(TimePoint a, TimePoint b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double s_between(TimePoint a, TimePoint b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; reorders
/// `values`.  0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double>& values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(values, 0.5);
}

/// "min q1 median q3 max" of a sample, for informational lines.
[[nodiscard]] std::string quartiles(std::vector<double> values);

/// Command line of one benchmark process.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;        ///< shrunken sizes for the benchmark's own tests
    std::string trace_out;    ///< where the traced run writes its spans
};

/// Metric values by name.  main.cpp prints the names of the requested
/// kind in catalogue order; a per-layer name a workload does not reach
/// prints as 0.
using Values = std::map<std::string, double>;

/// What one workload run hands back to main: the metric values plus the
/// correctness ledger.
struct Report {
    Values values;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;  ///< informational lines (sample counts, hashes)

    void fail(const std::string& why) {
        correct = false;
        notes.push_back("SELF-CHECK FAILED: " + why);
    }
};

/// 64-bit FNV-1a over the generated inputs: the tape hash.
class TapeHash {
public:
    void bytes(const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state_ = (state_ ^ p[i]) * 0x100000001b3ULL;
        }
    }
    template <typename T>
    void value(const T& v) {
        bytes(&v, sizeof(v));
    }
    [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// The layers spans are attributed to: the library's modules, plus the
/// benchmark's own load generator.
enum class Layer : std::uint8_t { serve, backend, core, alloc, sysmodel, workload };
inline constexpr std::size_t kLayerCount = 6;
[[nodiscard]] std::string_view layer_name(Layer layer) noexcept;

/// In-memory span recorder of the traced run.
///
/// A span is (name, layer, start, end, parent, op id).  The first spans of
/// each name, up to a fixed count, are stored and written out as a Chrome
/// trace-event file when the run ends, so every call site shows in the
/// file; durations and layer self times are accumulated for every span,
/// stored or not.  Self time of a layer = its spans' durations minus
/// the durations of their child spans.  Single-threaded: only the client
/// thread records.
inline constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

/// A recorded (or open) span of the Tracer, usable as a parent.
struct SpanRef {
    std::uint32_t name = kNoSpan;
    std::uint32_t index = kNoSpan;  ///< storage slot; kNoSpan when not stored
    TimePoint start{};
    std::uint32_t parent_name = kNoSpan;  ///< set by Tracer::open
};

class Tracer {
public:

    explicit Tracer(std::size_t stored_per_name);

    /// Interned span name (one per call site).
    std::uint32_t name(std::string_view span_name, Layer layer);

    /// Records a finished span.
    SpanRef record(std::uint32_t name, TimePoint start, TimePoint end, std::uint64_t op,
                   const SpanRef& parent = {});

    /// Opens a span whose children are recorded before it closes.
    SpanRef open(std::uint32_t name, TimePoint start, std::uint64_t op,
                 const SpanRef& parent = {});
    void close(const SpanRef& span, TimePoint end);

    /// Every duration (µs) recorded under one name.
    [[nodiscard]] std::vector<double>& durations(std::uint32_t name) {
        return names_[name].durations_us;
    }
    [[nodiscard]] double self_us(Layer layer) const noexcept {
        return self_us_[static_cast<std::size_t>(layer)];
    }
    [[nodiscard]] std::uint64_t span_count(Layer layer) const noexcept {
        return spans_per_layer_[static_cast<std::size_t>(layer)];
    }

    /// Writes the stored spans as Chrome trace-event JSON.  False when the
    /// file cannot be written.
    bool write(const std::string& path) const;

private:
    struct Name {
        std::string text;
        Layer layer;
        std::vector<double> durations_us;
        std::size_t stored = 0;
    };
    struct Span {
        std::uint32_t name;
        std::uint32_t parent;
        std::uint64_t op;
        TimePoint start;
        TimePoint end;
    };

    void account(std::uint32_t name, double us, const SpanRef& parent);
    /// Storage slot for a new span of `name`, or kNoSpan once the name's
    /// quota is used.
    std::uint32_t slot(std::uint32_t name);

    std::vector<Name> names_;
    std::vector<Span> spans_;
    std::size_t stored_per_name_;
    double self_us_[kLayerCount] = {};
    std::uint64_t spans_per_layer_[kLayerCount] = {};
};

/// Ends a traced run: one self-time line per layer, and the stored spans
/// written to options.trace_out (the report fails when that write fails).
void finish_trace(const Tracer& tracer, const Options& options, Report& report);

/// Workload entry points (one translation unit each).
Report run_serve_workload(const Options& options);
Report run_alloc_churn(const Options& options);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Host and build provenance lines (nproc, CPU, hypervisor, SIMD tier,
/// compiler, flags, build type, commit).
[[nodiscard]] std::vector<std::string> provenance();

}  // namespace perfbench
