#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define PERFBENCH_HAS_CPUID 1
#endif

namespace perfbench {

double percentile(std::vector<double>& values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t k =
        std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

std::string quartiles(std::vector<double> values) {
    std::string text = "min/q1/median/q3/max";
    for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        text += ' ';
        text += std::to_string(percentile(values, q));
    }
    return text;
}

std::string_view layer_name(Layer layer) noexcept {
    switch (layer) {
        case Layer::serve: return "serve";
        case Layer::backend: return "backend";
        case Layer::core: return "core";
        case Layer::alloc: return "alloc";
        case Layer::sysmodel: return "sysmodel";
        case Layer::workload: return "workload";
    }
    return "?";
}

Tracer::Tracer(std::size_t stored_per_name) : stored_per_name_(stored_per_name) {}

std::uint32_t Tracer::name(std::string_view span_name, Layer layer) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
        if (names_[i].text == span_name) {
            return i;
        }
    }
    names_.push_back(Name{std::string(span_name), layer, {}, 0});
    return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::account(std::uint32_t name, double us, const SpanRef& parent) {
    const auto layer = static_cast<std::size_t>(names_[name].layer);
    names_[name].durations_us.push_back(us);
    self_us_[layer] += us;
    ++spans_per_layer_[layer];
    if (parent.name != kNoSpan) {
        self_us_[static_cast<std::size_t>(names_[parent.name].layer)] -= us;
    }
}

std::uint32_t Tracer::slot(std::uint32_t name) {
    if (names_[name].stored >= stored_per_name_) {
        return kNoSpan;
    }
    ++names_[name].stored;
    spans_.emplace_back();
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

SpanRef Tracer::record(std::uint32_t name, TimePoint start, TimePoint end,
                               std::uint64_t op, const SpanRef& parent) {
    account(name, us_between(start, end), parent);
    const SpanRef ref{name, slot(name), start};
    if (ref.index != kNoSpan) {
        spans_[ref.index] = Span{name, parent.index, op, start, end};
    }
    return ref;
}

SpanRef Tracer::open(std::uint32_t name, TimePoint start, std::uint64_t op,
                             const SpanRef& parent) {
    const SpanRef ref{name, slot(name), start, parent.name};
    if (ref.index != kNoSpan) {
        spans_[ref.index] = Span{name, parent.index, op, start, start};
    }
    return ref;
}

void Tracer::close(const SpanRef& span, TimePoint end) {
    if (span.index != kNoSpan) {
        spans_[span.index].end = end;
    }
    account(span.name, us_between(span.start, end), SpanRef{span.parent_name});
}

bool Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    const TimePoint origin = spans_.empty() ? TimePoint{} : spans_.front().start;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const Name& n = names_[s.name];
        out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << n.text << "\",\"cat\":\""
            << layer_name(n.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << us_between(origin, s.start) << ",\"dur\":" << us_between(s.start, s.end)
            << ",\"args\":{\"span\":" << i << ",\"op\":" << s.op << ",\"parent\":"
            << (s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent)) << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void finish_trace(const Tracer& tracer, const Options& options, Report& report) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        const auto layer = static_cast<Layer>(l);
        report.notes.push_back("self_time layer=" + std::string(layer_name(layer)) +
                               " spans=" + std::to_string(tracer.span_count(layer)) +
                               " self_s=" + std::to_string(tracer.self_us(layer) / 1e6));
    }
    if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
        report.fail("cannot write " + options.trace_out);
    }
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

#ifdef PERFBENCH_HAS_CPUID
std::string cpu_brand() {
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
        return "unknown";
    }
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
        __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char text[49] = {};
    std::memcpy(text, regs, 48);
    std::string brand(text);
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
}

std::string hypervisor_flag() {
    unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & (1u << 31)) != 0 ? "yes" : "no";
}
#else
std::string cpu_brand() { return "unknown"; }
std::string hypervisor_flag() { return "unknown"; }
#endif

std::string simd_tier() {
    namespace kern = qfa::cbr::kern;
    const kern::KernelTable* active = &kern::active_kernels();
    if (active == kern::avx2_kernels()) {
        return "avx2";
    }
    if (active == &kern::scalar_kernels()) {
        return "scalar";
    }
    return "baseline";
}

}  // namespace

std::vector<std::string> provenance() {
    return {
        "nproc=" + std::to_string(std::thread::hardware_concurrency()),
        "cpu=" + cpu_brand(),
        "hypervisor=" + hypervisor_flag(),
        "simd_tier=" + simd_tier(),
        std::string("compiler=gcc ") + __VERSION__,
        std::string("flags=") + PERFBENCH_CXX_FLAGS,
        std::string("build_type=") + PERFBENCH_BUILD_TYPE,
        std::string("commit=") + PERFBENCH_COMMIT,
    };
}

}  // namespace perfbench
